"""Per-kernel bench of the coherent family build, with a paired accuracy figure.

For each generator (ground, fock:3, squeezed:0.5 and a 9-column low-block
vector) on two grids (the ``roundtrips`` orthogonality grid, R 13, h 0.35,
N 24, and the ``spectra`` frame, R 7, h 0.098, N 32) it times
``wh_model.coherent_family`` on a fresh grid, once to warm up and then
``REPEATS`` times, and records the median and quartiles.  Next to each
time it records the largest |difference| between the family and the
closed form summed column by column over the whole grid
(``_displacement_elements``); an exact build reads 0.

Run from the repository root; the JSON goes to ``--out``::

    OPENBLAS_NUM_THREADS=2 python tools/bench_kernels.py --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qps import wh_model as wh  # noqa: E402

REPEATS = 9
GRIDS = {
    "roundtrips": (13.0, 0.35, 24),
    "spectra": (7.0, 0.098, 32),
}


def _generators(n_dim: int) -> dict:
    ctx = wh.fock_space(n_dim)
    rng = np.random.default_rng(9)
    low = np.zeros(n_dim, dtype=complex)
    low[:9] = rng.normal(size=9) + 1j * rng.normal(size=9)
    return {
        "ground": wh.resolution_generator("ground", ctx).vector,
        "fock:3": wh.resolution_generator("fock", ctx, n=3).vector,
        "squeezed:0.5": wh.resolution_generator("squeezed", ctx, r=0.5).vector,
        "9-column": low / np.linalg.norm(low),
    }


def _closed_form(vec, grid, n_dim: int) -> np.ndarray:
    out = np.zeros((len(grid), n_dim), dtype=complex)
    for n0 in np.nonzero(np.abs(vec) > 0)[0]:
        out += vec[n0] * wh._displacement_elements(grid.alpha[:, None], np.arange(n_dim)[None, :], n0)
    return out


def _machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def bench() -> list:
    rows = []
    for grid_name, (radius, spacing, n_dim) in GRIDS.items():
        ctx = wh.fock_space(n_dim)
        for gen_name, vec in _generators(n_dim).items():
            times = []
            for _ in range(REPEATS + 1):
                grid = wh.build_grid(radius, spacing)
                start = time.perf_counter()
                fam = wh.coherent_family(vec, grid, ctx)
                times.append(time.perf_counter() - start)
            q1, med, q3 = np.percentile(times[1:], [25, 50, 75])
            rows.append(
                {
                    "kernel": "wh_model.coherent_family",
                    "grid": grid_name,
                    "K": len(grid),
                    "N": n_dim,
                    "generator": gen_name,
                    "support_columns": int(np.count_nonzero(vec)),
                    "repeats": REPEATS,
                    "median_s": float(med),
                    "quartiles_s": [float(q1), float(q3)],
                    "max_abs_diff_closed_form": float(np.max(np.abs(fam - _closed_form(vec, grid, n_dim)))),
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    record = {"machine": _machine(), "kernels": bench()}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for row in record["kernels"]:
        print(
            f"{row['grid']:>10} {row['generator']:>12}  {row['median_s'] * 1e3:7.2f} ms"
            f"  max|diff| {row['max_abs_diff_closed_form']:.1e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

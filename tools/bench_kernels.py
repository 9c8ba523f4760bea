"""Per-kernel bench of the coherent family build, the admissibility check and
the exact cohomology kernels, each time with a paired accuracy figure.

Coherent family: for each generator (ground, fock:3, squeezed:0.5 and a
9-column low-block vector) on two grids (the ``roundtrips`` orthogonality
grid, R 13, h 0.35, N 24, and the ``spectra`` frame, R 7, h 0.098, N 32)
it times ``wh_model.coherent_family`` on a fresh grid.  Next to each time
it records the largest |difference| between the family and the closed
form summed column by column over the whole grid
(``_displacement_elements``); an exact build reads 0.

Admissibility: for ground, fock:3 and squeezed:0.5 on the ``roundtrips``
orthogonality grid (N 24, K 4,344), family already stored, it times
``wh_model.admissibility`` at its defaults.  Next to each time it records
the commutator sample radius and a digest of the exact bits of
``beta_max_deviation`` and ``d_constant``, which two trees must share.

Cohomology: on so(8), so(9), so(10) and h13 in a dense unimodular basis
(the benchmark's ``perfbench.inputs`` constructions) it times the Jacobi
check, ``second_cohomology`` and ``kernel_subalgebra`` of the first closed
basis form.  Next to each time it records H^1 and H^2 against their closed
forms (Whitehead for so(n), Santharoubane for h_{2n+1}) and a digest of
the exact output: the Z^2 and B^2 bases, or the kernel basis with its
closure flag and rank.

Every kernel runs once to warm up and then ``REPEATS`` times; each row
holds the median and quartiles.  Run from the repository root; the JSON
goes to ``--out``::

    OPENBLAS_NUM_THREADS=2 python tools/bench_kernels.py --out BENCH.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from qps import lie_cohomology as lc  # noqa: E402
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


def _stats(times) -> dict:
    """Median and quartiles of the timed calls, the warm-up ``times[0]`` left out."""
    q1, med, q3 = np.percentile(times[1:], [25, 50, 75])
    return {"repeats": REPEATS, "median_s": float(med), "quartiles_s": [float(q1), float(q3)]}


def _timed(fn):
    """Timing of ``REPEATS`` calls of ``fn`` after one warm-up, and the last result."""
    times = []
    for _ in range(REPEATS + 1):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return _stats(times), out


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _algebras() -> dict:
    """(structure constants, family, n) for each benched algebra."""
    out = {}
    for n in (8, 9, 10):
        dim, names, c = inputs.so_algebra(n)
        out[f"so({n})"] = (lc.StructureConstants(dim, names, c, f"so({n})"), "so", n)
    dim, names, c = inputs.heisenberg_algebra(6)
    c = inputs.change_basis(dim, c, inputs.unimodular(np.random.default_rng(13), dim))
    out["h13 dense"] = (lc.StructureConstants(dim, names, c, "h13 dense"), "heisenberg", 6)
    return out


def bench_cohomology() -> list:
    rows = []
    for name, (sc, family, n) in _algebras().items():
        oracle = list(inputs.cohomology_oracle(family, n))
        base = {"algebra": name, "dim": sc.dim, "constants": len(sc.c)}
        timing, jacobi = _timed(lambda: lc.validate_algebra(sc))
        rows.append({"kernel": "lie_cohomology.validate_algebra", **base, **timing,
                     "jacobi_ok": jacobi.ok})
        timing, report = _timed(lambda: lc.second_cohomology(sc))
        h1_h2 = [report.dim_h1, report.dim_h2]
        bases = [[[str(x) for x in ch.coords] for ch in b] for b in (report.z2_basis, report.b2_basis)]
        rows.append({"kernel": "lie_cohomology.second_cohomology", **base, **timing,
                     "h1_h2": h1_h2, "h1_h2_oracle": oracle, "exact": h1_h2 == oracle,
                     "dim_z2": report.dim_z2, "bases_digest": _digest(bases)})
        omega = report.z2_basis[0]
        timing, kernel = _timed(lambda: lc.kernel_subalgebra(sc, omega))
        rows.append({"kernel": "lie_cohomology.kernel_subalgebra", **base, **timing,
                     "is_subalgebra": kernel.is_subalgebra, "gamma_dim": kernel.gamma_dim,
                     "kernel_digest": _digest(lc.kernel_report_json(kernel))})
    return rows


def bench_family() -> list:
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
            rows.append(
                {
                    "kernel": "wh_model.coherent_family",
                    "grid": grid_name,
                    "K": len(grid),
                    "N": n_dim,
                    "generator": gen_name,
                    "support_columns": int(np.count_nonzero(vec)),
                    **_stats(times),
                    "max_abs_diff_closed_form": float(np.max(np.abs(fam - _closed_form(vec, grid, n_dim)))),
                }
            )
    return rows


def bench_admissibility() -> list:
    radius, spacing, n_dim = GRIDS["roundtrips"]
    ctx = wh.fock_space(n_dim)
    grid = wh.build_grid(radius, spacing)
    rows = []
    for gen_name, vec in _generators(n_dim).items():
        if gen_name == "9-column":
            continue
        wh.coherent_family(vec, grid, ctx)
        timing, rep = _timed(lambda: wh.admissibility(vec, grid, ctx))
        rows.append(
            {
                "kernel": "wh_model.admissibility",
                "grid": "roundtrips",
                "K": len(grid),
                "N": n_dim,
                "generator": gen_name,
                **timing,
                "sample_radius": float(wh._commutator_sample_radius(ctx, vec)),
                "beta_max_deviation": rep.beta_max_deviation,
                "d_constant": rep.d_constant,
                "values_digest": _digest([rep.beta_max_deviation.hex(), rep.d_constant.hex()]),
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    kernels = bench_family() + bench_admissibility() + bench_cohomology()
    record = {"machine": _machine(), "kernels": kernels}
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for row in record["kernels"]:
        if "values_digest" in row:
            label = f"{'admissib.':>10} {row['generator']:>12}"
            check = f"beta_max_deviation {row['beta_max_deviation']:.3e} digest {row['values_digest']}"
        elif "grid" in row:
            label = f"{row['grid']:>10} {row['generator']:>12}"
            check = f"max|diff| {row['max_abs_diff_closed_form']:.1e}"
        else:
            label = f"{row['algebra']:>10} {row['kernel'].split('.')[1]:>18}"
            check = " ".join(f"{k} {row[k]}" for k in ("jacobi_ok", "h1_h2", "exact", "gamma_dim")
                             if k in row)
        print(f"{label}  {row['median_s'] * 1e3:8.2f} ms  {check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

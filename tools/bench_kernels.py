"""Per-kernel bench of the coherent family build, the displaced overlaps,
the weighted Gram product, the localization operator, the Hermitian
eigensolve, the frame solve, the classical density, the admissibility
check, the tomography solve and its completeness rank, the exact
cohomology kernels, the effect-algebra axiom check, the lattice
translation, the CSV layer and the ``qps`` subcommands, each time with a
paired accuracy figure.

Coherent family: for each generator (ground, fock:3, squeezed:0.5 and a
9-column low-block vector) on two grids (the ``roundtrips`` orthogonality
grid, R 13, h 0.35, N 24, and the ``spectra`` frame, R 7, h 0.098, N 32)
it times ``wh_model.coherent_family`` of the whole grid twice: on a fresh
grid, which forms the real displacement table's columns, and as a second
generator on the same grid and N, which finds them kept; on the
``spectra`` frame also the ground family's rows in the ``disk:3`` region
on a fresh grid (``coherent_family(..., rows=...)``, the rows
``localization.quantize`` builds).  On the ``roundtrips`` tomography grid
(R 6, h 0.4, K 716) it times the ground family at N 16 on a grid that has
just built it at N 12: a new N on the same grid, which starts a new table
on the grid's radii.  Next to each time it records the largest |error| of
16 seeded entries of the rows built against the closed form summed in
mpmath at 50 digits.

Displaced overlaps: it times ``wh_model.displaced_overlaps``, the values
<D(alpha_k) eta, phi> that the transform, the autocorrelation and the
orthogonality check read without a family, with a new generator on every
call (eta turned by a new phase), for the 9-column generator against a
second seeded 9-column state on the ``roundtrips`` orthogonality grid, and
for the ground generator against a 13-level state on the ``qps transform``
grid.  Next to each time it records the largest |error| of 8 seeded
points against the closed form summed in mpmath at 50 digits.

Weighted Gram: on the ``spectra`` frame it times
``wh_model.weighted_gram`` of the ground family with the grid weights,
with seeded signed weights, and on a copy of the rows inside ``disk:3``
(the kernel alone: ``quantize`` hands it the stored family, see below).
Next to each time it records the largest |difference| from the same sum
accumulated in extended precision.

Quantize in situ: on the ``spectra`` frame it times
``localization.quantize`` of the ``disk:3`` and ``disk:5`` indicators with
their rows already built, as a workload op finds them, so the row gather
and the scaled buffer of the Gram product are timed where they happen.
Next to each time it records the largest |lambda_n - P(n + 1, R^2 / 2)|
over the N = 32 eigenvalues (the Daubechies values for the vacuum
generator).  These rows run first: whether a temporary of a few MB is
mapped afresh on each call (and faults its pages in) depends on what the
process freed before, since glibc raises its mmap threshold to the
largest block freed so far, and a fresh ``qps`` process has freed
nothing large.

Eigensolve and frame solve: it times ``numpy.linalg.eigvalsh`` of the
``disk:3`` localization operator on the ``spectra`` frame, next to the
largest |lambda_n - P(n + 1, 4.5)| over its N = 32 eigenvalues (the
Daubechies values for the vacuum generator), and ``transform.reconstruct``
of a low-block state on the ``qps transform`` grid (R 7, h 0.15, N 24),
family stored, so ``wh_model.frame_solve`` finds S and its condition
number kept next to it and runs only the LU solve.  Next to it the row
records the relative round-trip error and the ``numpy.linalg.eigvalsh``
calls of one more call, counted outside the timing: 0 while S's condition
number is kept, 1 where it is formed on every call.

Classical density: it times ``tomography.classical_density`` of a seeded
rank-3 state on the ``spectra`` frame (N 32) and on the ``roundtrips``
tomography grid (R 6, h 0.4, N 16), family stored, next to a digest of the
values, which two trees must share.

Displacement matrices: at N 24 and N 64 it times ``wh_model.displacement``
of one 2 x 32 block of amplitudes: the first block of pairs that the
commutator check of ``admissibility`` draws for the ground generator at
its default seed, drawn as it draws them (sample radius 0.61 at N 24,
1 at N 64).  Next to each time it records the largest |error| of 16
seeded entries against the closed form in mpmath at 50 digits.

Admissibility: for ground, fock:3 and squeezed:0.5 on the ``roundtrips``
orthogonality grid (N 24, K 4,344) it times ``wh_model.admissibility``
at its defaults, which builds no family.  Next to each time it records
the commutator sample radius and a digest of the exact bits of
``beta_max_deviation`` and ``d_constant``, which two trees must share.
These rows and the displacement rows run after the family, Gram and
classical-density rows, so the process has freed blocks of several MB
(the ``spectra`` families), and glibc no longer maps the commutator
check's matrix blocks (0.6 MB at N 24, 4.2 MB at N 64) afresh.  In a
fresh process it does: run alone, the admissibility rows read about
900 minor faults per call, and the displacement rows 403 (N 24) and
2,018 (N 64).

Tomography solve: it times ``tomography.reconstruct_state`` of the
densities of a seeded full-rank state, family already stored: for the
ground generator at N 4, 8, 12 and 16 on the ``roundtrips`` tomography
grid (R 6, h 0.4, K 716) and at N 4 on the ``qps transform`` grid (R 7,
h 0.15, K 6,828), and at N 16 on the tomography grid for squeezed:0.5,
which splits into four reflection blocks as ground does, and for the
complex 9-column generator, which is solved as one block.  Next to each
time it records the Frobenius error of the reconstructed state, the rank
the solve found and the residual.

Completeness rank: it times ``tomography.completeness_rank``, the rank
report of the tomography solve's own block factorization, family already
stored, on the ``roundtrips`` tomography grid (R 6, h 0.4, K 716) for the
ground generator at N 4 and 16 and for the complex 9-column generator at
N 16, which is one block.  Next to each time it records the rank, the
largest |s - s_ref| / s_ref[0] of its singular values s against those of
the K x N^2 rows, built from ``coherent_family`` with
``vectorize_hermitian`` and passed to ``numpy.linalg.svd``, and the
``tracemalloc`` peak of one more call in units of K N^2 8 bytes, measured
outside the timing: each block system is factored in place, so a peak
near 1 is the one-block system and no copy of it.

Cohomology: on so(8), so(9), so(10) and h13 in a dense unimodular basis
(the benchmark's ``perfbench.inputs`` constructions) it times the Jacobi
check, ``second_cohomology`` and ``kernel_subalgebra`` of the first closed
basis form.  Next to each time it records H^1 and H^2 against their closed
forms (Whitehead for so(n), Santharoubane for h_{2n+1}) and a digest of
the exact output: the Z^2 and B^2 bases, or the kernel report (basis,
rank, and the closure flag, which is True by theorem and not computed).

Effect axioms: it times ``effect_algebra.verify_axioms`` on the
``spectra`` workload's ``axioms`` input (300 effects from
``perfbench.inputs.effects`` with seed 1, N 6, 100 trials) and on
``effect_sampler(6, seed=1)`` over 1,000 trials, the ``qps effects``
default, sampling included.  Next to each time it records the failure
count of each axiom, which reads 0 on a correct effect algebra, and the
number of ``numpy.linalg.eigvalsh`` calls one run makes.

Transform grid: on the ``qps transform`` grid (R 7, h 0.15, K 6,828) it
times ``formats.write_values_csv`` of a closed-form Husimi density,
``formats.write_samples_csv`` of the transform of a low-block state
(N 24), ``formats.read_values_csv`` of the values file and
``transform.v_action`` of the samples by 10 spacings in q and -10 in p.
Next to each time it records the SHA-256 digest of the bytes written, or
of the float64 values read or translated, which two trees must share.

CLI: it times ``qps`` in process: ``spectrum`` at its defaults
(``disk:3``) and on the half plane ``rect:0,inf,-inf,inf``, ``cohomology
so3 --omega 1,0,0``, ``effects``, ``admissibility``, ``tomography
--self-test`` and ``tomography --positions-only``, each at its defaults
with the JSON report going to a buffer, and with ``--out``: ``transform``
at its defaults and ``tomography --probabilities FILE`` on a
Husimi-density file, at its defaults (N 4, R 5, h 0.4) and at the
``roundtrips`` configuration (N 4, R 7, h 0.15).  Then one large
configuration per numeric and exact subcommand, each row marked ``size
large``: ``spectrum --dim 128``, ``tomography --self-test --dim 16`` and
``cohomology`` of so(10) (dimension 45) in its standard basis, from a file
written with ``perfbench.inputs.algebra_json``.  Next to each time it
records a digest of the report, or of the files written (the JSON report
and the CSV table), with the temporary directory that a report may name
written as TMP, which two trees must share.

Every kernel runs once to warm up and then ``REPEATS`` times; each row
holds the median and quartiles, and the median number of minor page
faults per call (``resource.getrusage``): a temporary mapped afresh on
every call shows there.  Run from the repository root; the JSON
goes to ``--out``, and each row prints one line: its median, its kernel
and every field that is not timing::

    OPENBLAS_NUM_THREADS=2 python tools/bench_kernels.py --out BENCH.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import scipy
from scipy.special import gammainc

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from qps import cli  # noqa: E402
from qps import effect_algebra as ea  # noqa: E402
from qps import formats  # noqa: E402
from qps import lie_cohomology as lc  # noqa: E402
from qps import localization as loc  # noqa: E402
from qps import tomography as tom  # noqa: E402
from qps import transform as tr  # noqa: E402
from qps import wh_model as wh  # noqa: E402

REPEATS = 9
GRIDS = {
    "roundtrips": (13.0, 0.35, 24),
    "spectra": (7.0, 0.098, 32),
    "transform": (7.0, 0.15, 24),
}


def _frame(radius: float, spacing: float, n_dim: int):
    """Fock context, lattice grid and ground generator of one configuration."""
    ctx = wh.fock_space(n_dim)
    return ctx, wh.build_grid(radius, spacing), wh.resolution_generator("ground", ctx)


def _generators(n_dim: int) -> dict:
    ctx = wh.fock_space(n_dim)
    rng = np.random.default_rng(9)
    low = np.zeros(n_dim, dtype=complex)
    low[:9] = rng.normal(size=9) + 1j * rng.normal(size=9)
    return {
        "ground": wh.resolution_generator("ground", ctx),
        "fock:3": wh.resolution_generator("fock", ctx, n=3),
        "squeezed:0.5": wh.resolution_generator("squeezed", ctx, r=0.5),
        "9-column": low / np.linalg.norm(low),
    }


def _mp_displaced(alpha, vec, m):
    """sum_n <m|D(alpha)|n> vec_n from the closed form, in mpmath at the working precision."""
    a = mpmath.mpc(alpha.real, alpha.imag)
    x = abs(a) ** 2
    exact = 0
    for n in np.flatnonzero(vec):
        lo, hi = min(m, n), max(m, n)
        power = a ** (m - n) if m >= n else (-mpmath.conj(a)) ** (n - m)
        exact += (mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi)) * mpmath.exp(-x / 2)
                  * mpmath.laguerre(lo, hi - lo, x) * power * mpmath.mpc(vec[n].real, vec[n].imag))
    return exact


def _mp_error(fam, vec, grid, rows) -> float:
    """Largest |error| of 16 seeded entries of the built ``rows`` of ``fam`` (4 rows, 4
    levels each) against <m|D(alpha)|n> vec_n summed in mpmath at 50 digits."""
    rng = np.random.default_rng(25)
    worst = 0.0
    with mpmath.workdps(50):
        for k in rng.choice(rows, 4, replace=False):
            for m in rng.choice(len(vec), 4, replace=False):
                exact = _mp_displaced(grid.alpha[k], vec, m)
                worst = max(worst, float(abs(mpmath.mpc(fam[k, m].real, fam[k, m].imag) - exact)))
    return worst


def _mp_overlap_error(values, eta, phi, grid) -> float:
    """Largest |error| of ``values`` at 8 seeded grid points against <D(alpha_k) eta, phi>
    summed in mpmath at 50 digits."""
    rng = np.random.default_rng(29)
    worst = 0.0
    with mpmath.workdps(50):
        for k in rng.choice(len(grid), 8, replace=False):
            exact = mpmath.fsum(mpmath.conj(_mp_displaced(grid.alpha[k], eta, m))
                                * mpmath.mpc(phi[m].real, phi[m].imag) for m in np.flatnonzero(phi))
            worst = max(worst, float(abs(mpmath.mpc(values[k].real, values[k].imag) - exact)))
    return worst


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


def _timed(fn, fresh=None):
    """Median and quartiles of ``REPEATS`` calls of ``fn`` after one warm-up, the
    median count of minor page faults per call, and the last result.  With
    ``fresh``, each call is ``fn(fresh())``, and ``fresh()`` is not timed."""
    times, faults = [], []
    for _ in range(REPEATS + 1):
        args = () if fresh is None else (fresh(),)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    q1, med, q3 = np.percentile(times[1:], [25, 50, 75])
    return {"repeats": REPEATS, "median_s": float(med), "quartiles_s": [float(q1), float(q3)],
            "minor_faults": int(np.median(faults[1:]))}, out


def _digest(*parts) -> str:
    """First 16 hex digits of the SHA-256 of ``parts`` one after another: bytes
    as they are, an array's bytes, any other value as its sorted JSON text."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = part.tobytes()
        elif not isinstance(part, bytes):
            part = json.dumps(part, sort_keys=True).encode()
        digest.update(part)
    return digest.hexdigest()[:16]


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
        bases = [cli._text(ch.coords for ch in b) for b in (report.z2_basis, report.b2_basis)]
        rows.append({"kernel": "lie_cohomology.second_cohomology", **base, **timing,
                     "h1_h2": h1_h2, "h1_h2_oracle": oracle, "exact": h1_h2 == oracle,
                     "dim_z2": report.dim_z2, "bases_digest": _digest(bases)})
        omega = report.z2_basis[0]
        timing, kernel = _timed(lambda: lc.kernel_subalgebra(sc, omega))
        rows.append({"kernel": "lie_cohomology.kernel_subalgebra", **base, **timing,
                     "is_subalgebra": kernel.is_subalgebra, "gamma_dim": kernel.gamma_dim,
                     "kernel_digest": _digest({**vars(kernel), "h_basis": cli._text(kernel.h_basis)})})
    return rows


def bench_family() -> list:
    cases = [(grid_name, gen_name, None) for grid_name in ("roundtrips", "spectra")
             for gen_name in _generators(GRIDS[grid_name][2])]
    rows = []
    for grid_name, gen_name, region in [*cases, ("spectra", "ground", "disk:3")]:
        radius, spacing, n_dim = GRIDS[grid_name]
        ctx, probe, _ = _frame(radius, spacing, n_dim)
        vec = _generators(n_dim)[gen_name]
        if region is None:
            row_set, checked, extra = None, np.arange(len(probe)), {"support_columns": int(np.count_nonzero(vec))}
        else:
            row_set = np.flatnonzero(loc.RegionSpec.disk(3.0).mask(probe))
            checked, extra = row_set, {"rows": region, "rows_built": len(row_set)}
        base = {"kernel": "wh_model.coherent_family", "grid": grid_name, "K": len(probe), "N": n_dim,
                "generator": gen_name, **extra}
        timing, fam = _timed(lambda grid: wh.coherent_family(vec, grid, ctx, rows=row_set),
                             fresh=lambda: wh.build_grid(radius, spacing))
        rows.append({**base, "build": "fresh grid", **timing, "max_abs_err_mpmath": _mp_error(fam, vec, probe, checked)})
        if region is None:
            def handover():
                """Another generator takes the store, building no row: the family goes, the table stays."""
                wh.coherent_family(-vec, probe, ctx, rows=[])
                return probe

            timing, fam = _timed(lambda grid: wh.coherent_family(vec, grid, ctx), fresh=handover)
            rows.append({**base, "build": "second generator, same grid and N", **timing,
                         "max_abs_err_mpmath": _mp_error(fam, vec, probe, checked)})
    ctx12, _, ground12 = _frame(6.0, 0.4, 12)
    ctx, probe, vec = _frame(6.0, 0.4, 16)

    def after_n12():
        """A fresh grid that holds the ground family at N 12."""
        grid = wh.build_grid(6.0, 0.4)
        wh.coherent_family(ground12, grid, ctx12)
        return grid

    timing, fam = _timed(lambda grid: wh.coherent_family(vec, grid, ctx), fresh=after_n12)
    rows.append({"kernel": "wh_model.coherent_family", "grid": "tomography", "K": len(probe), "N": 16,
                 "generator": "ground", "support_columns": 1, "build": "new N, same grid", **timing,
                 "max_abs_err_mpmath": _mp_error(fam, vec, probe, np.arange(len(probe)))})
    return rows


def bench_overlaps() -> list:
    generators = _generators(GRIDS["roundtrips"][2])
    cases = {"roundtrips": ("9-column", generators["9-column"], "9-column", 8),
             "transform": ("ground", generators["ground"], "13-level", 12)}
    rows = []
    for grid_name, (eta_name, eta, phi_name, top) in cases.items():
        radius, spacing, n_dim = GRIDS[grid_name]
        ctx, grid, _ = _frame(radius, spacing, n_dim)
        phi = inputs.low_block_vector(np.random.default_rng(29), n_dim, top)
        turns = []

        def new_generator():
            """eta turned by a phase no earlier call used."""
            turns.append(np.exp(1j * len(turns)))
            return turns[-1] * eta

        timing, values = _timed(lambda vec: wh.displaced_overlaps(vec, phi, grid, ctx), fresh=new_generator)
        rows.append({"kernel": "wh_model.displaced_overlaps", "grid": grid_name, "K": len(grid), "N": n_dim,
                     "generator": eta_name, "state": phi_name, **timing,
                     "max_abs_err_mpmath": _mp_overlap_error(values, turns[-1] * eta, phi, grid)})
    return rows


def _husimi_csv(path, n_dim: int, radius: float, spacing: float) -> None:
    """A q,p,value,weight file of the Husimi density of a seeded rank-2 state."""
    grid = wh.build_grid(radius, spacing)
    rho = inputs.density_matrix(np.random.default_rng(16), n_dim, 2)
    formats.write_values_csv(inputs.husimi_values(rho, grid.q, grid.p), grid, path)


def bench_transform_grid(tmp: Path) -> list:
    radius, spacing, n_dim = GRIDS["transform"]
    ctx, grid, eta = _frame(radius, spacing, n_dim)
    phi = inputs.low_block_vector(np.random.default_rng(16), n_dim, 8)
    samples = tr.w_transform(eta, grid, phi, ctx)
    values_csv, samples_csv = tmp / "values.csv", tmp / "samples.csv"
    _husimi_csv(values_csv, 4, radius, spacing)
    values = formats.read_values_csv(values_csv, grid)
    base = {"grid": "transform", "K": len(grid)}
    timing, moved = _timed(lambda: tr.v_action((10 * spacing, -10 * spacing), samples))
    rows = [{"kernel": "transform.v_action", **base, "shift_spacings": [10, -10], **timing,
             "sha256": _digest(moved.values)}]
    timing, _ = _timed(lambda: formats.write_values_csv(values, grid, values_csv))
    rows.append({"kernel": "formats.write_values_csv", **base, **timing, "sha256": _digest(values_csv.read_bytes())})
    timing, _ = _timed(lambda: formats.write_samples_csv(samples, samples_csv))
    rows.append({"kernel": "formats.write_samples_csv", **base, **timing, "sha256": _digest(samples_csv.read_bytes())})
    timing, back = _timed(lambda: formats.read_values_csv(values_csv, grid))
    rows.append({"kernel": "formats.read_values_csv", **base, **timing, "sha256": _digest(back)})
    return rows


def bench_cli(tmp: Path) -> list:
    """In-process ``qps`` runs, each next to a digest of its report on stdout
    or, with ``--out``, of the files it wrote, with ``tmp`` written as TMP."""
    out = tmp / "report.json"
    runs = [({"kernel": "cli.spectrum", "region": region}, ["spectrum", "--region", region])
            for region in ("disk:3", "rect:0,inf,-inf,inf")]
    runs.append(({"kernel": "cli.csv", "command": "transform"}, ["transform", "--out", str(out)]))
    for name, (radius, spacing) in {"defaults": (5.0, 0.4), "roundtrips": (7.0, 0.15)}.items():
        probabilities = tmp / f"probabilities-{name}.csv"
        _husimi_csv(probabilities, 4, radius, spacing)
        flags = [] if name == "defaults" else ["--radius", str(radius), "--spacing", str(spacing)]
        runs.append(({"kernel": "cli.csv", "command": f"tomography {name}"},
                     ["tomography", "--probabilities", str(probabilities), *flags, "--out", str(out)]))
    runs += [({"kernel": f"cli.{argv[0]}", "argv": " ".join(argv)}, argv)
             for argv in (["cohomology", "so3", "--omega", "1,0,0"], ["effects"], ["admissibility"],
                          ["tomography", "--self-test"], ["tomography", "--positions-only"])]
    so10 = tmp / "so10.json"
    _, names, constants = inputs.so_algebra(10)
    so10.write_text(json.dumps(inputs.algebra_json("so(10)", names, constants)), encoding="utf-8")
    runs += [({"kernel": f"cli.{argv[0]}", "argv": " ".join(argv).replace(str(tmp), "TMP"), "size": "large"}, argv)
             for argv in (["spectrum", "--dim", "128"], ["tomography", "--self-test", "--dim", "16"],
                          ["cohomology", str(so10)])]
    rows = []
    for head, argv in runs:
        def run():
            with contextlib.redirect_stdout(io.StringIO()) as report:
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"qps {' '.join(argv)} exited {code}")
            return report.getvalue()

        timing, report = _timed(run)
        if "--out" in argv:
            files = (path.read_bytes().replace(str(tmp).encode(), b"TMP") for path in (out, out.with_suffix(".csv")))
            rows.append({**head, **timing, "sha256": _digest(*files)})
        else:
            rows.append({**head, **timing, "report_digest": _digest(report.replace(str(tmp), "TMP"))})
    return rows


def _mp_matrix_error(mats, alphas) -> float:
    """Largest |error| of 16 seeded entries of ``mats``, the stacked matrices D(alphas),
    against <m|D(alpha)|n> from the closed form in mpmath at 50 digits."""
    rng = np.random.default_rng(31)
    n_dim = mats.shape[-1]
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(16):
            index = tuple(int(rng.integers(size)) for size in alphas.shape)
            m, n = (int(level) for level in rng.integers(n_dim, size=2))
            exact = _mp_displaced(alphas[index], np.eye(n_dim)[n], m)
            got = mats[index + (m, n)]
            worst = max(worst, float(abs(mpmath.mpc(got.real, got.imag) - exact)))
    return worst


def bench_displacement() -> list:
    rows = []
    for n_dim in (24, 64):
        ctx = wh.fock_space(n_dim)
        radius = wh._commutator_sample_radius(ctx, wh.resolution_generator("ground", ctx))
        # one block of the commutator check's pairs at its default seed, drawn as it draws them
        u = np.random.default_rng(0).uniform(size=(wh._PAIR_BLOCK, 2, 2))
        amps = radius * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        alphas = ((wh.SQRT2 * amps.real + 1j * (wh.SQRT2 * amps.imag)) / wh.SQRT2).T
        timing, mats = _timed(lambda: wh.displacement(alphas, ctx))
        rows.append({"kernel": "wh_model.displacement", "N": n_dim, "amplitudes": list(alphas.shape),
                     "sample_radius": radius, **timing, "max_abs_err_mpmath": _mp_matrix_error(mats, alphas)})
    return rows


def bench_admissibility() -> list:
    ctx, grid, _ = _frame(*GRIDS["roundtrips"])
    rows = []
    for gen_name, vec in _generators(ctx.n_dim).items():
        if gen_name == "9-column":
            continue
        timing, rep = _timed(lambda: wh.admissibility(vec, grid, ctx))
        rows.append(
            {
                "kernel": "wh_model.admissibility",
                "grid": "roundtrips",
                "K": len(grid),
                "N": ctx.n_dim,
                "generator": gen_name,
                **timing,
                "sample_radius": rep.beta_sample_radius,
                "beta_max_deviation": rep.beta_max_deviation,
                "d_constant": rep.d_constant,
                "values_digest": _digest([rep.beta_max_deviation.hex(), rep.d_constant.hex()]),
            }
        )
    return rows


def bench_tomography() -> list:
    rows = []
    configs = ([("ground", n, "roundtrips", 6.0, 0.4) for n in (4, 8, 12, 16)]
               + [("ground", 4, "transform", 7.0, 0.15)]
               + [(name, 16, "roundtrips", 6.0, 0.4) for name in ("squeezed:0.5", "9-column")])
    for gen_name, n_dim, grid_name, radius, spacing in configs:
        ctx, grid, eta = _frame(radius, spacing, n_dim)
        if gen_name != "ground":
            eta = _generators(n_dim)[gen_name]
        rho = inputs.density_matrix(np.random.default_rng(17), n_dim, n_dim)
        probs = tom.classical_density(tom.DensityOperator(rho), eta, grid, ctx).values
        timing, result = _timed(lambda: tom.reconstruct_state(probs, eta, grid, ctx))
        rows.append({"kernel": "tomography.reconstruct_state", "grid": grid_name, "K": len(grid),
                     "N": n_dim, "generator": gen_name, **timing,
                     "frobenius_error": float(np.linalg.norm(result.rho.matrix - rho)),
                     "rank": result.completeness.gram_rank, "residual": result.residual})
    return rows


def bench_completeness() -> list:
    rows = []
    for gen_name, n_dim in (("ground", 4), ("ground", 16), ("9-column", 16)):
        ctx, grid, eta = _frame(6.0, 0.4, n_dim)
        if gen_name != "ground":
            eta = _generators(n_dim)[gen_name]
        timing, report = _timed(lambda: tom.completeness_rank(eta, grid, ctx))
        tracemalloc.start()
        try:
            tom.completeness_rank(eta, grid, ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        family = wh.coherent_family(eta, grid, ctx)
        svals = np.linalg.svd([tom.vectorize_hermitian(np.outer(u, u.conj())) for u in family], compute_uv=False)
        rows.append({"kernel": "tomography.completeness_rank", "grid": "roundtrips", "K": len(grid), "N": n_dim,
                     "generator": gen_name, **timing, "rank": report.gram_rank,
                     "max_rel_diff_svd": float(np.max(np.abs(report.singular_values - svals)) / svals[0]),
                     "peak_ratio": peak / (len(grid) * n_dim**2 * 8)})
    return rows


def _gram_oracle(fam, weights) -> np.ndarray:
    """sum_k w_k u_k u_k^H accumulated in extended precision."""
    f = np.asarray(fam, dtype=np.clongdouble)
    return np.einsum("k,km,kn->mn", np.asarray(weights, dtype=np.longdouble), f, f.conj())


def bench_gram() -> list:
    ctx, grid, eta = _frame(*GRIDS["spectra"])
    fam = wh.coherent_family(eta, grid, ctx)
    disk = np.flatnonzero(loc.RegionSpec.disk(3.0).mask(grid))
    signed = grid.weights * np.random.default_rng(19).normal(size=len(grid))
    cases = {"constant": (fam, grid.weights), "signed": (fam, signed),
             "disk:3 rows": (fam[disk], grid.weights[disk])}
    rows = []
    for name, (rows_in, weights) in cases.items():
        timing, gram = _timed(lambda: wh.weighted_gram(rows_in, weights))
        rows.append({"kernel": "wh_model.weighted_gram", "grid": "spectra", "K": len(rows_in), "N": ctx.n_dim,
                     "weights": name, **timing,
                     "max_abs_diff_oracle": float(np.max(np.abs(gram - _gram_oracle(rows_in, weights))))})
    return rows


def bench_classical_density() -> list:
    rows = []
    for grid_name, config in (("spectra", GRIDS["spectra"]), ("tomography", (6.0, 0.4, 16))):
        ctx, grid, eta = _frame(*config)
        rho = tom.DensityOperator(inputs.density_matrix(np.random.default_rng(19), ctx.n_dim, 3))
        wh.coherent_family(eta, grid, ctx)
        timing, dens = _timed(lambda: tom.classical_density(rho, eta, grid, ctx))
        rows.append({"kernel": "tomography.classical_density", "grid": grid_name, "K": len(grid),
                     "N": ctx.n_dim, **timing, "sha256": _digest(dens.values)})
    return rows


def bench_quantize() -> list:
    ctx, grid, eta = _frame(*GRIDS["spectra"])
    rows = []
    for radius in (3.0, 5.0):
        symbol = loc.RegionSpec.disk(radius).mask(grid).astype(float)
        timing, op = _timed(lambda: loc.quantize(symbol, eta, grid, ctx))
        evals = np.linalg.eigvalsh(op)[::-1]
        err = float(np.max(np.abs(evals - gammainc(np.arange(1, ctx.n_dim + 1), radius**2 / 2))))
        rows.append({"kernel": "localization.quantize", "symbol": f"disk:{radius:g}", "grid": "spectra",
                     "K": len(grid), "rows": int(symbol.sum()), "N": ctx.n_dim, **timing,
                     "max_abs_diff_daubechies": err})
    return rows


def bench_eigensolve() -> list:
    ctx, grid, eta = _frame(*GRIDS["spectra"])
    op = loc.quantize(loc.RegionSpec.disk(3.0).mask(grid).astype(float), eta, grid, ctx)
    timing, evals = _timed(lambda: np.linalg.eigvalsh(op))
    # Daubechies: the vacuum disk operator of radius R has eigenvalues P(n + 1, R^2 / 2)
    err = float(np.max(np.abs(evals[::-1] - gammainc(np.arange(1, ctx.n_dim + 1), 4.5))))
    return [{"kernel": "numpy.linalg.eigvalsh", "operator": "quantize(disk:3)", "grid": "spectra",
             "K": len(grid), "N": ctx.n_dim, **timing, "max_abs_diff_daubechies": err}]


def bench_frame_solve() -> list:
    ctx, grid, eta = _frame(*GRIDS["transform"])
    phi = inputs.low_block_vector(np.random.default_rng(19), ctx.n_dim, ctx.n_dim // 2)
    samples = tr.w_transform(eta, grid, phi, ctx)
    timing, back = _timed(lambda: tr.reconstruct(eta, grid, samples, ctx))
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        tr.reconstruct(eta, grid, samples, ctx)
    return [{"kernel": "transform.reconstruct", "grid": "transform", "K": len(grid), "N": ctx.n_dim, **timing,
             "relative_error": float(np.linalg.norm(back - phi) / np.linalg.norm(phi)),
             "eigvalsh_calls": eigvalsh.call_count}]


def bench_axioms() -> list:
    effects = inputs.effects(np.random.default_rng(1), 6, 300)
    runs = {
        "axioms": (lambda: iter(effects).__next__, len(effects) // 3),
        "effect_sampler(6, seed=1)": (lambda: ea.effect_sampler(6, seed=1), 1000),
    }
    rows = []
    for name, (sampler, trials) in runs.items():
        timing, rep = _timed(lambda: ea.verify_axioms(sampler(), trials))
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            ea.verify_axioms(sampler(), trials)
        rows.append({"kernel": "effect_algebra.verify_axioms", "input": name, "N": 6,
                     "trials": trials, **timing, "eigvalsh_calls": eigvalsh.call_count,
                     "failures": rep.failures, "total_failures": rep.total_failures})
    return rows


def _summary(row: dict) -> str:
    """One line: the median, the kernel and every field that is not timing."""
    fields = " ".join(f"{k} {f'{v:.3g}' if isinstance(v, float) else v}"
                      for k, v in row.items() if k not in ("kernel", "repeats", "median_s", "quartiles_s"))
    return f"{row['median_s'] * 1e3:9.2f} ms  {row['kernel']}  {fields}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        kernels = (bench_quantize() + bench_family() + bench_overlaps() + bench_gram() + bench_eigensolve()
                   + bench_frame_solve() + bench_classical_density() + bench_displacement() + bench_admissibility()
                   + bench_tomography() + bench_completeness() + bench_cohomology() + bench_axioms() + bench_transform_grid(Path(tmp))
                   + bench_cli(Path(tmp)))
    Path(args.out).write_text(json.dumps({"machine": _machine(), "kernels": kernels}, indent=2) + "\n",
                              encoding="utf-8")
    for row in kernels:
        print(_summary(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Closed-form oracles used throughout:
- disk localization spectra against the regularized lower incomplete gamma
  P(n+1, R^2/2) (rotational symmetry of the vacuum kernel);
- the resolution of identity and the quadrature anti-Wick identities on
  the reference grid (dimension 24, radius 7, spacing 0.15);
- exact rational ranks for the cohomology dimensions.

Criterion 4 runs on a radius-7 grid with spacing 0.098, where the lattice
disk of radius 3 carries measure 4.49997: the eigenvalue error against
the continuum oracle is then dominated by genuinely spectral effects and
sits below 1e-4 (at the 0.15 spacing the lattice-measure fluctuation
alone contributes ~3e-4).

Criterion 10 draws random generators spread over the whole low block, so
it runs on a grid wide enough to pass the admissibility boundary check
for those generators (radius 13); the radius-7 reference grid only covers
compact generators such as the vacuum.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy.special import gammainc

from qps import effect_algebra as ea
from qps import lie_cohomology as lc
from qps import localization as loc
from qps import tomography as tom
from qps import transform as tr
from qps import wh_model as wh
from qps.cli import _standard_battery

from conftest import cli_env, quadratures, random_low_block


def report_line(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {description}: {status}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_cohomology_dimensions():
    expected = {"abelian2": 1, "h3": 2, "so3": 0, "poincare": 0}
    computed = {
        name: lc.second_cohomology(lc.catalog(name)).dim_h2 for name in expected
    }
    galilei = lc.second_cohomology(lc.catalog("galilei"))
    ok = computed == expected and galilei.dim_h2 >= 1 and galilei.dim_h1 >= 1
    report_line(
        1,
        "second cohomology dimensions (exact arithmetic)",
        ok,
        f"{computed}, galilei H2={galilei.dim_h2} H1={galilei.dim_h1}",
    )


def test_criterion_02_resolution_of_identity(ctx24, grid_ref, eta24):
    s = loc.quantize(np.ones(len(grid_ref)), eta24, grid_ref, ctx24)
    blk = slice(0, 9)
    defect = np.linalg.norm(s[blk, blk] - np.eye(9), ord=2)
    report_line(2, "resolution of identity on the low block", defect <= 1e-3, f"defect={defect:.2e}")


def test_criterion_03_anti_wick_recovers_quadratures(ctx24, grid_ref, eta24):
    _, _, q_op, p_op = quadratures(24)
    blk = slice(0, 9)
    err_q = np.linalg.norm(
        (loc.quantize(lambda q, p: q, eta24, grid_ref, ctx24) - q_op)[blk, blk], ord=2
    )
    err_p = np.linalg.norm(
        (loc.quantize(lambda q, p: p, eta24, grid_ref, ctx24) - p_op)[blk, blk], ord=2
    )
    ok = err_q <= 1e-3 and err_p <= 1e-3
    report_line(3, "quantized q and p match the quadratures", ok, f"q={err_q:.2e} p={err_p:.2e}")


def test_criterion_04_disk_spectrum_incomplete_gamma(ctx32, grid_fine, eta32):
    spec = loc.localization_spectrum(loc.RegionSpec.disk(3.0), eta32, grid_fine, ctx32)
    oracle = gammainc(np.arange(1, 10), 4.5)
    err = float(np.max(np.abs(spec.eigenvalues[:9] - oracle)))
    report_line(4, "disk spectrum vs incomplete-gamma oracle", err <= 1e-4, f"max err={err:.2e}")


def test_criterion_05_trace_and_norm_bounds(ctx32, grid_ref, eta32):
    tol = 1 + 1e-6
    ok = True
    details = []
    for region in _standard_battery(grid_ref):
        spec = loc.localization_spectrum(region, eta32, grid_ref, ctx32)
        top = float(spec.eigenvalues[0])
        ok &= spec.trace <= spec.mu_delta * tol
        ok &= top <= min(1.0, spec.mu_delta) * tol
        details.append(f"{region.label}: tr={spec.trace:.3f}<=mu={spec.mu_delta:.3f}")
    small = loc.localization_spectrum(loc.RegionSpec.disk(1.0), eta32, grid_ref, ctx32)
    near_one_count = int(np.sum(small.eigenvalues > 0.9))
    ok &= abs(small.mu_delta - 0.5) < 0.01 and near_one_count <= 1
    report_line(
        5,
        "trace and norm bounds over the region battery",
        ok,
        f"small-region count={near_one_count}",
    )


def test_criterion_06_channel_capacity_counts(ctx32, grid_ref, eta32):
    ok = True
    counts = {}
    for radius, mu in [(3.0, 4.5), (4.0, 8.0), (5.0, 12.5)]:
        count, measured = loc.channel_capacity(loc.RegionSpec.disk(radius), eta32, grid_ref, ctx32)
        counts[mu] = count
        ok &= abs(count - round(mu)) <= 1
    report_line(6, "channel-capacity counts track region measure", ok, f"{counts}")


def test_criterion_07_clustering_trend(ctx32, grid_ref, eta32):
    ratios = []
    for radius in (3.0, 4.0, 5.0):
        spec = loc.localization_spectrum(
            loc.RegionSpec.disk(radius), eta32, grid_ref, ctx32, epsilon=0.1
        )
        ratios.append(loc.clustering_report(spec).mid_to_near_one_ratio)
    ok = ratios[0] > ratios[1] > ratios[2]
    report_line(7, "mid-band fraction decreases with region size", ok, f"ratios={ratios}")


def test_criterion_08_informational_completeness(ctx4, grid4, eta4):
    coherent = tom.completeness_rank(eta4, grid4, ctx4)
    projectors = [np.diag((np.arange(4) == i).astype(complex)) for i in range(4)]
    positions = tom.operator_family_rank(projectors)
    ok = (
        coherent.complete
        and coherent.gram_rank == 16
        and coherent.gap_ratio >= 1e6
        and positions.gram_rank == 4
        and not positions.complete
    )
    report_line(
        8,
        "coherent POVM complete, position projectors not",
        ok,
        f"rank={coherent.gram_rank} gap={coherent.gap_ratio:.1e} positions={positions.gram_rank}",
    )


def test_criterion_09_tomography_round_trip(ctx4, grid4, eta4):
    worst = 0.0
    for seed in range(1, 11):
        rng = np.random.default_rng(seed)
        rho = tom.random_density(rng, 4)
        probs = tom.classical_density(rho, eta4, grid4, ctx4).values
        result = tom.reconstruct_state(probs, eta4, grid4, ctx4)
        worst = max(worst, float(np.linalg.norm(result.rho.matrix - rho.matrix)))
    report_line(9, "noiseless tomography round trip, seeds 1-10", worst <= 1e-6, f"worst={worst:.2e}")


def test_criterion_10_orthogonality_relation(ctx24, grid_ref, grid_wide, eta24):
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        eta1 = random_low_block(rng, 24)
        eta2 = random_low_block(rng, 24)
        phi1 = random_low_block(rng, 24)
        phi2 = random_low_block(rng, 24)
        rep = tr.orthogonality_check(eta1, eta2, phi1, phi2, grid_wide, ctx24)
        worst = max(worst, rep.relative_error)
    ground = wh.admissibility(eta24, grid_ref, ctx24, trials=5)
    ok = worst <= 1e-3 and abs(ground.d_constant - 1.0) <= 1e-3
    report_line(
        10,
        "orthogonality relation with recomputed d",
        ok,
        f"worst rel={worst:.2e}, ground d={ground.d_constant:.6f}",
    )


def test_criterion_11_expectation_equality(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(11)
    symbols = [
        np.ones(len(grid_ref)),
        grid_ref.q,
        grid_ref.p,
        grid_ref.q**2 + grid_ref.p**2,
        np.exp(-(grid_ref.q**2)),
        loc.RegionSpec.disk(2.0).mask(grid_ref).astype(float),
    ]
    states = [tom.DensityOperator.pure(np.eye(24)[0]), tom.DensityOperator(np.eye(24) / 24)]
    states += [tom.random_density(rng, 24, rank=3) for _ in range(4)]
    worst = 0.0
    for rho in states:
        for f in symbols:
            quantum, classical = tom.expectation_pair(rho, f, eta24, grid_ref, ctx24)
            worst = max(worst, abs(quantum - classical) / (1 + abs(quantum)))
    report_line(11, "quantum equals classical expectation", worst <= 1e-10, f"worst={worst:.2e}")


def test_criterion_12_effect_algebra(ctx32, grid_ref, eta32):
    axioms = ea.verify_axioms(ea.effect_sampler(6, seed=1), 1000)
    scan = ea.projection_scan(eta32, grid_ref, ctx32, _standard_battery(grid_ref))

    rng = np.random.default_rng(12)
    mv_ok = True
    for _ in range(500):
        f = ea.FuzzySymbol(rng.uniform(size=32))
        g = ea.FuzzySymbol(rng.uniform(size=32))
        h = ea.FuzzySymbol(rng.uniform(size=32))
        mv_ok &= bool(
            np.array_equal(ea.symbol_oplus(f, g).values, ea.symbol_oplus(g, f).values)
        )
        mv_ok &= bool(
            np.max(
                np.abs(
                    ea.symbol_oplus(ea.symbol_oplus(f, g), h).values
                    - ea.symbol_oplus(f, ea.symbol_oplus(g, h)).values
                )
            )
            < 1e-12
        )
        mv_ok &= bool(np.all(ea.symbol_oplus(f, ea.symbol_neg(f)).values == 1.0))
        luk_l = ea.symbol_oplus(ea.symbol_neg(ea.symbol_oplus(ea.symbol_neg(f), g)), g)
        luk_r = ea.symbol_oplus(ea.symbol_neg(ea.symbol_oplus(ea.symbol_neg(g), f)), f)
        mv_ok &= bool(np.max(np.abs(luk_l.values - luk_r.values)) < 1e-12)
        adj_l = ea.symbol_meet(h, f).values <= g.values
        adj_r = h.values <= ea.symbol_imp_godel(f, g).values
        mv_ok &= bool(np.array_equal(adj_l, adj_r))
    ok = axioms.total_failures == 0 and scan.all_pass and mv_ok
    gaps = min(e.max_spectral_gap for e in scan.entries)
    report_line(
        12,
        "effect axioms, projection gaps, many-valued laws",
        ok,
        f"failures={axioms.total_failures}, min gap={gaps:.3f}",
    )


def test_criterion_13_fresh_run_determinism(tmp_path):
    commands = [
        ["spectrum", "--out", "spec.json"],
        ["effects", "--out", "eff.json"],
        ["tomography", "--self-test", "--out", "tom.json"],
        ["cohomology", "galilei", "--out", "coh.json"],
        ["transform", "--out", "trf.json"],
        ["admissibility", "--out", "adm.json"],
    ]
    # Six JSON reports, plus the CSV siblings of the three commands with a
    # tabular artifact.
    expected = {
        "spec.json", "eff.json", "tom.json", "coh.json", "trf.json", "adm.json",
        "spec.csv", "tom.csv", "trf.csv",
    }
    workdirs = {}
    env = cli_env()
    for run in ("run1", "run2"):
        workdir = tmp_path / run
        workdir.mkdir()
        for argv in commands:
            # one fresh interpreter per command and run
            cmd = [sys.executable, "-m", "qps.cli", *argv]
            proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True)
            assert proc.returncode == 0, (
                f"{run}: {' '.join(cmd)} exited "
                f"{proc.returncode}\nstderr:\n{proc.stderr.decode(errors='replace')}"
            )
        workdirs[run] = workdir
    names = {r: {p.name for p in d.iterdir()} for r, d in workdirs.items()}
    problems = [
        f"{r}: missing {sorted(expected - found)}, "
        f"unexpected {sorted(found - expected)}"
        for r, found in names.items()
        if found != expected
    ]
    common = sorted(names["run1"] & names["run2"])
    problems += [
        f"{name} differs"
        for name in common
        if (workdirs["run1"] / name).read_bytes() != (workdirs["run2"] / name).read_bytes()
    ]
    report_line(
        13,
        "byte-identical outputs of two fresh runs",
        not problems,
        "; ".join([f"{len(common)} of {len(expected)} artifacts compared", *problems]),
    )

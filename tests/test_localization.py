"""Quantization, localization spectra, clustering, channel capacity.

The rotational-symmetry oracle: a disk of radius R, viewed through the
vacuum generator, has eigenvalues P(n+1, R^2/2) with P the regularized
lower incomplete gamma (radial quadrature of the photon-number kernel).
"""

import numpy as np
import pytest
from scipy.special import gammainc

from qps import localization as loc
from qps import transform as tr
from qps import wh_model as wh

from conftest import random_low_block


def rank_one_density(x, eta, ctx):
    """|D(alpha_x) eta><D(alpha_x) eta| at the phase-space point x = (q, p)."""
    alpha = (x[0] + 1j * x[1]) / wh.SQRT2
    u = wh.displacement(alpha, ctx) @ wh.generator_vector(eta)
    return np.outer(u, u.conj())


def quantize_via_transform(f, eta, grid, ctx):
    """Quantization routed through the transform, S^-1 W* M_f W, re-Hermitized.

    Agrees with quantize exactly when the frame operator is the identity;
    at finite truncation S^-1 breaks the symmetry at the quadrature-defect
    order.
    """
    routed = np.linalg.solve(tr.frame_operator(eta, grid, ctx), loc.quantize(f, eta, grid, ctx))
    return 0.5 * (routed + routed.conj().T)


# ---------------------------------------------------------------------------
# rank-one density
# ---------------------------------------------------------------------------


def test_density_at_origin_is_vacuum_projector(ctx24, eta24):
    t = rank_one_density((0.0, 0.0), eta24, ctx24)
    expected = np.zeros((24, 24))
    expected[0, 0] = 1.0
    assert np.max(np.abs(t - expected)) < 1e-14


def test_density_is_rank_one(ctx32, eta32):
    t = rank_one_density((1.3, -0.4), eta32, ctx32)
    evals = np.linalg.eigvalsh(t)
    assert evals[-1] == pytest.approx(np.trace(t).real, abs=1e-12)
    assert np.max(np.abs(evals[:-1])) < 1e-12


def test_density_trace_is_displaced_norm(ctx32, eta32):
    t = rank_one_density((np.sqrt(2.0), 0.0), eta32, ctx32)  # |alpha| = 1
    assert np.trace(t).real == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def test_constant_symbol_gives_frame_operator(ctx24, grid_ref, eta24):
    a = loc.quantize(np.ones(len(grid_ref)), eta24, grid_ref, ctx24)
    s = tr.frame_operator(eta24, grid_ref, ctx24)
    # bit for bit: povm_check takes S from frame_operator
    assert np.array_equal(a, s)
    blk = slice(0, 9)
    assert np.linalg.norm(a[blk, blk] - np.eye(9), ord=2) <= 1e-3


def test_position_symbol_recovers_position_operator(ctx24, grid_ref, eta24):
    a = loc.quantize(lambda q, p: q, eta24, grid_ref, ctx24)
    blk = slice(0, 9)
    assert np.linalg.norm((a - ctx24.q_op)[blk, blk], ord=2) <= 1e-3


def test_momentum_symbol_recovers_momentum_operator(ctx24, grid_ref, eta24):
    a = loc.quantize(lambda q, p: p, eta24, grid_ref, ctx24)
    blk = slice(0, 9)
    assert np.linalg.norm((a - ctx24.p_op)[blk, blk], ord=2) <= 1e-3


def test_squared_position_ordering_shift(ctx24, grid_ref, eta24):
    # smoothing by the vacuum adds half a unit to the squared quadrature
    a = loc.quantize(lambda q, p: q**2, eta24, grid_ref, ctx24)
    target = ctx24.q_op @ ctx24.q_op + 0.5 * np.eye(24)
    blk = slice(0, 9)
    assert np.linalg.norm((a - target)[blk, blk], ord=2) <= 5e-3


def test_quantize_positive_and_linear(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(0)
    f = rng.uniform(size=len(grid_ref))
    g = rng.uniform(size=len(grid_ref))
    af = loc.quantize(f, eta24, grid_ref, ctx24)
    ag = loc.quantize(g, eta24, grid_ref, ctx24)
    combo = loc.quantize(2.0 * f - 0.5 * g, eta24, grid_ref, ctx24)
    assert np.max(np.abs(combo - (2.0 * af - 0.5 * ag))) < 1e-12
    assert np.linalg.eigvalsh(af)[0] >= -1e-9


def test_trace_identity_reduces_to_quadrature(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(1)
    f = rng.uniform(size=len(grid_ref))
    a = loc.quantize(f, eta24, grid_ref, ctx24)
    fam = wh.coherent_family(eta24, grid_ref, ctx24)
    traces = np.sum(np.abs(fam) ** 2, axis=1)
    assert np.trace(a).real == pytest.approx(
        float(np.sum(grid_ref.weights * f * traces)), rel=1e-12
    )


def test_indicator_monotonicity(ctx32, grid_ref, eta32):
    inner = loc.RegionSpec.disk(2.0).mask(grid_ref).astype(float)
    outer = loc.RegionSpec.disk(3.0).mask(grid_ref).astype(float)
    a_in = loc.quantize(inner, eta32, grid_ref, ctx32)
    a_out = loc.quantize(outer, eta32, grid_ref, ctx32)
    assert np.linalg.eigvalsh(a_out - a_in)[0] >= -1e-9


@pytest.mark.parametrize(
    "symbol",
    [
        lambda q, p: (q**2 + p**2 <= 9.0).astype(float),
        lambda q, p: np.cos(q) * np.exp(-(p**2)),
        lambda q, p: np.zeros_like(q),
    ],
    ids=["disk3", "smooth", "zero"],
)
def test_quantize_matches_full_grid_sum(ctx24, grid_ref, eta24, symbol):
    # reference: the weighted sum over every grid point, zero terms included
    vals = symbol(grid_ref.q, grid_ref.p)
    fam = wh.coherent_family(eta24, grid_ref, ctx24)
    full = (fam.T * (grid_ref.weights * vals)) @ fam.conj()
    full = 0.5 * (full + full.conj().T)
    assert np.max(np.abs(loc.quantize(vals, eta24, grid_ref, ctx24) - full)) <= 1e-14


def test_symbol_shape_validation(ctx24, grid_ref, eta24):
    with pytest.raises(ValueError):
        loc.quantize(np.ones(3), eta24, grid_ref, ctx24)


# ---------------------------------------------------------------------------
# transform-routed quantization
# ---------------------------------------------------------------------------


def test_routed_constant_symbol_is_identity(ctx24, grid_ref, eta24):
    a = quantize_via_transform(np.ones(len(grid_ref)), eta24, grid_ref, ctx24)
    assert np.max(np.abs(a - np.eye(24))) < 1e-10


@pytest.mark.parametrize(
    "symbol",
    [
        lambda q, p: q,
        lambda q, p: p,
        lambda q, p: q**2,
        lambda q, p: (q**2 + p**2 <= 4.0).astype(float),
        lambda q, p: (q**2 + p**2 <= 9.0).astype(float),
    ],
    ids=["q", "p", "q2", "disk2", "disk3"],
)
def test_both_quantization_routes_agree(ctx24, grid_ref, eta24, symbol):
    direct = loc.quantize(symbol, eta24, grid_ref, ctx24)
    routed = quantize_via_transform(symbol, eta24, grid_ref, ctx24)
    blk = slice(0, 9)
    assert np.linalg.norm((direct - routed)[blk, blk], ord=2) <= 5e-3


# ---------------------------------------------------------------------------
# spectra and clustering
# ---------------------------------------------------------------------------


def test_disk_spectrum_matches_incomplete_gamma(ctx32, grid_fine, eta32):
    spec = loc.localization_spectrum(loc.RegionSpec.disk(3.0), eta32, grid_fine, ctx32)
    oracle = gammainc(np.arange(1, 10), 4.5)
    assert np.max(np.abs(spec.eigenvalues[:9] - oracle)) <= 1e-4
    assert spec.eigenvalues[0] == pytest.approx(1.0 - np.exp(-4.5), abs=1e-4)


def test_spectrum_containment(ctx32, grid_ref, eta32):
    for region in (loc.RegionSpec.disk(2.0), loc.RegionSpec.rect(0.0, 3.0, -1.0, 4.0)):
        spec = loc.localization_spectrum(region, eta32, grid_ref, ctx32)
        assert spec.eigenvalues[-1] >= -1e-9
        assert spec.eigenvalues[0] <= 1 + 1e-9


def test_full_grid_region_gives_frame_spectrum(ctx24, grid_ref, eta24):
    full = loc.RegionSpec.from_mask(np.ones(len(grid_ref), bool), label="all")
    spec = loc.localization_spectrum(full, eta24, grid_ref, ctx24)
    s_eigs = np.linalg.eigvalsh(tr.frame_operator(eta24, grid_ref, ctx24))[::-1]
    assert np.max(np.abs(spec.eigenvalues - s_eigs)) < 1e-10
    assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-3)


def test_empty_region_gives_zero_spectrum(ctx24, grid_ref, eta24):
    empty = loc.RegionSpec.from_mask(np.zeros(len(grid_ref), bool), label="none")
    spec = loc.localization_spectrum(empty, eta24, grid_ref, ctx24)
    assert np.all(spec.eigenvalues == 0)
    assert spec.mu_delta == 0


def test_epsilon_validation(ctx24, grid_ref, eta24):
    with pytest.raises(ValueError):
        loc.localization_spectrum(loc.RegionSpec.disk(1.0), eta24, grid_ref, ctx24, epsilon=0.6)


def test_band_counts_partition_the_spectrum(ctx32, grid_ref, eta32):
    spec = loc.localization_spectrum(loc.RegionSpec.disk(3.0), eta32, grid_ref, ctx32)
    assert spec.near_one + spec.near_zero + spec.mid == len(spec.eigenvalues) == 32
    assert spec.trace == pytest.approx(spec.eigenvalues.sum())


def test_clustering_trace_matches_region_measure(ctx32, grid_ref, eta32):
    spec = loc.localization_spectrum(loc.RegionSpec.disk(3.0), eta32, grid_ref, ctx32)
    summary = loc.clustering_report(spec)
    assert summary.trace == pytest.approx(4.5, abs=0.05)
    assert summary.trace <= summary.mu_delta * (1 + 1e-6)


def test_clustering_small_region_admits_at_most_one_localized_state(ctx32, grid_ref, eta32):
    spec = loc.localization_spectrum(loc.RegionSpec.disk(1.0), eta32, grid_ref, ctx32)
    assert spec.mu_delta == pytest.approx(0.5, abs=0.01)
    assert int(np.sum(spec.eigenvalues > 0.9)) <= 1
    loc.clustering_report(spec)  # bounds hold


def test_clustering_ratio_decreases_with_radius(ctx32, grid_ref, eta32):
    ratios = []
    for radius in (3.0, 4.0, 5.0):
        spec = loc.localization_spectrum(
            loc.RegionSpec.disk(radius), eta32, grid_ref, ctx32, epsilon=0.1
        )
        ratios.append(loc.clustering_report(spec).mid_to_near_one_ratio)
    assert ratios[0] > ratios[1] > ratios[2]


def _counts_only(near_one, near_zero, mid):
    return loc.SpectrumReport(
        eigenvalues=np.zeros(near_one + near_zero + mid),
        trace=0.0,
        mu_delta=1.0,
        near_one=near_one,
        near_zero=near_zero,
        mid=mid,
        epsilon=0.1,
    )


def test_mid_to_near_one_ratio_branches():
    assert _counts_only(near_one=4, near_zero=20, mid=6).mid_to_near_one_ratio == 1.5
    assert _counts_only(near_one=0, near_zero=30, mid=2).mid_to_near_one_ratio == float("inf")
    assert _counts_only(near_one=0, near_zero=32, mid=0).mid_to_near_one_ratio == 0.0


def test_clustering_report_returns_the_spectrum_it_checked(ctx32, grid_ref, eta32):
    spec = loc.localization_spectrum(loc.RegionSpec.disk(3.0), eta32, grid_ref, ctx32)
    assert loc.clustering_report(spec) is spec


def test_bound_violation_raises():
    fake = loc.SpectrumReport(
        eigenvalues=np.array([0.9, 0.8]),
        trace=1.7,
        mu_delta=1.0,
        near_one=0,
        near_zero=0,
        mid=2,
        epsilon=0.1,
    )
    with pytest.raises(loc.BoundViolationError):
        loc.clustering_report(fake)


# ---------------------------------------------------------------------------
# channel capacity
# ---------------------------------------------------------------------------


def test_capacity_counts_track_region_measure(ctx32, grid_ref, eta32):
    for radius, mu in [(3.0, 4.5), (4.0, 8.0), (5.0, 12.5)]:
        count, mu_measured = loc.channel_capacity(
            loc.RegionSpec.disk(radius), eta32, grid_ref, ctx32
        )
        assert abs(count - round(mu)) <= 1
        assert mu_measured == pytest.approx(mu, abs=0.05)


def test_tiny_region_passes_no_channels(ctx32, grid_ref, eta32):
    # mu = 0.25 disk: the top eigenvalue 1 - e^-0.25 = 0.221 sits below 1/2
    region = loc.RegionSpec.disk(np.sqrt(0.5))
    count, mu = loc.channel_capacity(region, eta32, grid_ref, ctx32)
    assert mu == pytest.approx(0.25, abs=0.01)
    assert count == 0


def test_full_grid_capacity_counts_covered_states(ctx32, grid_ref, eta32):
    full = loc.RegionSpec.from_mask(np.ones(len(grid_ref), bool), label="all")
    count, _ = loc.channel_capacity(full, eta32, grid_ref, ctx32)
    # coverage of Fock level n on a radius-7 grid is P(n+1, 24.5)
    expected = int(np.sum(gammainc(np.arange(1, 33), 24.5) > 0.5))
    assert count == expected


def test_capacity_threshold_validation(ctx32, grid_ref, eta32):
    with pytest.raises(ValueError):
        loc.channel_capacity(loc.RegionSpec.disk(1.0), eta32, grid_ref, ctx32, threshold=1.5)


def test_capacity_count_comes_from_the_spectrum(ctx32, grid_ref, eta32):
    region = loc.RegionSpec.disk(4.0)
    spec = loc.localization_spectrum(region, eta32, grid_ref, ctx32)
    count, mu = loc.channel_capacity(region, eta32, grid_ref, ctx32, threshold=0.3)
    assert (count, mu) == (spec.count_above(0.3), spec.mu_delta)
    assert spec.count_above(0.3) == int(np.sum(spec.eigenvalues > 0.3))
    for threshold in (0.0, 1.0, np.nan):
        with pytest.raises(ValueError, match="threshold must lie in"):
            spec.count_above(threshold)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def test_region_measures(grid_ref):
    disk = loc.RegionSpec.disk(2.0)
    assert disk.measure(grid_ref) == pytest.approx(2.0, abs=0.02)
    rect = loc.RegionSpec.rect(0.0, np.inf, -np.inf, np.inf)
    assert rect.measure(grid_ref) == pytest.approx(np.sum(grid_ref.weights) / 2, abs=0.1)


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf, -np.inf])
def test_disk_radius_outside_open_positive_line_rejected(radius):
    with pytest.raises(ValueError, match="disk radius must be positive and finite"):
        loc.RegionSpec.disk(radius)


@pytest.mark.parametrize(
    "bounds",
    [
        (1.0, 1.0, 0.0, 1.0),
        (2.0, 1.0, 0.0, 1.0),
        (0.0, 1.0, 1.0, 1.0),
        (0.0, 1.0, 1.0, -1.0),
        (np.nan, 1.0, 0.0, 1.0),
        (0.0, 1.0, 0.0, np.nan),
        (np.inf, np.inf, 0.0, 1.0),
    ],
    ids=["q-empty", "q-reversed", "p-empty", "p-reversed", "q0-nan", "p1-nan", "q-inf-inf"],
)
def test_rect_without_positive_sides_rejected(bounds):
    with pytest.raises(ValueError, match="rect region needs q0 < q1 and p0 < p1"):
        loc.RegionSpec.rect(*bounds)


def test_mask_region_validation(grid_ref):
    with pytest.raises(ValueError):
        loc.RegionSpec.from_mask(np.ones(3, bool)).mask(grid_ref)

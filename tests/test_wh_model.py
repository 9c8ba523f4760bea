"""Fock model: ladder algebra, closed-form displacements vs the
matrix-exponential oracle, grids, generators, admissibility."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import gammainc

from qps import wh_model as wh

from conftest import (
    central_phase,
    central_phase_deviation,
    closed_form_displacement,
    quadratures,
    random_low_block,
)


# ---------------------------------------------------------------------------
# fock_space
# ---------------------------------------------------------------------------


def test_lowering_matrix_smallest_case():
    a, ad, _, _ = quadratures(2)
    assert np.allclose(a, [[0, 1], [0, 0]])
    assert np.allclose(ad, [[0, 0], [1, 0]])


def test_dimension_too_small_rejected():
    with pytest.raises(ValueError):
        wh.fock_space(1)
    assert wh.fock_space(2).n_dim == 2


def test_canonical_commutator_below_truncation_edge():
    _, _, q, p = quadratures(8)
    comm = q @ p - p @ q
    blk = slice(0, 7)  # n <= N-2
    assert np.max(np.abs(comm[blk, blk] - 1j * np.eye(7))) < 1e-12


def test_position_spectrum_symmetric():
    _, _, q, _ = quadratures(8)
    evals = np.linalg.eigvalsh(q)
    assert np.allclose(evals, -evals[::-1], atol=1e-12)


def test_quadratures_hermitian():
    _, _, q, p = quadratures(12)
    assert np.max(np.abs(q - q.conj().T)) < 1e-14
    assert np.max(np.abs(p - p.conj().T)) < 1e-14


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------


def test_zero_displacement_is_identity():
    ctx = wh.fock_space(10)
    assert np.allclose(wh.displacement(0.0, ctx), np.eye(10), atol=1e-15)


def test_vacuum_matrix_element_closed_form():
    ctx = wh.fock_space(8)
    assert wh.displacement(1.0, ctx)[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-14)


@pytest.mark.parametrize("alpha", [1.0, 0.5 + 0.3j, 2.0 - 1.0j, -1.7j])
def test_displacement_matches_matrix_exponential_oracle(alpha):
    ctx = wh.fock_space(64)
    a, ad, _, _ = quadratures(64)
    oracle = expm(alpha * ad - np.conj(alpha) * a)
    ours = wh.displacement(alpha, ctx)
    blk = slice(0, 33)
    assert np.max(np.abs((oracle - ours)[blk, blk])) < 1e-8


def test_displacement_inverse_where_truncation_is_quiet():
    # the product of truncated matrices is the identity wherever the
    # displaced states stay inside the cutoff; the usable block shrinks
    # as the amplitude grows (oracle-measured)
    ctx = wh.fock_space(32)
    for alpha, top in ((0.5, 8), (1.0 + 1.0j, 8), (2.0, 4)):
        prod = wh.displacement(alpha, ctx) @ wh.displacement(-alpha, ctx)
        blk = slice(0, top + 1)
        assert np.max(np.abs(prod[blk, blk] - np.eye(top + 1))) < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
def test_coherent_overlap_identity(alpha, beta):
    ctx = wh.fock_space(32)
    e0 = np.zeros(32, complex)
    e0[0] = 1.0
    ca = wh.displacement(alpha, ctx) @ e0
    cb = wh.displacement(beta, ctx) @ e0
    expected = np.exp(-abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta)
    assert abs(np.vdot(ca, cb) - expected) < 1e-8


def test_displacement_isometric_on_protected_columns():
    ctx = wh.fock_space(32)
    for alpha in (1.5 + 0.5j, 2.0, 1.9 + 0.6j):
        d = wh.displacement(alpha, ctx)
        norms = np.linalg.norm(d[:, :7], axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_truncation_warning_for_large_amplitude():
    ctx = wh.fock_space(8)
    with pytest.warns(wh.TruncationWarning):
        wh.displacement(4.0, ctx)


def test_stacked_displacements_equal_the_one_amplitude_calls_bit_for_bit():
    ctx = wh.fock_space(24)
    rng = np.random.default_rng(7)
    # a transposed, so not C-ordered, stack of amplitudes, one of them 0
    alphas = (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))).T
    alphas[0, 1] = 0.0
    stacked = wh.displacement(alphas, ctx)
    assert stacked.shape == (5, 2, 24, 24) and stacked.flags.c_contiguous
    for index in np.ndindex(alphas.shape):
        assert np.array_equal(stacked[index], wh.displacement(alphas[index], ctx))


def test_stacked_displacements_warn_once_when_any_amplitude_exceeds_the_cutoff():
    ctx = wh.fock_space(8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wh.displacement(np.array([0.5, 4.0, 3.5j]), ctx)
        wh.displacement(np.array([0.5, 2.0, 2.0j]), ctx)  # |alpha|^2 = 4 <= 8: no warning
    assert [w.category for w in caught] == [wh.TruncationWarning]
    assert str(caught[0].message).startswith("|alpha|^2 = 16.00 exceeds n_dim = 8")


# ---------------------------------------------------------------------------
# build_grid
# ---------------------------------------------------------------------------


def test_grid_total_measure_approximates_half_radius_squared():
    grid = wh.build_grid(6.0, 0.2)
    assert np.sum(grid.weights) == pytest.approx(18.0, abs=0.1)


def test_coarse_grid_has_uniform_weights():
    grid = wh.build_grid(1.0, 0.9)
    assert len(grid) >= 1
    assert np.allclose(grid.weights, 0.81 / (2 * np.pi))


def test_doubling_spacing_quarters_point_count():
    fine = wh.build_grid(6.0, 0.05)
    coarse = wh.build_grid(6.0, 0.1)
    assert 3.5 < len(fine) / len(coarse) < 4.5


def test_grid_point_set_symmetric_under_negation():
    grid = wh.build_grid(3.0, 0.4)
    pts = {(round(q, 9), round(p, 9)) for q, p in grid.points}
    assert pts == {(-q, -p) for q, p in pts}


def test_grid_points_inside_disk():
    grid = wh.build_grid(4.0, 0.3)
    assert np.all(grid.q**2 + grid.p**2 <= 16.0 + 1e-12)


def test_grid_parameter_validation():
    with pytest.raises(ValueError):
        wh.build_grid(-1.0, 0.1)
    with pytest.raises(ValueError):
        wh.build_grid(1.0, 1.5)
    for radius in (np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            wh.build_grid(radius, 0.1)


def test_grid_arrays_are_read_only():
    grid = wh.build_grid(3.0, 0.4)
    for arr in (grid.points, grid.weights, grid.slots, grid.q, grid.alpha, grid.radii, grid.radius_index):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_grid_radii_group_the_points_by_their_exact_modulus():
    grid = wh.build_grid(5.0, 0.18)
    assert np.array_equal(grid.alpha, (grid.q + 1j * grid.p) / wh.SQRT2)
    assert np.array_equal(grid.radii[grid.radius_index], np.abs(grid.alpha))
    assert np.all(np.diff(grid.radii) > 0)


def test_grid_whose_outer_sites_overflow_builds_without_a_warning():
    # q^2 + p^2 overflows at the outer lattice sites, which lie outside the disk
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = wh.build_grid(1e154, 3e153)
    # the lattice of build_grid(10, 3) scaled by 1e153, whose points are nowhere near the rim
    assert len(grid) == len(wh.build_grid(10.0, 3.0)) and np.all(np.hypot(grid.q, grid.p) <= 1e154)


def test_grid_lookup_indexes_every_lattice_point():
    grid = wh.build_grid(3.0, 0.4)
    for k, (q, p) in enumerate(grid.points.tolist()):
        assert int(grid.locate(q, p)[0]) == k
    assert int(grid.locate(100.5 * 0.4, 0.2)[0]) == -1


def test_locate_snaps_each_grid_point_to_itself_and_misses_off_the_lattice():
    grid = wh.build_grid(3.0, 0.4)
    index, miss = grid.locate(grid.q, grid.p)
    assert np.array_equal(index, np.arange(len(grid))) and not miss.any()
    q0, p0 = grid.points[0]
    # half a spacing off is as far from the lattice as a point can be
    for x in (q0 + 0.2, np.nan, np.inf, -np.inf):
        assert grid.locate(x, p0)[1] and grid.locate(q0, x)[1]
    # finite, but its lattice coordinate overflows: off the grid, not a miss
    index, miss = grid.locate(1e308, p0)
    assert not miss and index == -1


# ---------------------------------------------------------------------------
# resolution generators
# ---------------------------------------------------------------------------


def test_ground_generator_is_vacuum(ctx24):
    eta = wh.resolution_generator("ground", ctx24)
    assert eta[0] == 1.0 and np.all(eta[1:] == 0)


def test_fock_generator(ctx24):
    eta = wh.resolution_generator("fock", ctx24, n=1)
    assert eta[1] == 1.0 and np.count_nonzero(eta) == 1


def test_zero_squeezing_equals_ground(ctx24):
    eta = wh.resolution_generator("squeezed", ctx24, r=0.0)
    assert np.allclose(eta, wh.resolution_generator("ground", ctx24))


@pytest.mark.parametrize("r", [0.5, -0.5, 0.3])
def test_squeezed_vacuum_squeezes_position_for_positive_r(r):
    # S(r) = exp(r (a^2 - a*^2) / 2) on the vacuum: <x^2> = e^(-2r)/2, <p^2> = e^(2r)/2.
    # N = 64 keeps the truncation below the tolerance (at N = 32 it shows, 3e-10 at r = 0.5).
    eta = wh.resolution_generator("squeezed", wh.fock_space(64), r=r)
    _, _, x, p = quadratures(64)
    assert np.vdot(eta, x @ eta) == 0 and np.vdot(eta, p @ eta) == 0
    assert abs(np.vdot(eta, x @ x @ eta) - np.exp(-2 * r) / 2) <= 1e-15
    assert abs(np.vdot(eta, p @ p @ eta) - np.exp(2 * r) / 2) <= 1e-15


def test_generators_unit_norm(ctx24):
    for kind, kw in [("ground", {}), ("fock", {"n": 3}), ("squeezed", {"r": 0.8})]:
        eta = wh.resolution_generator(kind, ctx24, **kw)
        assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-14)


def test_generator_parameter_validation(ctx24):
    with pytest.raises(ValueError):
        wh.resolution_generator("fock", ctx24, n=24)
    with pytest.raises(ValueError):
        wh.resolution_generator("squeezed", ctx24, r=2.0)
    with pytest.raises(ValueError):
        wh.resolution_generator("thermal", ctx24)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_ground_state_admissibility_integral_is_one(ctx24):
    grid = wh.build_grid(6.0, 0.1)
    eta = wh.resolution_generator("ground", ctx24)
    report = wh.admissibility(eta, grid, ctx24, trials=10)
    assert report.integral == pytest.approx(1.0, abs=1e-3)
    assert report.d_constant == pytest.approx(1.0, abs=1e-3)


def test_fock_generator_admissible_with_central_commutators(ctx24, grid_ref):
    # oracle: the autocorrelation integral is 1 for every unit generator
    # in this normalization (int e^-x (1-x)^2 dx over [0, inf) = 1)
    eta = wh.resolution_generator("fock", ctx24, n=1)
    report = wh.admissibility(eta, grid_ref, ctx24, trials=25)
    assert report.integral == pytest.approx(1.0, abs=1e-3)
    assert report.beta_ok
    assert report.beta_max_deviation <= 1e-6


def test_ground_beta_deviation_tiny(ctx24, grid_ref, eta24):
    report = wh.admissibility(eta24, grid_ref, ctx24, trials=25)
    assert report.beta_max_deviation <= 1e-6


def test_boundary_decay_precondition_names_radius(ctx24, grid_ref):
    eta = wh.resolution_generator("fock", ctx24, n=2)
    with pytest.raises(ValueError, match="radius"):
        wh.admissibility(eta, grid_ref, ctx24)
    # the same generator passes once the grid is wide enough
    wide = wh.build_grid(8.5, 0.15)
    report = wh.admissibility(eta, wide, ctx24, trials=10)
    assert report.integral == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("trials", [0, -1])
def test_admissibility_needs_a_commutator_trial(ctx24, grid_ref, eta24, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        wh.admissibility(eta24, grid_ref, ctx24, trials=trials)


def test_squeezed_generator_needs_wide_grid(ctx24):
    eta = wh.resolution_generator("squeezed", ctx24, r=0.5)
    grid = wh.build_grid(10.0, 0.2)
    report = wh.admissibility(eta, grid, ctx24, trials=10)
    assert report.integral == pytest.approx(1.0, abs=1e-3)
    assert report.beta_ok


def test_commutator_sample_radius_shrinks_at_the_cutoff(ctx24, grid_wide):
    # the pairs stay inside a radius that keeps four displacements of eta
    # within the truncation window; a generator reaching the cutoff leaves
    # almost no room
    ground = wh.admissibility(wh.resolution_generator("ground", ctx24), grid_wide, ctx24, trials=5)
    assert 0.5 < ground.beta_sample_radius < 0.7
    squeezed = wh.resolution_generator("squeezed", ctx24, r=0.5)
    report = wh.admissibility(squeezed, grid_wide, ctx24, trials=5)
    assert report.beta_sample_radius < 1e-4


def test_commutator_sample_radius_depends_on_n_only_through_a():
    # r solves P(a, (2r)^2) = 1e-18; a bisection bracketed by [0, N] drifted with N
    radii = {}
    for n_dim in range(2, 9):
        ctx = wh.fock_space(n_dim)
        for top in range(n_dim):
            a = max(n_dim - top - 2, 2)
            r = wh._commutator_sample_radius(ctx, np.eye(n_dim)[top])
            assert radii.setdefault(a, r) == r
            if r < 1:
                assert gammainc(a, (2 * r) ** 2) == pytest.approx(1e-18, rel=1e-12)
    assert sorted(radii) == [2, 3, 4, 5, 6]


def test_central_phase_with_coincident_points(ctx24, eta24):
    # the commutator of a point with itself is the identity: the scalar is 1
    beta, dev = central_phase_deviation((0.4, 0.3), (0.4, 0.3), eta24, ctx24)
    assert dev <= 1e-9
    assert beta == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_dim", [8, 24])
def test_displacement_of_minus_alpha_is_the_adjoint_entry_by_entry(n_dim):
    # central_phase_deviation applies D(a)^H in place of D(-a)
    ctx = wh.fock_space(n_dim)
    for alpha in (0.3, -0.7j, 0.4 + 0.25j, -1.1 + 0.6j, 2.0 - 1.5j):
        d = wh.displacement(alpha, ctx)
        assert np.array_equal(wh.displacement(-alpha, ctx), d.conj().T)


def _four_build_commutator(x, y, vec, ctx):
    """D(-ax) D(-ay) D(ax) D(ay) vec with each factor built from its amplitude."""
    ax = (x[0] + 1j * x[1]) / wh.SQRT2
    ay = (y[0] + 1j * y[1]) / wh.SQRT2
    v = vec
    for amp in (ay, ax, -ay, -ax):
        v = wh.displacement(amp, ctx) @ v
    beta, deviation = central_phase(vec, v)
    return beta, float(deviation)


@pytest.mark.parametrize("n_dim", [8, 24])
def test_central_phase_matches_the_four_build_product_bit_for_bit(n_dim):
    ctx = wh.fock_space(n_dim)
    rng = np.random.default_rng(11)
    for vec in (wh.resolution_generator("ground", ctx), random_low_block(rng, n_dim, 3)):
        for _ in range(5):
            x, y = tuple(rng.uniform(-1, 1, size=2)), tuple(rng.uniform(-1, 1, size=2))
            beta, dev = central_phase_deviation(x, y, vec, ctx)
            ref_beta, ref_dev = _four_build_commutator(x, y, vec, ctx)
            assert beta == ref_beta and dev == ref_dev


def _per_pair_max_deviation(vec, ctx, trials, seed):
    """admissibility's commutator check, one pair and two displacement builds at a time."""
    rng = np.random.default_rng(seed)
    r_beta = wh._commutator_sample_radius(ctx, vec)
    max_dev = 0.0
    for _ in range(trials):
        amps = r_beta * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        x = (wh.SQRT2 * amps[0].real, wh.SQRT2 * amps[0].imag)
        y = (wh.SQRT2 * amps[1].real, wh.SQRT2 * amps[1].imag)
        max_dev = max(max_dev, central_phase_deviation(x, y, vec, ctx)[1])
    return max_dev


@pytest.mark.parametrize("trials", [1, 50, wh._PAIR_BLOCK + 3])
@pytest.mark.parametrize(
    "kind,params",
    [("ground", {}), ("fock", {"n": 3}), ("squeezed", {"r": 0.5}), ("squeezed", {"r": -0.5})],
    ids=["ground", "fock:3", "squeezed:0.5", "squeezed:-0.5"],
)
def test_admissibility_deviation_matches_the_per_pair_oracle_bit_for_bit(
    ctx24, grid_wide, kind, params, trials
):
    # the pairs' displacements are built a block at a time from the same
    # closed form, entry by entry, so each deviation keeps its bits
    vec = wh.resolution_generator(kind, ctx24, **params)
    report = wh.admissibility(vec, grid_wide, ctx24, trials=trials, seed=5)
    assert report.beta_max_deviation == _per_pair_max_deviation(vec, ctx24, trials, 5)


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_formal_degree_does_not_depend_on_the_scale_of_the_generator(ctx24, grid_wide, scale):
    # the integral scales by |c|^4, and so does |eta|^4: d is a property of the direction of eta
    eta = wh.resolution_generator("squeezed", ctx24, r=0.5)
    _, integral, d = wh.autocorrelation(eta, grid_wide, ctx24)
    _, scaled_integral, scaled_d = wh.autocorrelation(scale * eta, grid_wide, ctx24)
    assert scaled_integral == pytest.approx(scale**4 * integral, rel=1e-12, abs=0)
    assert abs(scaled_d - d) <= 1e-12
    with warnings.catch_warnings():
        # the commutator check's amplitudes stay below 1, so no displacement warns
        warnings.simplefilter("error")
        report = wh.admissibility(scale * eta, grid_wide, ctx24, trials=1)
    assert abs(report.d_constant - d) <= 1e-12


def test_admissibility_integral_phase_invariant(ctx24, grid_ref, eta24):
    base = wh.autocorrelation(eta24, grid_ref, ctx24)[0]
    rotated = wh.autocorrelation(np.exp(0.7j) * eta24, grid_ref, ctx24)[0]
    assert np.max(np.abs(base - rotated)) < 1e-14


# ---------------------------------------------------------------------------
# coherent family stored on the grid
# ---------------------------------------------------------------------------


def _family_reference(vec, grid, n_dim):
    """Rows D(alpha_k) vec from the complex-power closed form, no storage."""
    idx = np.arange(n_dim)
    elems = closed_form_displacement(grid.alpha[:, None, None], idx[None, :, None], idx[None, None, :])
    return elems @ vec


def test_repeat_family_call_returns_the_stored_read_only_array(ctx24, monkeypatch):
    grid = wh.build_grid(5.0, 0.4)
    eta = wh.resolution_generator("fock", ctx24, n=2)
    builds = []
    fill_rows = wh._fill_rows
    monkeypatch.setattr(wh, "_fill_rows", lambda *args: builds.append(args) or fill_rows(*args))
    first = wh.coherent_family(eta, grid, ctx24)
    again = wh.coherent_family(eta.copy(), grid, ctx24)
    # both are views of the stored family, which was built once
    assert len(builds) == 1
    assert np.shares_memory(first, grid._family.family) and np.shares_memory(again, grid._family.family)
    assert not first.flags.writeable and not again.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 0.0


def test_blocked_family_equals_the_whole_grid_sum():
    # 6842 rows in blocks of 341 for N = 24, the last one partial; the
    # reference adds the same terms in the same order over the whole grid
    grid = wh.build_grid(7.0, 0.15)
    ctx = wh.fock_space(24)
    vec = random_low_block(np.random.default_rng(4), 24)
    assert np.array_equal(wh.coherent_family(vec, grid, ctx), _per_column_sum(vec, grid, 24))


def test_family_follows_a_new_generator_or_dimension():
    grid = wh.build_grid(5.0, 0.4)
    rng = np.random.default_rng(3)
    for n_dim in (12, 16, 12):
        ctx = wh.fock_space(n_dim)
        for vec in (wh.resolution_generator("ground", ctx), random_low_block(rng, n_dim, 5)):
            fam = wh.coherent_family(vec, grid, ctx)
            assert fam.shape == (len(grid), n_dim)
            assert np.max(np.abs(fam - _family_reference(vec, grid, n_dim))) < 1e-14


def _per_column_sum(vec, grid, n_dim):
    """The factored form summed over the whole grid: ph * sum_n T[r(k), :, n] vec_n conj(ph_n)
    over the support columns n in order, with T the real displacement and ph_m = e^(i m theta_k)."""
    r = np.abs(grid.alpha)
    ph = wh._phases(wh._squares(grid.alpha, r, n_dim), n_dim).T
    acc = np.zeros((len(grid), n_dim), dtype=complex)
    for n0 in np.nonzero(np.abs(vec) > 0)[0]:
        acc += wh._real_displacement(r, np.arange(n_dim), n0) * (vec[n0] * ph[:, n0].conj())[:, None]
    return acc * ph


def _exactness_generator(name, ctx):
    if name == "ground":
        return wh.resolution_generator("ground", ctx)
    if name == "fock:3":
        return wh.resolution_generator("fock", ctx, n=3)
    if name.startswith("squeezed:"):
        return wh.resolution_generator("squeezed", ctx, r=float(name.split(":")[1]))
    rng = np.random.default_rng(ctx.n_dim)
    if name == "full":
        vec = rng.normal(size=ctx.n_dim) + 1j * rng.normal(size=ctx.n_dim)
        return vec / np.linalg.norm(vec)
    return random_low_block(rng, ctx.n_dim, ctx.n_dim // 2)


@pytest.mark.parametrize("n_dim", [4, 24, 32])
@pytest.mark.parametrize("name", ["ground", "fock:3", "squeezed:0.8", "squeezed:-0.8", "full", "low"])
def test_family_is_exactly_the_per_column_closed_form(name, n_dim):
    # K = 2432 leaves a partial last row block at N = 4, 24 and 32 (2048, 341, 256 rows)
    grid = wh.build_grid(5.0, 0.18)
    ctx = wh.fock_space(n_dim)
    vec = _exactness_generator(name, ctx)
    assert np.array_equal(wh.coherent_family(vec, grid, ctx), _per_column_sum(vec, grid, n_dim))


@pytest.mark.parametrize("columns", [1, 5])
@pytest.mark.parametrize("name", ["full", "squeezed:0.8"])
def test_family_in_column_chunks_is_exactly_the_closed_form(monkeypatch, name, columns):
    # a table budget of `columns` kept columns: the rest of the support is formed for the build and dropped
    grid = wh.build_grid(5.0, 0.18)
    ctx = wh.fock_space(24)
    monkeypatch.setattr(wh, "_RADIAL_BYTES", columns * 8 * grid.radii.size * 24)
    vec = _exactness_generator(name, ctx)
    assert np.array_equal(wh.coherent_family(vec, grid, ctx), _per_column_sum(vec, grid, 24))


@pytest.mark.parametrize("name", ["ground", "squeezed:0.8", "full"])
def test_family_built_in_pieces_is_the_one_shot_family(monkeypatch, name):
    grid = wh.build_grid(5.0, 0.18)
    ctx = wh.fock_space(24)
    monkeypatch.setattr(wh, "_RADIAL_BYTES", 5 * 8 * grid.radii.size * 24)
    vec = _exactness_generator(name, ctx)
    one_shot = wh.coherent_family(vec, wh.build_grid(5.0, 0.18), ctx)
    assert np.array_equal(one_shot, _per_column_sum(vec, grid, 24))
    # two overlapping row sets, in no particular order, then the rest of the grid
    disk = np.flatnonzero(np.hypot(grid.q, grid.p) <= 2.5)
    band = np.flatnonzero(np.abs(grid.q - 1.0) <= 1.2)[::-1]
    pieces = []
    for rows in (disk, band):
        fam = wh.coherent_family(vec, grid, ctx, rows=rows)
        pieces.append((rows, fam, fam[rows].copy()))
    whole = wh.coherent_family(vec, grid, ctx)
    assert np.array_equal(whole, one_shot)
    # each call returned the stored array, its rows as the one-shot build made them
    for rows, fam, built in pieces:
        assert fam is whole and not fam.flags.writeable
        assert np.array_equal(built, one_shot[rows])


def _mp_displacement(mpmath, alpha, m, n):
    """<m|D(alpha)|n> in mpmath at the working precision, from the closed form."""
    a = mpmath.mpc(alpha.real, alpha.imag)
    x = abs(a) ** 2
    lo, hi = min(m, n), max(m, n)
    radial = mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi)) * mpmath.exp(-x / 2)
    power = a ** (m - n) if m >= n else (-mpmath.conj(a)) ** (n - m)
    return radial * mpmath.laguerre(lo, hi - lo, x) * power


@pytest.mark.parametrize("n_dim", [4, 24, 32])
def test_sampled_family_entries_match_mpmath_at_50_digits(grid_wide, n_dim):
    # a full-support generator, so every column, its phase and the sign above the diagonal count
    mpmath = pytest.importorskip("mpmath")
    ctx = wh.fock_space(n_dim)
    rng = np.random.default_rng(50 + n_dim)
    vec = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    vec /= np.linalg.norm(vec)
    fam = wh.coherent_family(vec, grid_wide, ctx)
    # rows across the grid's radii (|alpha| up to 9.2), a few levels each
    worst = 0.0
    with mpmath.workdps(50):
        for k in rng.choice(len(grid_wide), 12, replace=False):
            alpha = grid_wide.alpha[k]
            for m in rng.choice(n_dim, min(n_dim, 6), replace=False):
                exact = mpmath.fsum(
                    _mp_displacement(mpmath, alpha, int(m), n) * mpmath.mpc(vec[n].real, vec[n].imag)
                    for n in range(n_dim)
                )
                worst = max(worst, float(abs(mpmath.mpc(fam[k, m].real, fam[k, m].imag) - exact)))
    assert worst <= 5e-15


def test_family_rows_are_built_once_and_only_where_asked():
    grid = wh.build_grid(5.0, 0.4)
    ctx = wh.fock_space(12)
    vec = random_low_block(np.random.default_rng(5), 12, 4)
    inner = np.hypot(grid.q, grid.p) <= 2.0
    fam = wh.coherent_family(vec, grid, ctx, rows=inner)
    assert fam is grid._family.family and fam.shape == (len(grid), 12)
    assert np.array_equal(grid._family.built, inner)
    assert not fam[~inner].any()
    wh.coherent_family(vec, grid, ctx, rows=np.flatnonzero(inner)[:5])
    assert grid._family.family is fam and np.array_equal(grid._family.built, inner)


def test_new_generator_or_dimension_resets_the_built_rows():
    grid = wh.build_grid(5.0, 0.4)
    rows = np.arange(0, len(grid), 7)[:3]
    held = []
    for n_dim, name in ((12, "ground"), (12, "low"), (16, "low")):
        ctx = wh.fock_space(n_dim)
        vec = _exactness_generator(name, ctx)
        wh.coherent_family(vec, grid, ctx, rows=rows)
        assert np.flatnonzero(grid._family.built).tolist() == rows.tolist()
        whole = wh.coherent_family(vec, grid, ctx)
        assert np.array_equal(whole, _per_column_sum(vec, grid, n_dim))
        held.append((whole, whole.copy()))
    for whole, before in held:
        assert not whole.flags.writeable
        assert np.array_equal(whole, before)


def test_new_generator_keeps_the_table_and_a_new_dimension_drops_it(monkeypatch):
    grid = wh.build_grid(5.0, 0.4)
    ctx = wh.fock_space(12)
    rng = np.random.default_rng(6)
    wh.coherent_family(random_low_block(rng, 12, 4), grid, ctx)
    store = grid._family
    columns = {n: store.table[n] for n in range(5)}
    vec = random_low_block(rng, 12, 3)
    expected = _per_column_sum(vec, grid, 12)
    formed = []
    radial = wh._radial
    monkeypatch.setattr(wh, "_radial", lambda *args: formed.append(args) or radial(*args))
    # a second generator on columns already formed: a new family on the same table, no column formed
    fam = wh.coherent_family(vec, grid, ctx)
    assert grid._family is store and not formed
    assert all(store.table[n] is columns[n] for n in range(5))
    assert store.built.all() and np.array_equal(fam, expected)
    # a new N starts a new store, with its own table
    wh.coherent_family(wh.resolution_generator("ground", wh.fock_space(16)), grid, wh.fock_space(16))
    assert grid._family is not store and list(grid._family.table) == [0] and len(formed) == 1


def test_a_new_dimension_on_the_same_grid_sorts_no_radii(monkeypatch):
    grid = wh.build_grid(6.0, 0.4)
    ctx = wh.fock_space(12)
    wh.coherent_family(wh.resolution_generator("ground", ctx), grid, ctx)
    radii = grid.radii

    def unique(*args, **kwargs):
        raise AssertionError("the radii are the grid's; nothing sorts them again")

    monkeypatch.setattr(np, "unique", unique)
    ctx = wh.fock_space(16)
    vec = random_low_block(np.random.default_rng(7), 16, 4)
    fam = wh.coherent_family(vec, grid, ctx)
    assert grid._family.n_dim == 16 and grid.radii is radii
    assert np.array_equal(fam, _per_column_sum(vec, grid, 16))


def test_overflowing_power_names_the_largest_radius():
    # alpha**31 overflows past |alpha| = 8.6e9, a grid radius of 1.21e10 at N = 32
    grid = wh.build_grid(2e10, 1e9)
    ctx = wh.fock_space(32)
    vec = wh.resolution_generator("ground", ctx)
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(ValueError, match=r"N = 32 allows grid radii up to 1\.21e\+10"):
            wh.coherent_family(vec, grid, ctx)
        assert grid._family.built.sum() == 0
        # only the rows to build are checked
        near = np.flatnonzero(np.hypot(grid.q, grid.p) <= 1e10)
        assert not wh.coherent_family(vec, grid, ctx, rows=near).any()


def test_radial_factor_is_zero_where_its_exponential_underflows():
    # L_31(1e12) overflows; the factor it multiplies is exp(-5e11) = 0
    x = np.array([1e3, 1e12, 1e300])
    with np.errstate(over="raise", invalid="raise"):
        radial = wh._radial(x[:, None], np.arange(32)[None, :], 31)
    assert np.all(radial[1:] == 0) and np.all(np.isfinite(radial))
    assert np.array_equal(radial[0], wh._radial(1e3, np.arange(32), 31))
    # at N = 1100, sqrt(lo!/hi!) is 0 where L_lo^(hi-lo)(0) = binom(hi, lo) overflows
    with np.errstate(over="raise", invalid="raise"):
        wide = wh._radial(0.5, np.arange(1100), 550)
    assert np.all(np.isfinite(wide)) and wide[0] == 0 and wide[550] != 0


def test_symbol_on_some_radii_quantizes_exactly_from_the_closed_form():
    from qps import localization as loc

    grid = wh.build_grid(5.0, 0.18)
    ctx = wh.fock_space(24)
    vec = random_low_block(np.random.default_rng(9), 24)
    radius = np.hypot(grid.q, grid.p)
    symbol = np.where((radius > 2.0) & (radius <= 3.0), 0.5 + 0.1 * radius, 0.0)
    rows = np.flatnonzero(symbol)
    expected = wh.weighted_gram(_per_column_sum(vec, grid, 24)[rows], grid.weights[rows] * symbol[rows])
    assert np.array_equal(loc.quantize(symbol, vec, grid, ctx), expected)


# ---------------------------------------------------------------------------
# displaced overlaps, read off the table without a family
# ---------------------------------------------------------------------------


def _overlap_pairs(ctx):
    """(eta, phi) pairs: each named generator against itself, and two seeded
    9-column vectors and two seeded full-support ones."""
    n_dim = ctx.n_dim
    rng = np.random.default_rng(29 + n_dim)

    def drawn(levels):
        vec = np.zeros(n_dim, dtype=complex)
        vec[:levels] = rng.normal(size=levels) + 1j * rng.normal(size=levels)
        return vec / np.linalg.norm(vec)

    pairs = {}
    for name in ("ground", "fock:3", "squeezed:0.5"):
        vec = _exactness_generator(name, ctx)
        pairs[name] = (vec, vec)
    pairs["9-column"] = (drawn(min(9, n_dim)), drawn(min(9, n_dim)))
    pairs["full"] = (drawn(n_dim), drawn(n_dim))
    return pairs


def _relative(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n_dim", [8, 24, 32])
@pytest.mark.parametrize("config", [(13.0, 0.35), (5.0, 0.18)])
def test_displaced_overlaps_match_the_closed_form_and_the_family(config, n_dim):
    ctx = wh.fock_space(n_dim)
    pairs = _overlap_pairs(ctx)
    grid = wh.build_grid(*config)
    # the complex-power oracle, 256 points at a time
    idx = np.arange(n_dim)
    oracle = {name: [] for name in pairs}
    for start in range(0, len(grid), 256):
        d = closed_form_displacement(grid.alpha[start : start + 256, None, None], idx[:, None], idx[None, :])
        for name, (eta, phi) in pairs.items():
            oracle[name].append((d @ eta).conj() @ phi)
    for name, (eta, phi) in pairs.items():
        got = wh.displaced_overlaps(eta, phi, grid, ctx)
        assert grid._family.family is None
        assert _relative(got, np.concatenate(oracle[name])) <= 1e-13, name
        family = wh.coherent_family(eta, wh.build_grid(*config), ctx)
        assert _relative(got, family.conj() @ phi) <= 1e-14, name


def test_displaced_overlaps_of_a_zero_vector_are_zero(ctx24):
    grid = wh.build_grid(6.0, 0.4)
    vec = random_low_block(np.random.default_rng(3), 24)
    for eta, phi in ((np.zeros(24), vec), (vec, np.zeros(24))):
        out = wh.displaced_overlaps(eta, phi, grid, ctx24)
        assert out.dtype == complex and out.shape == (len(grid),) and not out.any()


def test_displaced_overlaps_do_not_depend_on_the_row_blocks(ctx24, monkeypatch):
    grid = wh.build_grid(6.0, 0.4)
    rng = np.random.default_rng(11)
    eta, phi = random_low_block(rng, 24, 23), random_low_block(rng, 24, 23)
    whole = wh.displaced_overlaps(eta, phi, grid, ctx24)
    for step in (1, 37):
        monkeypatch.setattr(wh, "row_blocks", lambda n_rows, _, step=step: (
            slice(start, start + step) for start in range(0, n_rows, step)))
        assert np.array_equal(wh.displaced_overlaps(eta, phi, grid, ctx24), whole)


def test_displaced_overlaps_refuse_what_the_family_refuses():
    # alpha**31 overflows past |alpha| = 8.6e9, a grid radius of 1.21e10 at N = 32
    grid = wh.build_grid(2e10, 1e9)
    ctx = wh.fock_space(32)
    vec = wh.resolution_generator("ground", ctx)

    def refusals(build):
        messages = []
        for v in (vec, np.zeros(32), np.ones(31)):
            with pytest.raises(ValueError) as refused:
                build(v)
            messages.append(str(refused.value))
        return messages

    overlaps = refusals(lambda v: wh.displaced_overlaps(v, vec, grid, ctx))
    assert grid._family.family is None
    assert refusals(lambda v: wh.coherent_family(v, grid, ctx)) == overlaps
    assert "N = 32 allows grid radii up to 1.21e+10" in overlaps[0] and overlaps[1] == overlaps[0]
    assert overlaps[2] == "generator has dim (31,), context has 32"
    with pytest.raises(ValueError, match=r"state has shape \(31,\), context dim is 32"):
        wh.displaced_overlaps(vec, np.ones(31), grid, ctx)

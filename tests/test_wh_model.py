"""Fock model: ladder algebra, closed-form displacements vs the
matrix-exponential oracle, grids, generators, admissibility."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qps import wh_model as wh

from conftest import random_low_block


# ---------------------------------------------------------------------------
# fock_space
# ---------------------------------------------------------------------------


def test_lowering_matrix_smallest_case():
    ctx = wh.fock_space(2)
    assert np.allclose(ctx.lowering, [[0, 1], [0, 0]])
    assert np.allclose(ctx.raising, [[0, 0], [1, 0]])


def test_dimension_too_small_rejected():
    with pytest.raises(ValueError):
        wh.fock_space(1)


def test_canonical_commutator_below_truncation_edge():
    ctx = wh.fock_space(8)
    comm = ctx.q_op @ ctx.p_op - ctx.p_op @ ctx.q_op
    blk = slice(0, 7)  # n <= N-2
    assert np.max(np.abs(comm[blk, blk] - 1j * np.eye(7))) < 1e-12


def test_position_spectrum_symmetric():
    ctx = wh.fock_space(8)
    evals = np.linalg.eigvalsh(ctx.q_op)
    assert np.allclose(evals, -evals[::-1], atol=1e-12)


def test_quadratures_hermitian():
    ctx = wh.fock_space(12)
    assert np.max(np.abs(ctx.q_op - ctx.q_op.conj().T)) < 1e-14
    assert np.max(np.abs(ctx.p_op - ctx.p_op.conj().T)) < 1e-14


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
    oracle = expm(alpha * ctx.raising - np.conj(alpha) * ctx.lowering)
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
    for arr in (grid.points, grid.weights, grid.iq, grid.ip, grid.q):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_grid_lookup_indexes_every_lattice_point():
    grid = wh.build_grid(3.0, 0.4)
    for k, (iq, ip) in enumerate(zip(grid.iq, grid.ip)):
        assert grid.lookup(int(iq), int(ip)) == k
    assert grid.lookup(100, 0) is None


# ---------------------------------------------------------------------------
# resolution generators
# ---------------------------------------------------------------------------


def test_ground_generator_is_vacuum(ctx24):
    eta = wh.resolution_generator("ground", ctx24)
    assert eta.vector[0] == 1.0 and np.all(eta.vector[1:] == 0)


def test_fock_generator(ctx24):
    eta = wh.resolution_generator("fock", ctx24, n=1)
    assert eta.vector[1] == 1.0
    assert eta.kind == "fock(1)"


def test_zero_squeezing_equals_ground(ctx24):
    eta = wh.resolution_generator("squeezed", ctx24, r=0.0)
    assert np.allclose(eta.vector, wh.resolution_generator("ground", ctx24).vector)


def test_generators_unit_norm(ctx24):
    for kind, kw in [("ground", {}), ("fock", {"n": 3}), ("squeezed", {"r": 0.8})]:
        eta = wh.resolution_generator(kind, ctx24, **kw)
        assert np.linalg.norm(eta.vector) == pytest.approx(1.0, abs=1e-14)


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


def test_central_phase_with_coincident_points(ctx24, eta24):
    # the commutator of a point with itself is the identity: the scalar is 1
    beta, dev = wh.central_phase_deviation((0.4, 0.3), (0.4, 0.3), eta24, ctx24)
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
    beta = np.vdot(vec, v)
    return beta, float(np.linalg.norm(v - beta * vec))


@pytest.mark.parametrize("n_dim", [8, 24])
def test_central_phase_matches_the_four_build_product_bit_for_bit(n_dim):
    ctx = wh.fock_space(n_dim)
    rng = np.random.default_rng(11)
    for vec in (wh.resolution_generator("ground", ctx).vector, random_low_block(rng, n_dim, 3)):
        for _ in range(5):
            x, y = tuple(rng.uniform(-1, 1, size=2)), tuple(rng.uniform(-1, 1, size=2))
            beta, dev = wh.central_phase_deviation(x, y, vec, ctx)
            ref_beta, ref_dev = _four_build_commutator(x, y, vec, ctx)
            assert beta == ref_beta and dev == ref_dev


def test_admissibility_integral_phase_invariant(ctx24, grid_ref, eta24):
    base = wh.autocorrelation_integrand(eta24.vector, grid_ref, ctx24)
    rotated = wh.autocorrelation_integrand(np.exp(0.7j) * eta24.vector, grid_ref, ctx24)
    assert np.max(np.abs(base - rotated)) < 1e-14


# ---------------------------------------------------------------------------
# coherent family stored on the grid
# ---------------------------------------------------------------------------


def _family_reference(vec, grid, n_dim):
    """Rows D(alpha_k) vec from the closed-form matrix elements, no storage."""
    idx = np.arange(n_dim)
    elems = wh._displacement_elements(grid.alpha[:, None, None], idx[None, :, None], idx[None, None, :])
    return elems @ vec


def test_repeat_family_call_returns_the_stored_read_only_array(ctx24):
    grid = wh.build_grid(5.0, 0.4)
    eta = wh.resolution_generator("fock", ctx24, n=2)
    first = wh.coherent_family(eta, grid, ctx24)
    again = wh.coherent_family(eta.vector.copy(), grid, ctx24)
    assert again is first
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 0.0


def test_blocked_family_equals_the_whole_grid_sum():
    # 6842 rows in blocks of 341 for N = 24, the last one partial; the
    # reference adds the same terms in the same order over the whole grid
    grid = wh.build_grid(7.0, 0.15)
    ctx = wh.fock_space(24)
    vec = random_low_block(np.random.default_rng(4), 24)
    expected = np.zeros((len(grid), 24), dtype=complex)
    for n0 in range(9):
        expected += vec[n0] * wh._displacement_elements(grid.alpha[:, None], np.arange(24)[None, :], n0)
    assert np.array_equal(wh.coherent_family(vec, grid, ctx), expected)


def test_family_follows_a_new_generator_or_dimension():
    grid = wh.build_grid(5.0, 0.4)
    rng = np.random.default_rng(3)
    for n_dim in (12, 16, 12):
        ctx = wh.fock_space(n_dim)
        for vec in (wh.resolution_generator("ground", ctx).vector, random_low_block(rng, n_dim, 5)):
            fam = wh.coherent_family(vec, grid, ctx)
            assert fam.shape == (len(grid), n_dim)
            assert np.max(np.abs(fam - _family_reference(vec, grid, n_dim))) < 1e-14


def _per_column_sum(vec, grid, n_dim):
    """The support columns of the closed form summed in order over the whole grid."""
    expected = np.zeros((len(grid), n_dim), dtype=complex)
    for n0 in np.nonzero(np.abs(vec) > 0)[0]:
        expected += vec[n0] * wh._displacement_elements(grid.alpha[:, None], np.arange(n_dim)[None, :], n0)
    return expected


def _exactness_generator(name, ctx):
    if name == "ground":
        return wh.resolution_generator("ground", ctx).vector
    if name == "fock:3":
        return wh.resolution_generator("fock", ctx, n=3).vector
    if name.startswith("squeezed:"):
        return wh.resolution_generator("squeezed", ctx, r=float(name.split(":")[1])).vector
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
    # a radial budget of `columns` tables splits the support into chunks, the last one partial
    grid = wh.build_grid(5.0, 0.18)
    ctx = wh.fock_space(24)
    distinct = np.unique(np.abs(grid.alpha) ** 2).size
    monkeypatch.setattr(wh, "_RADIAL_BYTES", columns * 8 * distinct * 24)
    vec = _exactness_generator(name, ctx)
    assert np.array_equal(wh.coherent_family(vec, grid, ctx), _per_column_sum(vec, grid, 24))


def test_symbol_on_some_radii_quantizes_exactly_from_the_closed_form():
    from qps import localization as loc
    from qps.transform import weighted_gram

    grid = wh.build_grid(5.0, 0.18)
    ctx = wh.fock_space(24)
    vec = random_low_block(np.random.default_rng(9), 24)
    radius = np.hypot(grid.q, grid.p)
    symbol = np.where((radius > 2.0) & (radius <= 3.0), 0.5 + 0.1 * radius, 0.0)
    rows = np.flatnonzero(symbol)
    expected = weighted_gram(_per_column_sum(vec, grid, 24)[rows], grid.weights[rows] * symbol[rows])
    assert np.array_equal(loc.quantize(symbol, vec, grid, ctx), expected)

"""Husimi densities, expectation equality, completeness ranks, reconstruction."""

import tracemalloc

import numpy as np
import pytest

from qps import tomography as tom
from qps import wh_model as wh

from conftest import random_low_block, tomography_rows


# ---------------------------------------------------------------------------
# density operators
# ---------------------------------------------------------------------------


def test_density_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        tom.DensityOperator(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="negative"):
        tom.DensityOperator(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="trace"):
        tom.DensityOperator(np.diag([0.7, 0.7]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_density_refuses_a_non_finite_entry(entry):
    # the later checks are comparisons, and a comparison with NaN is False
    with pytest.raises(ValueError, match="density operator has a NaN or infinite entry"):
        tom.DensityOperator(np.full((2, 2), entry))
    m = np.eye(3, dtype=complex) / 3
    m[1, 1] = entry
    with pytest.raises(ValueError, match="density operator has a NaN or infinite entry"):
        tom.DensityOperator(m)


def test_random_density_properties():
    rng = np.random.default_rng(0)
    rho = tom.random_density(rng, 5, rank=2)
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.sum(evals > 1e-12) == 2


# ---------------------------------------------------------------------------
# classical densities
# ---------------------------------------------------------------------------


def test_vacuum_density_is_gaussian(ctx24, grid_ref, eta24):
    rho = tom.DensityOperator.pure(np.eye(24)[0])
    dens = tom.classical_density(rho, eta24, grid_ref, ctx24)
    expected = np.exp(-np.abs(grid_ref.alpha) ** 2)
    assert np.max(np.abs(dens.values - expected)) < 1e-13


def test_one_photon_density_peaks_at_unit_amplitude(ctx24, grid_ref, eta24):
    rho = tom.DensityOperator.pure(np.eye(24)[1])
    dens = tom.classical_density(rho, eta24, grid_ref, ctx24)
    x = np.abs(grid_ref.alpha) ** 2
    assert np.max(np.abs(dens.values - x * np.exp(-x))) < 1e-13
    peak = np.argmax(dens.values)
    assert x[peak] == pytest.approx(1.0, abs=0.1)
    assert dens.values[peak] == pytest.approx(1 / np.e, abs=1e-3)


def test_fully_mixed_density_tracks_family_norms(ctx24, grid_ref, eta24):
    rho = tom.DensityOperator(np.eye(24) / 24)
    dens = tom.classical_density(rho, eta24, grid_ref, ctx24)
    fam = wh.coherent_family(eta24, grid_ref, ctx24)
    expected = np.sum(np.abs(fam) ** 2, axis=1) / 24
    assert np.max(np.abs(dens.values - expected)) < 1e-13


def _low_block_density(rng, n_dim, top=8, rank=4):
    """Random state supported where the frame operator is near the identity."""
    small = tom.random_density(rng, top + 1, rank=rank)
    m = np.zeros((n_dim, n_dim), dtype=complex)
    m[: top + 1, : top + 1] = small.matrix
    return tom.DensityOperator(m)


def test_density_nonnegative_and_normalized(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(1)
    rho = _low_block_density(rng, 24)
    dens = tom.classical_density(rho, eta24, grid_ref, ctx24)
    assert dens.values.min() >= -1e-12
    assert np.sum(grid_ref.weights * dens.values) == pytest.approx(1.0, abs=1e-3)


def test_density_affine_in_the_state(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(2)
    rho1 = tom.random_density(rng, 24, rank=2)
    rho2 = tom.random_density(rng, 24, rank=2)
    mix = tom.DensityOperator(0.3 * rho1.matrix + 0.7 * rho2.matrix)
    d_mix = tom.classical_density(mix, eta24, grid_ref, ctx24).values
    d_sum = (
        0.3 * tom.classical_density(rho1, eta24, grid_ref, ctx24).values
        + 0.7 * tom.classical_density(rho2, eta24, grid_ref, ctx24).values
    )
    assert np.max(np.abs(d_mix - d_sum)) < 1e-13


def _real_form(a):
    """The 2N x 2N real matrix that acts on float views (Re z0, Im z0, Re z1, ...) as ``a`` acts on z."""
    m = np.empty((2 * len(a),) * 2)
    m[0::2, 0::2] = m[1::2, 1::2] = a.real
    m[1::2, 0::2] = a.imag
    m[0::2, 1::2] = -a.imag
    return m


@pytest.mark.parametrize("n_dim", [4, 8, 16])
def test_density_matches_the_whole_grid_product_bit_for_bit(n_dim):
    # K = 6,828 rows in blocks of 2**17 / (16 N) rows: the last block is partial
    grid = wh.build_grid(7.0, 0.15)
    assert len(grid) % (2**17 // (16 * n_dim))
    ctx = wh.fock_space(n_dim)
    rng = np.random.default_rng(n_dim)
    eta = random_low_block(rng, n_dim, top=n_dim - 1)
    rho = tom.random_density(rng, n_dim)
    v = wh.coherent_family(eta, grid, ctx).view(float)
    expected = np.einsum("ki,ki->k", v @ _real_form(rho.matrix), v)
    assert np.array_equal(tom.classical_density(rho, eta, grid, ctx).values, expected)


@pytest.mark.parametrize("n_dim", [2, 4, 8, 16, 32])
def test_density_matches_the_per_row_sum_in_extended_precision(n_dim):
    grid = wh.build_grid(6.0, 0.4)  # K = 716
    ctx = wh.fock_space(n_dim)
    rng = np.random.default_rng(n_dim)
    eta = random_low_block(rng, n_dim, top=min(n_dim - 1, 8))
    rho = tom.random_density(rng, n_dim)
    fam = wh.coherent_family(eta, grid, ctx)
    u = fam.astype(np.clongdouble)
    exact = np.einsum("km,mn,kn->k", u.conj(), rho.matrix.astype(np.clongdouble), u)
    # every term of row k is at most |u_km| |rho_mn| |u_kn|
    scale = np.einsum("km,mn,kn->k", np.abs(fam), np.abs(rho.matrix), np.abs(fam))
    values = tom.classical_density(rho, eta, grid, ctx).values
    assert np.all(np.abs(values - exact.real) <= 1e-14 * scale)


# ---------------------------------------------------------------------------
# expectation equality
# ---------------------------------------------------------------------------


def test_constant_symbol_expectation_is_frame_average(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(3)
    rho = _low_block_density(rng, 24, rank=3)
    quantum, classical = tom.expectation_pair(
        rho, np.ones(len(grid_ref)), eta24, grid_ref, ctx24
    )
    assert quantum == pytest.approx(classical, abs=1e-12)
    assert quantum == pytest.approx(1.0, abs=1e-2)


def test_vacuum_position_expectation_vanishes(ctx24, grid_ref, eta24):
    rho = tom.DensityOperator.pure(np.eye(24)[0])
    quantum, classical = tom.expectation_pair(rho, lambda q, p: q, eta24, grid_ref, ctx24)
    assert abs(quantum) < 1e-10
    assert abs(classical) < 1e-10


def test_vacuum_energy_symbol_expectation(ctx24, grid_ref, eta24):
    rho = tom.DensityOperator.pure(np.eye(24)[0])
    quantum, classical = tom.expectation_pair(
        rho, lambda q, p: q**2 + p**2, eta24, grid_ref, ctx24
    )
    assert quantum == pytest.approx(2.0, abs=1e-2)
    assert classical == pytest.approx(2.0, abs=1e-2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expectation_of_a_non_finite_symbol_is_refused(ctx24, grid_ref, eta24, bad):
    # it used to return (nan, nan), or (nan, inf) for an infinity, with RuntimeWarnings only
    rho = tom.DensityOperator.pure(np.eye(24)[0])
    vals = np.ones(len(grid_ref))
    vals[100] = bad
    with pytest.raises(ValueError, match="at grid point 100,"):
        tom.expectation_pair(rho, vals, eta24, grid_ref, ctx24)


def test_expectations_equal_for_random_states_and_symbols(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(4)
    symbols = [
        lambda q, p: q,
        lambda q, p: p,
        lambda q, p: q * p,
        lambda q, p: np.exp(-(q**2)),
    ]
    for _ in range(5):
        rho = tom.random_density(rng, 24, rank=3)
        for f in symbols:
            quantum, classical = tom.expectation_pair(rho, f, eta24, grid_ref, ctx24)
            assert abs(quantum - classical) <= 1e-10 * (1 + abs(quantum))


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------


def test_hermitian_vectorization_round_trip():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = g + g.conj().T
    v = tom.vectorize_hermitian(h)
    assert v.shape == (25,)
    assert np.max(np.abs(tom.unvectorize_hermitian(v, 5) - h)) < 1e-14


def test_vectorization_preserves_frobenius_inner_product():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a, b = a + a.conj().T, b + b.conj().T
    frob = np.trace(a @ b).real
    assert np.dot(tom.vectorize_hermitian(a), tom.vectorize_hermitian(b)) == pytest.approx(
        frob, rel=1e-12
    )


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------


def test_coherent_family_is_informationally_complete(ctx4, grid4, eta4):
    report = tom.completeness_rank(eta4, grid4, ctx4)
    assert report.complete
    assert report.gram_rank == 16
    assert report.gap_ratio >= 1e6
    # no singular value is discarded, so the gap ratio is infinite; the
    # completeness margin is the condition number of the rows (20.5 here)
    assert report.singular_values[0] / report.smallest_kept_singular_value <= 1e3


@pytest.mark.parametrize("n_dim", [8, 12, 16])
def test_family_rows_match_the_unblocked_products_bit_for_bit(n_dim):
    # K = 716 rows in blocks of 2**17 / (8 N^2) rows: the last block is partial
    grid = wh.build_grid(6.0, 0.4)
    assert len(grid) % (2**17 // (8 * n_dim**2))
    ctx = wh.fock_space(n_dim)
    eta = random_low_block(np.random.default_rng(n_dim), n_dim, top=n_dim - 1)
    fam = wh.coherent_family(eta, grid, ctx)
    iu, ju = np.triu_indices(n_dim, k=1)
    # named operands: numpy may evaluate a product of two large temporaries in
    # place as ju-factor * iu-factor, whose imaginary parts round differently
    left, right = fam[:, iu], fam[:, ju].conj()
    cross = left * right
    expected = np.concatenate([np.abs(fam) ** 2, wh.SQRT2 * cross.real, wh.SQRT2 * cross.imag], axis=1)
    assert np.array_equal(tomography_rows(eta, grid, ctx), expected)


def test_position_projectors_are_incomplete():
    projectors = [np.diag((np.arange(4) == i).astype(complex)) for i in range(4)]
    report = tom.operator_family_rank(projectors)
    assert not report.complete
    assert report.gram_rank == 4


def test_identity_alone_has_rank_one():
    report = tom.operator_family_rank([np.eye(4, dtype=complex)])
    assert report.gram_rank == 1


def test_gap_ratio_is_the_smallest_kept_over_the_largest_discarded_singular_value():
    # kept singular values 4, 3, 2, 1, all distinct, and one discarded at 1.4e-12
    tiny = np.zeros((4, 4), dtype=complex)
    tiny[0, 1] = tiny[1, 0] = 1e-12
    operators = [w * np.diag((np.arange(4) == i).astype(complex)) for i, w in enumerate((1.0, 2.0, 3.0, 4.0))]
    report = tom.operator_family_rank([*operators, tiny])
    s, rank = report.singular_values, report.gram_rank
    assert rank == 4 and len(s) == 5 and s[rank - 2] > s[rank - 1]
    assert report.gap_ratio == s[rank - 1] / s[rank]


def test_too_few_grid_points_rejected(ctx4, eta4):
    tiny = wh.build_grid(1.0, 0.5)
    with pytest.raises(ValueError, match="points"):
        tom.completeness_rank(eta4, tiny, ctx4)


def test_state_pairs_distinguished_with_margin(ctx4, grid4, eta4):
    report = tom.completeness_rank(eta4, grid4, ctx4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho1 = tom.random_density(rng, 4)
        rho2 = tom.random_density(rng, 4)
        diff = np.linalg.norm(rho1.matrix - rho2.matrix)
        d1 = tom.classical_density(rho1, eta4, grid4, ctx4).values
        d2 = tom.classical_density(rho2, eta4, grid4, ctx4).values
        floor = report.smallest_kept_singular_value * diff / np.sqrt(len(grid4)) / 10
        assert np.max(np.abs(d1 - d2)) > floor


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_round_trip_pure_vacuum(ctx4, grid4, eta4):
    rho = tom.DensityOperator.pure(np.eye(4)[0])
    probs = tom.classical_density(rho, eta4, grid4, ctx4).values
    result = tom.reconstruct_state(probs, eta4, grid4, ctx4)
    assert np.linalg.norm(result.rho.matrix - rho.matrix) <= 1e-6
    assert result.residual <= 1e-6


def test_round_trip_random_rank_two(ctx4, grid4, eta4):
    rng = np.random.default_rng(8)
    rho = tom.random_density(rng, 4, rank=2)
    probs = tom.classical_density(rho, eta4, grid4, ctx4).values
    result = tom.reconstruct_state(probs, eta4, grid4, ctx4)
    assert np.linalg.norm(result.rho.matrix - rho.matrix) <= 1e-6


def test_round_trip_fully_mixed(ctx4, grid4, eta4):
    rho = tom.DensityOperator(np.eye(4) / 4)
    probs = tom.classical_density(rho, eta4, grid4, ctx4).values
    result = tom.reconstruct_state(probs, eta4, grid4, ctx4)
    assert np.linalg.norm(result.rho.matrix - rho.matrix) <= 1e-6


def test_round_trip_larger_dimension(grid_ref):
    ctx6 = wh.fock_space(6)
    eta6 = wh.resolution_generator("ground", ctx6)
    rng = np.random.default_rng(9)
    rho = tom.random_density(rng, 6)
    probs = tom.classical_density(rho, eta6, grid_ref, ctx6).values
    result = tom.reconstruct_state(probs, eta6, grid_ref, ctx6)
    assert np.linalg.norm(result.rho.matrix - rho.matrix) <= 1e-6


def test_incomplete_family_rejected(ctx4, eta4, monkeypatch):
    # a grid confined to a small patch produces nearly coincident
    # densities: numerically rank-deficient, reconstruction refuses
    # before any solve
    def no_solve(*args, **kwargs):
        raise AssertionError("a rank-deficient family reached a solve")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    monkeypatch.setattr(np.linalg, "lstsq", no_solve)
    crowded = wh.build_grid(0.05, 0.002)
    with pytest.raises(tom.IncompleteFamilyError):
        tom.reconstruct_state(np.zeros(len(crowded)), eta4, crowded, ctx4)


# the roundtrips tomography grid, K = 716
@pytest.fixture(scope="module")
def grid716():
    return wh.build_grid(6.0, 0.4)


def _svd_lstsq_estimate(probs, eta, grid, ctx):
    """Unit-trace least squares by lstsq (SVD) on rows @ Q, no repair: the oracle."""
    rows = tomography_rows(eta, grid, ctx)
    n = ctx.n_dim
    trace_row = tom.vectorize_hermitian(np.eye(n))
    x0 = trace_row / n
    traceless = np.linalg.svd(trace_row[None, :])[2][1:].T
    y = np.linalg.lstsq(rows @ traceless, probs - rows @ x0, rcond=None)[0]
    return tom.unvectorize_hermitian(x0 + traceless @ y, n)


def _generator(name, ctx):
    """A CLI generator by name, which splits the solve, or ``complex``: a seeded complex
    vector on every level, which does not."""
    if name == "complex":
        return random_low_block(np.random.default_rng(ctx.n_dim), ctx.n_dim, top=ctx.n_dim - 1)
    kind = name.partition(":")[0]
    return wh.resolution_generator(kind, ctx, **{"fock": {"n": 3}, "squeezed": {"r": 0.5}}.get(kind, {}))


# every N for each generator; the ground cases keep the ids they had before the generator axis
GENERATOR_CASES = [
    pytest.param(n_dim, name, id=str(n_dim) if name == "ground" else f"{name}-{n_dim}")
    for name in ("ground", "fock:3", "squeezed:0.5", "complex") for n_dim in (4, 8, 12, 16)
]


def _svd_of_rows(eta, grid, ctx):
    """(singular values, rank) of the K x N^2 rows themselves: the reference rank report."""
    svals = np.linalg.svd(tomography_rows(eta, grid, ctx), compute_uv=False)
    return svals, int(np.sum(svals > tom.SVD_CUTOFF * svals[0]))


@pytest.mark.parametrize("n_dim,generator", GENERATOR_CASES)
def test_rank_report_matches_the_svd_of_the_rows(grid716, n_dim, generator):
    # the QR triangles are orthogonal rotations of the rows, or of the four blocks
    # that the reflections split them into, whose singular values are those of the rows
    ctx = wh.fock_space(n_dim)
    eta = _generator(generator, ctx)
    rho = tom.random_density(np.random.default_rng(n_dim), n_dim)
    probs = tom.classical_density(rho, eta, grid716, ctx).values
    report = tom.reconstruct_state(probs, eta, grid716, ctx).completeness
    svals, rank = _svd_of_rows(eta, grid716, ctx)
    assert np.max(np.abs(report.singular_values - svals)) <= 1e-13 * svals[0]
    assert report.gram_rank == rank == n_dim**2
    assert report.complete
    # completeness_rank is the report of the same factorization on zero probabilities; a
    # zero right-hand side moves the QR's last bits, since LAPACK skips trailing zero columns
    alone = tom.completeness_rank(eta, grid716, ctx)
    assert np.max(np.abs(alone.singular_values - report.singular_values)) <= 2e-15 * svals[0]
    assert (alone.gram_rank, alone.complete) == (report.gram_rank, True)


@pytest.mark.parametrize(
    "n_dim,generator,radius,spacing,expected",
    [pytest.param(*case.values, 6.0, 0.4, case.values[0] ** 2, id=case.id) for case in GENERATOR_CASES]
    + [pytest.param(4, "ground", 0.05, 0.002, 15, id="crowded-ground"),
       pytest.param(4, "squeezed:0.5", 0.05, 0.002, 16, id="crowded-squeezed:0.5")],
)
def test_completeness_rank_matches_the_svd_of_the_rows(n_dim, generator, radius, spacing, expected):
    # on the crowded grid (K 1,976 in a disk of radius 0.05) ground loses one dimension
    grid, ctx = wh.build_grid(radius, spacing), wh.fock_space(n_dim)
    eta = _generator(generator, ctx)
    report = tom.completeness_rank(eta, grid, ctx)
    svals, rank = _svd_of_rows(eta, grid, ctx)
    assert np.max(np.abs(report.singular_values - svals)) <= 1e-13 * svals[0]
    assert report.gram_rank == rank == expected
    assert report.complete == (expected == n_dim**2)


def test_completeness_rank_holds_less_than_the_rows(grid716):
    # N = 16, ground, family stored: the four K/4-row blocks and their QR copies, one at a
    # time; the K x N^2 row matrix it used to form, and its SVD, took 1.43 x its bytes
    ctx = wh.fock_space(16)
    eta = wh.resolution_generator("ground", ctx)
    tom.completeness_rank(eta, grid716, ctx)
    tracemalloc.start()
    try:
        tom.completeness_rank(eta, grid716, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_bytes = len(grid716) * 16**2 * 8
    assert peak <= 1.0 * rows_bytes, f"peak {peak / rows_bytes:.2f} x K x N^2 x 8 bytes"


@pytest.mark.parametrize("n_dim,generator", GENERATOR_CASES)
def test_reconstruction_error_within_twice_the_svd_oracle(grid716, n_dim, generator):
    # at N = 4 and 8 both errors sit at the rounding floor, where single
    # states scatter by a factor of about 2 either way; the worst of ten
    # states is compared
    ctx = wh.fock_space(n_dim)
    eta = _generator(generator, ctx)
    rng = np.random.default_rng(100 + n_dim)
    errors, oracle_errors = [], []
    for _ in range(10):
        rho = tom.random_density(rng, n_dim)
        probs = tom.classical_density(rho, eta, grid716, ctx).values
        result = tom.reconstruct_state(probs, eta, grid716, ctx)
        errors.append(np.linalg.norm(result.rho.matrix - rho.matrix))
        oracle_errors.append(np.linalg.norm(_svd_lstsq_estimate(probs, eta, grid716, ctx) - rho.matrix))
    assert max(errors) <= 2 * max(oracle_errors)


def test_reconstruction_holds_two_system_buffers(grid716):
    # N = 16, family stored: the four blocks of the K x (N^2 + 1) system, each factored
    # in place, the K x N diagonal block, R and row-block temporaries; no third K x N^2 buffer
    ctx = wh.fock_space(16)
    eta = wh.resolution_generator("ground", ctx)
    rho = tom.random_density(np.random.default_rng(17), 16)
    probs = tom.classical_density(rho, eta, grid716, ctx).values
    tom.reconstruct_state(probs, eta, grid716, ctx)
    tracemalloc.start()
    try:
        tom.reconstruct_state(probs, eta, grid716, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_bytes = len(grid716) * 16**2 * 8
    assert peak <= 2.75 * rows_bytes, f"peak {peak / rows_bytes:.2f} x K x N^2 x 8 bytes"


@pytest.mark.parametrize("call", ["reconstruct_state", "completeness_rank"])
def test_one_block_system_is_factored_in_place(grid716, call):
    # N = 16, complex generator (one block), family stored: the K x (N^2 + 1) system, which
    # dgeqrf overwrites with its QR, the K x N diagonal block and row-block temporaries;
    # np.linalg.qr's copy of the system took the peak to 2.55 x K x N^2 x 8 bytes
    ctx = wh.fock_space(16)
    eta = _generator("complex", ctx)
    probs = tom.classical_density(tom.random_density(np.random.default_rng(17), 16), eta, grid716, ctx).values
    run = {"reconstruct_state": lambda: tom.reconstruct_state(probs, eta, grid716, ctx),
           "completeness_rank": lambda: tom.completeness_rank(eta, grid716, ctx)}[call]
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_bytes = len(grid716) * 16**2 * 8
    assert peak <= 1.7 * rows_bytes, f"peak {peak / rows_bytes:.2f} x K x N^2 x 8 bytes"


def test_inconsistent_input_flagged_by_residual(ctx4, grid4, eta4):
    rho = tom.DensityOperator.pure(np.eye(4)[0])
    probs = -tom.classical_density(rho, eta4, grid4, ctx4).values
    result = tom.reconstruct_state(probs, eta4, grid4, ctx4)
    assert result.residual > 1.0
    # the repaired estimate is still a valid state
    evals = np.linalg.eigvalsh(result.rho.matrix)
    assert evals[0] >= -1e-12
    assert evals.sum() == pytest.approx(1.0, abs=1e-9)


def test_probability_length_validation(ctx4, grid4, eta4):
    with pytest.raises(ValueError, match="per grid point"):
        tom.reconstruct_state(np.zeros(3), eta4, grid4, ctx4)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_probability_names_the_first_grid_point(ctx4, grid4, eta4, bad):
    # it used to leak LinAlgError "Eigenvalues did not converge" out of the repair's eigh
    probs = tom.classical_density(tom.DensityOperator(np.eye(4) / 4), eta4, grid4, ctx4).values
    probs[[30, 200]] = bad
    with pytest.raises(ValueError) as refused:
        tom.reconstruct_state(probs, eta4, grid4, ctx4)
    assert str(refused.value) == f"probability is {bad} at grid point 30; it must be finite everywhere"

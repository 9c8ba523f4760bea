"""Transform, frame inversion, grid translations, orthogonality relation."""

import numpy as np
import pytest

from qps import effect_algebra as ea
from qps import localization as loc
from qps import transform as tr
from qps import wh_model as wh

from conftest import quadratures, random_low_block


# ---------------------------------------------------------------------------
# w_transform
# ---------------------------------------------------------------------------


def test_transform_of_vacuum_matches_coherent_overlap(ctx24, grid_ref, eta24):
    samples = tr.w_transform(eta24, grid_ref, eta24, ctx24)
    expected = np.exp(-np.abs(grid_ref.alpha) ** 2 / 2)
    # <D(alpha) 0, 0> is real positive for the vacuum pair
    assert np.max(np.abs(samples.values - expected)) < 1e-13


def test_transform_kernel_at_origin(ctx24, eta24):
    # the kernel value at the untranslated point is <eta, eta> = 1
    val = np.vdot(wh.displacement(0.0, ctx24) @ eta24, eta24)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_transform_kernel_at_unit_amplitude(ctx24, eta24):
    val = np.vdot(wh.displacement(1.0, ctx24) @ eta24, eta24)
    assert abs(val) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_transform_of_zero_state(ctx24, grid_ref, eta24):
    samples = tr.w_transform(eta24, grid_ref, np.zeros(24), ctx24)
    assert np.all(samples.values == 0)


def test_transform_linear_in_state_antilinear_in_generator(ctx24, grid_ref):
    rng = np.random.default_rng(0)
    eta = random_low_block(rng, 24)
    phi, psi = random_low_block(rng, 24), random_low_block(rng, 24)
    a, b = 0.7 - 0.2j, 1.1 + 0.4j
    combo = tr.w_transform(eta, grid_ref, a * phi + b * psi, ctx24).values
    parts = a * tr.w_transform(eta, grid_ref, phi, ctx24).values + b * tr.w_transform(
        eta, grid_ref, psi, ctx24
    ).values
    assert np.max(np.abs(combo - parts)) < 1e-12
    scaled = tr.w_transform(a * eta, grid_ref, phi, ctx24).values
    assert np.max(np.abs(scaled - np.conj(a) * tr.w_transform(eta, grid_ref, phi, ctx24).values)) < 1e-12


def test_dimension_mismatch_rejected(ctx24, grid_ref, eta24):
    with pytest.raises(ValueError):
        tr.w_transform(eta24, grid_ref, np.zeros(10), ctx24)


# ---------------------------------------------------------------------------
# frame operator
# ---------------------------------------------------------------------------


def test_frame_operator_close_to_identity_on_low_block(ctx24, grid_ref, eta24):
    s = wh.frame_operator(eta24, grid_ref, ctx24)
    blk = slice(0, 9)
    assert np.linalg.norm(s[blk, blk] - np.eye(9), ord=2) <= 1e-3


def test_frame_tightness_quadratic_form(ctx24, grid_ref, eta24):
    s = wh.frame_operator(eta24, grid_ref, ctx24)
    rng = np.random.default_rng(1)
    for _ in range(25):
        phi = random_low_block(rng, 24)
        val = np.vdot(phi, s @ phi).real
        assert 1 - 1e-3 <= val <= 1 + 1e-3


def test_transform_norm_equals_frame_quadratic_form(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(2)
    phi = random_low_block(rng, 24)
    samples = tr.w_transform(eta24, grid_ref, phi, ctx24)
    s = wh.frame_operator(eta24, grid_ref, ctx24)
    assert samples.weighted_norm_sq() == pytest.approx(np.vdot(phi, s @ phi).real, abs=1e-12)


def test_frame_operator_is_formed_once_per_stored_family(monkeypatch):
    grams = []
    gram = wh.weighted_gram
    monkeypatch.setattr(wh, "weighted_gram", lambda *args: grams.append(args) or gram(*args))
    grid = wh.build_grid(5.0, 0.4)
    ctx = wh.fock_space(12)
    eta = wh.resolution_generator("ground", ctx)
    s = wh.frame_operator(eta, grid, ctx)
    assert not s.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s[0, 0] = 0.0
    # the frame solve and the POVM check read the stored S
    tr.reconstruct(eta, grid, tr.w_transform(eta, grid, eta, ctx), ctx)
    upper = loc.RegionSpec.from_mask(grid.p > 0, label="upper")
    lower = loc.RegionSpec.from_mask(grid.p < 0, label="lower")
    assert ea.povm_check([upper, lower], eta, grid, ctx).additivity_error <= 1e-12
    assert wh.frame_operator(eta.copy(), grid, ctx) is s and len(grams) == 1
    # a new generator or a new N forms it again; the store keeps only the latest family
    fock = wh.resolution_generator("fock", ctx, n=1)
    assert not np.array_equal(wh.frame_operator(fock, grid, ctx), s) and len(grams) == 2
    ctx16 = wh.fock_space(16)
    assert wh.frame_operator(wh.resolution_generator("ground", ctx16), grid, ctx16).shape == (16, 16)
    again = wh.frame_operator(eta, grid, ctx)
    assert len(grams) == 4 and again is not s and np.array_equal(again, s)


def test_undersized_grid_gives_small_frame(ctx24, eta24):
    tiny = wh.build_grid(0.5, 0.05)
    s = wh.frame_operator(eta24, tiny, ctx24)
    assert np.linalg.norm(s, ord=2) < 0.2


def test_frame_nearly_commutes_with_number_operator(ctx24, grid_ref, eta24):
    # the disk grid is rotation-symmetric up to the lattice anisotropy,
    # which only becomes visible toward the truncation edge
    s = wh.frame_operator(eta24, grid_ref, ctx24)
    a, ad, _, _ = quadratures(24)
    number = ad @ a
    comm = s @ number - number @ s
    blk = wh.low_block(ctx24)
    assert np.linalg.norm(comm[blk, blk], ord=2) < 5e-3


# ---------------------------------------------------------------------------
# weighted Gram product
# ---------------------------------------------------------------------------


def _per_row_gram(fam, weights):
    """sum_k w_k u_k u_k^H, one row at a time, accumulated in extended precision."""
    out = np.zeros((fam.shape[1],) * 2, dtype=np.clongdouble)
    for u, w in zip(fam.astype(np.clongdouble), np.asarray(weights, dtype=np.longdouble)):
        out += w * np.outer(u, u.conj())
    return out


def _gram_weights(kind, rng, n_rows):
    return {
        "grid": np.full(n_rows, 0.4**2 / (2 * np.pi)),
        "signed": rng.normal(size=n_rows),
        "zero": np.zeros(n_rows),
        "negative": -rng.uniform(0.1, 2.0, size=n_rows),
    }[kind]


@pytest.mark.parametrize("kind", ["grid", "signed", "zero", "negative"])
@pytest.mark.parametrize("n_dim", [2, 3, 8, 17, 32])
@pytest.mark.parametrize("rows", ["all", "strided", "one"])
def test_weighted_gram_matches_the_per_row_sum(kind, n_dim, rows):
    rng = np.random.default_rng(n_dim)
    grid = wh.build_grid(6.0, 0.4)  # K = 716
    ctx = wh.fock_space(n_dim)
    fam = wh.coherent_family(random_low_block(rng, n_dim, top=min(n_dim - 1, 8)), grid, ctx)
    fam = {"all": fam, "strided": fam[::3], "one": fam[200:201]}[rows]
    weights = _gram_weights(kind, rng, len(fam))
    gram = wh.weighted_gram(fam, weights)
    # every |G_mn| is at most max_m sum_k |w_k| |u_km|^2
    scale = float(np.max(np.abs(weights) @ np.abs(fam) ** 2))
    assert np.max(np.abs(gram - _per_row_gram(fam, weights))) <= 1e-14 * scale
    assert kind != "zero" or not gram.any()


@pytest.mark.parametrize("kind", ["grid", "signed", "negative"])
def test_weighted_gram_is_exactly_hermitian_with_a_real_diagonal(kind):
    rng = np.random.default_rng(3)
    grid = wh.build_grid(6.0, 0.4)
    ctx = wh.fock_space(24)
    fam = wh.coherent_family(random_low_block(rng, 24), grid, ctx)
    gram = wh.weighted_gram(fam, _gram_weights(kind, rng, len(fam)))
    assert np.array_equal(gram, gram.conj().T)
    assert np.all(gram.diagonal().imag == 0)


# ---------------------------------------------------------------------------
# reconstruct / projection
# ---------------------------------------------------------------------------


def test_reconstruct_ground_state(ctx24, grid_ref, eta24):
    samples = tr.w_transform(eta24, grid_ref, eta24, ctx24)
    recovered = tr.reconstruct(eta24, grid_ref, samples, ctx24)
    assert np.linalg.norm(recovered - eta24) <= 1e-6


def test_reconstruct_random_low_block_states(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi = random_low_block(rng, 24)
        samples = tr.w_transform(eta24, grid_ref, phi, ctx24)
        recovered = tr.reconstruct(eta24, grid_ref, samples, ctx24)
        assert np.linalg.norm(recovered - phi) / np.linalg.norm(phi) <= 1e-3


def test_reconstruct_zero(ctx24, grid_ref, eta24):
    samples = wh.GammaFunctionSamples(values=np.zeros(len(grid_ref), complex), grid=grid_ref)
    assert np.allclose(tr.reconstruct(eta24, grid_ref, samples, ctx24), 0)


def test_ill_conditioned_frame_rejected_with_advice(eta24):
    ctx = wh.fock_space(32)
    eta = wh.resolution_generator("ground", ctx)
    small = wh.build_grid(3.0, 0.1)
    samples = wh.GammaFunctionSamples(values=np.zeros(len(small), complex), grid=small)
    with pytest.raises(tr.FrameConditionError, match="radius"):
        tr.reconstruct(eta, small, samples, ctx)


def test_projection_fixes_transform_range(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(4)
    phi = random_low_block(rng, 24)
    f = tr.w_transform(eta24, grid_ref, phi, ctx24)
    pf = tr.projection_P(eta24, grid_ref, f, ctx24)
    rel = np.linalg.norm(pf.values - f.values) / np.linalg.norm(f.values)
    assert rel <= 1e-6


def test_projection_idempotent_and_contractive(ctx24, grid_ref, eta24):
    point_mass = np.zeros(len(grid_ref), complex)
    point_mass[len(grid_ref) // 3] = 1.0
    f = wh.GammaFunctionSamples(values=point_mass, grid=grid_ref)
    pf = tr.projection_P(eta24, grid_ref, f, ctx24)
    ppf = tr.projection_P(eta24, grid_ref, pf, ctx24)
    assert np.max(np.abs(ppf.values - pf.values)) <= 1e-6
    assert pf.weighted_norm_sq() <= f.weighted_norm_sq() * (1 + 1e-12)


# ---------------------------------------------------------------------------
# v_action
# ---------------------------------------------------------------------------


def _sampled(ctx, grid, eta, seed=5):
    rng = np.random.default_rng(seed)
    phi = random_low_block(rng, ctx.n_dim)
    return tr.w_transform(eta, grid, phi, ctx)


def test_v_action_identity(ctx24, grid_ref, eta24):
    f = _sampled(ctx24, grid_ref, eta24)
    vf = tr.v_action((0.0, 0.0), f)
    assert np.array_equal(vf.values, f.values)


def test_v_action_composition_on_interior(ctx24, grid_ref, eta24):
    f = _sampled(ctx24, grid_ref, eta24)
    s = grid_ref.spacing
    twice = tr.v_action((s, 0.0), tr.v_action((s, 0.0), f))
    once = tr.v_action((2 * s, 0.0), f)
    interior = np.hypot(grid_ref.q, grid_ref.p) < grid_ref.radius - 3 * s
    assert np.max(np.abs(twice.values[interior] - once.values[interior])) == 0.0


def test_v_action_norm_loss_equals_exiting_mass(ctx24, grid_ref, eta24):
    f = _sampled(ctx24, grid_ref, eta24)
    g = (2 * grid_ref.spacing, -3 * grid_ref.spacing)
    vf = tr.v_action(g, f)
    lost = 0.0
    s = grid_ref.spacing
    for k, (q, p) in enumerate(grid_ref.points.tolist()):
        if grid_ref.indices(round(q / s - 0.5) + 2, round(p / s - 0.5) - 3) < 0:
            lost += grid_ref.weights[k] * abs(f.values[k]) ** 2
    assert f.weighted_norm_sq() - vf.weighted_norm_sq() == pytest.approx(lost, abs=1e-12)


def test_v_action_rejects_off_lattice_translation(ctx24, grid_ref, eta24):
    f = _sampled(ctx24, grid_ref, eta24)
    with pytest.raises(ValueError, match="spacing"):
        tr.v_action((0.4 * grid_ref.spacing, 0.0), f)


@pytest.mark.parametrize(
    "g",
    [(np.inf, 0.0), (0.0, -np.inf), (np.nan, 0.0), (0.15, 0.15, 0.15)],
    ids=["inf", "minus-inf", "nan", "three-components"],
)
def test_v_action_rejects_a_translation_that_is_not_two_finite_numbers(ctx24, grid_ref, eta24, g):
    # an infinite component used to raise OverflowError, and a NaN one named no translation
    f = _sampled(ctx24, grid_ref, eta24)
    with pytest.raises(ValueError, match="translation"):
        tr.v_action(g, f)


# ---------------------------------------------------------------------------
# orthogonality relation
# ---------------------------------------------------------------------------


def test_orthogonality_ground_quadruple(ctx24, grid_ref, eta24):
    rep = tr.orthogonality_check(eta24, eta24, eta24, eta24, grid_ref, ctx24)
    assert rep.lhs.real == pytest.approx(1.0, abs=1e-3)
    assert rep.rhs.real == pytest.approx(1.0, abs=1e-3)
    assert rep.d_used == pytest.approx(1.0, abs=1e-3)
    assert rep.relative_error <= 1e-3


def test_orthogonality_vanishes_for_orthogonal_states(ctx24, grid_ref, eta24):
    f0 = np.eye(24)[0].astype(complex)
    f1 = np.eye(24)[1].astype(complex)
    rep = tr.orthogonality_check(eta24, eta24, f0, f1, grid_ref, ctx24)
    assert abs(rep.lhs) <= 1e-3
    assert abs(rep.rhs) == 0.0


def test_orthogonality_sign_flip_in_generator(ctx24, grid_ref, eta24):
    rng = np.random.default_rng(6)
    phi1, phi2 = random_low_block(rng, 24), random_low_block(rng, 24)
    plus = tr.orthogonality_check(eta24, eta24, phi1, phi2, grid_ref, ctx24)
    minus = tr.orthogonality_check(eta24, -eta24, phi1, phi2, grid_ref, ctx24)
    assert minus.lhs == pytest.approx(-plus.lhs, abs=1e-15)
    assert minus.rhs == pytest.approx(-plus.rhs, abs=1e-15)


def test_orthogonality_relative_error_is_the_misfit_over_the_larger_side(ctx24, grid_ref, eta24):
    # both sides near 0.26: above the floor, and far enough from 1 that a product is not the quotient
    rng = np.random.default_rng(6)
    phi1, phi2 = random_low_block(rng, 24), random_low_block(rng, 24)
    rep = tr.orthogonality_check(eta24, eta24, phi1, phi2, grid_ref, ctx24)
    larger = max(abs(rep.lhs), abs(rep.rhs))
    assert tr.ORTHOGONALITY_EPS_FLOOR < larger < 0.5
    assert rep.relative_error == abs(rep.lhs - rep.rhs) / larger


@pytest.mark.parametrize(
    "kind,kwargs", [("ground", {}), ("fock", {"n": 3}), ("squeezed", {"r": 0.5})],
    ids=["ground", "fock:3", "squeezed:0.5"],
)
def test_orthogonality_constant_is_the_admissibility_constant(ctx24, grid_wide, kind, kwargs):
    eta = wh.resolution_generator(kind, ctx24, **kwargs)
    rng = np.random.default_rng(3)
    phi1, phi2 = random_low_block(rng, 24), random_low_block(rng, 24)
    rep = tr.orthogonality_check(eta, eta, phi1, phi2, grid_wide, ctx24)
    assert rep.d_used == wh.admissibility(eta, grid_wide, ctx24, trials=1).d_constant


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_every_reader_of_the_generator_refuses_a_non_finite_coefficient(ctx24, entry):
    # (NaN, 1, 0, ...) once built the family of |1>, as if the NaN were not there
    grid = wh.build_grid(6.0, 0.4)
    eta = np.zeros(24, dtype=complex)
    eta[:2] = entry, 1.0
    phi = wh.resolution_generator("ground", ctx24)
    calls = {
        "coherent_family": lambda: wh.coherent_family(eta, grid, ctx24),
        "displaced_overlaps": lambda: wh.displaced_overlaps(eta, phi, grid, ctx24),
        "frame_operator": lambda: wh.frame_operator(eta, grid, ctx24),
        "quantize": lambda: loc.quantize(np.ones(len(grid)), eta, grid, ctx24),
        "admissibility": lambda: wh.admissibility(eta, grid, ctx24),
        "w_transform": lambda: tr.w_transform(eta, grid, phi, ctx24),
        "orthogonality_check eta1": lambda: tr.orthogonality_check(eta, phi, phi, phi, grid, ctx24),
        "orthogonality_check eta2": lambda: tr.orthogonality_check(phi, eta, phi, phi, grid, ctx24),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == f"generator is {eta[0]} at level 0; it must be finite at every level", name
    assert grid._family.family is None


def test_transform_values_build_no_family(ctx24, monkeypatch):
    # functions on the grid are read off the displacement table: no family row is built
    calls = []
    fill_rows = wh._fill_rows

    def counted(*args):
        calls.append(args)
        return fill_rows(*args)

    monkeypatch.setattr(wh, "_fill_rows", counted)
    grid = wh.build_grid(13.0, 0.35)
    eta1 = wh.resolution_generator("fock", ctx24, n=1)
    eta2 = wh.resolution_generator("fock", ctx24, n=2)
    rng = np.random.default_rng(4)
    phi1, phi2 = random_low_block(rng, 24), random_low_block(rng, 24)
    tr.orthogonality_check(eta1, eta2, phi1, phi2, grid, ctx24)
    wh.admissibility(eta2, grid, ctx24)
    tr.w_transform(eta1, grid, phi1, ctx24)
    assert calls == [] and grid._family.family is None


def test_orthogonality_random_quadruples_on_adequate_grid(ctx24, grid_wide):
    rng = np.random.default_rng(7)
    for _ in range(20):
        eta1 = random_low_block(rng, 24)
        eta2 = random_low_block(rng, 24)
        phi1 = random_low_block(rng, 24)
        phi2 = random_low_block(rng, 24)
        rep = tr.orthogonality_check(eta1, eta2, phi1, phi2, grid_wide, ctx24)
        assert rep.relative_error <= 1e-3

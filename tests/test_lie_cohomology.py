"""Exact cohomology engine: hand-derived small cases, sympy rank oracle,
dense reference loops, closed forms, and randomized nilpotent-algebra
invariants."""

import json
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import lie_cohomology as lc
from qps import rational_linalg as rla

from conftest import in_span, mat_mul, mat_vec, primitive


def _sc(dim, entries, names=None):
    names = tuple(names or [f"e{i}" for i in range(dim)])
    c = {k: Fraction(v) for k, v in entries.items()}
    return lc.StructureConstants(dim=dim, names=names, c=c)


# ---------------------------------------------------------------------------
# dense reference loops: every index combination through bracket_coeff
# ---------------------------------------------------------------------------


def bracket_coeff(sc, i, j, k):
    """Coefficient of A_k in [A_i, A_j], any index order."""
    if i == j:
        return Fraction(0)
    if i < j:
        return Fraction(sc.c.get((i, j, k), 0))
    return -Fraction(sc.c.get((j, i, k), 0))


def bracket(sc, u, v):
    """Coordinates of [u, v] for rational coordinate vectors u, v."""
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    out = [Fraction(0)] * sc.dim
    for (i, j, k), cijk in sc.c.items():
        w = u[i] * v[j] - u[j] * v[i]
        if w != 0:
            out[k] += w * cijk
    return out


def _dense_jacobi(sc, max_violations):
    violations = []
    for i, j, k in combinations(range(sc.dim), 3):
        for l in range(sc.dim):
            total = Fraction(0)
            for m in range(sc.dim):
                total += bracket_coeff(sc, i, j, m) * bracket_coeff(sc, m, k, l)
                total += bracket_coeff(sc, j, k, m) * bracket_coeff(sc, m, i, l)
                total += bracket_coeff(sc, k, i, m) * bracket_coeff(sc, m, j, l)
            if total != 0:
                violations.append((i, j, k, l))
                if len(violations) >= max_violations:
                    return violations
    return violations


def _dense_coboundary1(sc):
    pairs = lc.pair_basis(sc.dim)
    return [[-bracket_coeff(sc, i, j, k) for k in range(sc.dim)] for i, j in pairs]


def _dense_coboundary2(sc):
    pairs = lc.pair_basis(sc.dim)
    triples = list(combinations(range(sc.dim), 3))
    triple_idx = {t: n for n, t in enumerate(triples)}
    rows = [[Fraction(0)] * len(pairs) for _ in triples]

    def add_wedge(col, coeff, a, b, c):
        # coeff * w^a ^ w^b ^ w^c resolved into the sorted-triple basis
        if a == b or a == c or b == c:
            return
        inversions = (a > b) + (a > c) + (b > c)
        rows[triple_idx[tuple(sorted((a, b, c)))]][col] += coeff * (-1) ** inversions

    for col, (a, b) in enumerate(pairs):
        for i, j in pairs:
            add_wedge(col, -bracket_coeff(sc, i, j, a), i, j, b)  # (d w^a) ^ w^b
            add_wedge(col, bracket_coeff(sc, i, j, b), a, i, j)  # - w^a ^ (d w^b)
    return rows


def _to_sympy(mat, cols):
    return sympy.Matrix(
        len(mat), cols, [sympy.Rational(x.numerator, x.denominator) for r in mat for x in r]
    )


def _primitive_from_sympy(vec):
    return primitive([Fraction(int(x.p), int(x.q)) for x in vec])


@st.composite
def _bracket_tables(draw):
    """Random constants over mixed denominators, d <= 7: either two-step
    nilpotent (every bracket lands in the last, central, slot, so Jacobi
    holds) or unrestricted (mostly not a Lie algebra)."""
    dim = draw(st.integers(1, 7))
    if draw(st.booleans()):
        keys = [(i, j, dim - 1) for i, j in combinations(range(dim - 1), 2)]
    else:
        keys = [(i, j, k) for i, j in combinations(range(dim), 2) for k in range(dim)]
    values = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    c = draw(st.dictionaries(st.sampled_from(keys), values, max_size=30)) if keys else {}
    return _sc(dim, c)


@settings(deadline=None)
@given(sc=_bracket_tables())
def test_sparse_engine_matches_dense_references(sc):
    report = lc.validate_algebra(sc)
    assert report.violations == _dense_jacobi(sc, lc.MAX_VIOLATIONS)
    assert report.ok == (not report.violations)
    d1, d2 = _dense_coboundary1(sc), _dense_coboundary2(sc)
    n_pairs = len(lc.pair_basis(sc.dim))
    for mat in (d2, [list(col) for col in zip(*d1)]):
        sm = _to_sympy(mat, n_pairs)
        assert len(rla.row_space_basis(mat, n_pairs)) == sm.rank()
        assert rla.nullspace(mat, n_pairs) == [_primitive_from_sympy(v) for v in sm.nullspace()]
        rref, pivots = sm.rref()
        expected_rows = [_primitive_from_sympy(rref.row(r)) for r in range(len(pivots))]
        assert rla.row_space_basis(mat, n_pairs) == expected_rows


def _skew_matrix(omega):
    """Dense Fraction matrix of a 2-cochain: M[i][j] = omega(e_i, e_j)."""
    mat = [[Fraction(0)] * omega.dim for _ in range(omega.dim)]
    for (i, j), x in zip(lc.pair_basis(omega.dim), omega.coords):
        mat[i][j], mat[j][i] = Fraction(x), -Fraction(x)
    return mat


def _reference_closed(sc, mat, h_basis):
    """Bracket every pair of kernel vectors and test that ``mat`` annihilates it."""
    return all(
        not any(mat_vec(mat, bracket(sc, u, v))) for u, v in combinations(h_basis, 2)
    )


@settings(deadline=None)
@given(sc=_bracket_tables(), data=st.data())
def test_integer_path_matches_fraction_reference(sc, data):
    n_pairs = len(lc.pair_basis(sc.dim))
    report = lc.second_cohomology(sc)
    d2 = _dense_coboundary2(sc)
    d1_t = [list(col) for col in zip(*_dense_coboundary1(sc))]
    z2 = rla.nullspace(d2, n_pairs)
    assert [list(ch.coords) for ch in report.z2_basis] == z2
    assert [list(ch.coords) for ch in report.b2_basis] == rla.row_space_basis(d1_t, n_pairs)

    # a closed form: a random combination of the Z^2 basis
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=len(z2), max_size=len(z2)))
    coords = [sum((w * v[n] for w, v in zip(weights, z2)), Fraction(0)) for n in range(n_pairs)]
    scale = data.draw(st.builds(Fraction, st.integers(1, 5), st.integers(1, 6)))
    omega = lc.Cochain(dim=sc.dim, coords=tuple(scale * x for x in coords))
    mat = _skew_matrix(omega)
    h_basis = rla.nullspace(mat, sc.dim)
    kr = lc.kernel_subalgebra(sc, omega)
    assert kr.h_basis == h_basis
    assert kr.gamma_dim == sc.dim - len(h_basis)
    # the kernel of a closed form is a subalgebra on any antisymmetric table
    assert kr.is_subalgebra is _reference_closed(sc, mat, h_basis) is True

    # an arbitrary form of low rank: rejected with its exact residual when
    # open, its kernel returned when closed
    values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6))
    entries = data.draw(st.dictionaries(st.sampled_from(range(n_pairs)), values, max_size=3)
                        if n_pairs else st.just({}))
    omega = lc.Cochain(dim=sc.dim, coords=tuple(
        entries.get(n, Fraction(0)) for n in range(n_pairs)))
    residual = mat_vec(d2, omega.coords)
    mat = _skew_matrix(omega)
    h_basis = rla.nullspace(mat, sc.dim)
    if any(residual):
        with pytest.raises(ValueError) as err:
            lc.kernel_subalgebra(sc, omega)
        nonzero = [f"{t} = {x}" for t, x in zip(combinations(range(sc.dim), 3), residual) if x]
        assert str(err.value) == (
            f"omega is not closed; d2(omega) is nonzero at {len(nonzero)} of "
            f"{len(residual)} triples, first: {', '.join(nonzero[:10])}"
        )
    else:
        assert lc.kernel_subalgebra(sc, omega).h_basis == h_basis


@pytest.mark.parametrize("name,pair", [("galilei", (3, 9)), ("poincare", (0, 1))])
def test_kernel_rejects_open_form_whose_kernel_is_not_closed(name, pair):
    sc = lc.catalog(name)
    omega = lc.two_form_from_pairs(sc, {pair: 1})
    with pytest.raises(ValueError, match="not closed"):
        lc.kernel_subalgebra(sc, omega)
    mat = _skew_matrix(omega)
    h_basis = rla.nullspace(mat, sc.dim)
    assert _reference_closed(sc, mat, h_basis) is False


# ---------------------------------------------------------------------------
# validate_algebra
# ---------------------------------------------------------------------------


def test_so3_and_h3_satisfy_jacobi():
    assert lc.validate_algebra(lc.catalog("so3")).ok
    assert lc.validate_algebra(lc.catalog("h3")).ok


def test_cyclic_tensor_with_flipped_sign_is_still_a_lie_algebra():
    # [e0,e1]=e2, [e1,e2]=e0, [e2,e0]=-e1: all double brackets cancel in
    # the Jacobi sum (hand evaluation), so this is a valid algebra
    # (a real form of sl(2)), not a counterexample.
    sc = _sc(3, {(0, 1, 2): 1, (1, 2, 0): 1, (0, 2, 1): 1})
    assert lc.validate_algebra(sc).ok


def test_jacobi_violation_detected_with_witness():
    # [e0,e1]=e2 and [e1,e2]=e1: the (0,1,2) Jacobi sum has the single
    # surviving term c(1,2,1) c(1,0,2) = -1 at l = 2 (hand evaluation).
    sc = _sc(3, {(0, 1, 2): 1, (1, 2, 1): 1})
    report = lc.validate_algebra(sc)
    assert not report.ok
    assert (0, 1, 2, 2) in report.violations


def test_malformed_tensor_rejected():
    with pytest.raises(ValueError, match="out of range"):
        lc.validate_algebra(_sc(2, {(0, 1, 5): 1}))
    with pytest.raises(ValueError, match="i < j"):
        lc.validate_algebra(
            lc.StructureConstants(dim=2, names=("a", "b"), c={(1, 0, 0): Fraction(1)})
        )
    with pytest.raises(ValueError, match="dim"):
        lc.validate_algebra(lc.StructureConstants(dim=0, names=(), c={}))


# ---------------------------------------------------------------------------
# coboundary operators (the dense oracles above, checked by hand and d2 d1 = 0)
# ---------------------------------------------------------------------------


def test_coboundary1_h3_hand_values():
    # dual of the center maps to minus the q^ ^ p^ pair; the others vanish
    d1 = _dense_coboundary1(lc.catalog("h3"))
    pairs = lc.pair_basis(3)
    col = {p: d1[i][2] for i, p in enumerate(pairs)}
    assert col[(0, 1)] == -1 and col[(0, 2)] == 0 and col[(1, 2)] == 0
    assert all(d1[i][k] == 0 for i in range(3) for k in (0, 1))


def test_coboundary1_so3_cyclic():
    d1 = _dense_coboundary1(lc.catalog("so3"))
    pairs = lc.pair_basis(3)
    idx = {p: i for i, p in enumerate(pairs)}
    # d w^0 = -w^1^w^2, d w^1 = +w^0^w^2, d w^2 = -w^0^w^1
    assert d1[idx[(1, 2)]][0] == -1
    assert d1[idx[(0, 2)]][1] == 1
    assert d1[idx[(0, 1)]][2] == -1


def test_abelian_coboundaries_vanish():
    sc = _sc(4, {})
    assert all(x == 0 for row in _dense_coboundary1(sc) for x in row)
    assert all(x == 0 for row in _dense_coboundary2(sc) for x in row)


def test_h3_coboundary2_vanishes():
    # every pair image carries a repeated 1-form factor (hand evaluation)
    d2 = _dense_coboundary2(lc.catalog("h3"))
    assert all(x == 0 for row in d2 for x in row)


@pytest.mark.parametrize("name", list(lc.CATALOG))
def test_complex_property_d2_after_d1_is_zero(name):
    sc = lc.catalog(name)
    product = mat_mul(_dense_coboundary2(sc), _dense_coboundary1(sc))
    assert all(x == 0 for row in product for x in row)


# ---------------------------------------------------------------------------
# second cohomology
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,dims",
    [
        ("abelian2", (1, 0, 1)),
        ("h3", (3, 1, 2)),
        ("so3", (3, 3, 0)),
        ("galilei", (10, 9, 1)),
        ("poincare", (10, 10, 0)),
    ],
)
def test_cohomology_dimensions(name, dims):
    report = lc.second_cohomology(lc.catalog(name))
    assert (report.dim_z2, report.dim_b2, report.dim_h2) == dims
    assert report.dim_h2 == report.dim_z2 - report.dim_b2
    assert len(report.z2_basis) == report.dim_z2


@pytest.mark.parametrize("name", ["galilei", "poincare"])
def test_dimensions_against_sympy_rank_oracle(name):
    sc = lc.catalog(name)
    d1 = _dense_coboundary1(sc)
    d2 = _dense_coboundary2(sc)

    n_pairs = len(lc.pair_basis(sc.dim))
    s1 = _to_sympy(d1, sc.dim)
    s2 = _to_sympy(d2, n_pairs)
    report = lc.second_cohomology(sc)
    assert report.dim_b2 == s1.rank()
    assert report.dim_z2 == n_pairs - s2.rank()
    assert report.dim_h1 == sc.dim - s1.rank()


def test_h1_dimensions():
    # ker d1 = annihilator of the derived algebra
    assert lc.second_cohomology(lc.catalog("h3")).dim_h1 == 2
    assert lc.second_cohomology(lc.catalog("so3")).dim_h1 == 0
    assert lc.second_cohomology(lc.catalog("abelian2")).dim_h1 == 2


def test_galilei_h1_and_h2_both_nontrivial():
    report = lc.second_cohomology(lc.catalog("galilei"))
    assert report.dim_h2 >= 1
    assert report.dim_h1 >= 1


def _so(n):
    """so(n) in the basis L_ab = E_ab - E_ba (a < b), from
    [L_ij, L_kl] = d_jk L_il + d_il L_jk - d_ik L_jl - d_jl L_ik."""
    pairs = list(combinations(range(n), 2))
    idx = {p: m for m, p in enumerate(pairs)}
    c = {}
    for x, (i, j) in enumerate(pairs):
        for y in range(x + 1, len(pairs)):
            k, l = pairs[y]
            for delta, coeff, a, b in ((j == k, 1, i, l), (i == l, 1, j, k),
                                       (i == k, -1, j, l), (j == l, -1, i, k)):
                if delta and a != b:  # L_ab = -L_ba, L_aa = 0
                    key = (x, y, idx[(min(a, b), max(a, b))])
                    c[key] = c.get(key, 0) + (coeff if a < b else -coeff)
    return _sc(len(pairs), c)


def test_so7_is_perfect_with_no_central_extension():
    # Whitehead: H^1 = H^2 = 0 for a semisimple algebra
    sc = _so(7)
    assert sc.dim == 21
    assert lc.validate_algebra(sc).ok
    report = lc.second_cohomology(sc)
    assert (report.dim_h1, report.dim_h2) == (0, 0)


def test_h15_cohomology_closed_form():
    # h_{2n+1}, [Q_i, P_i] = Z: H^1 = 2n, dim H^2 = n(2n - 1) - 1 (Santharoubane)
    n = 7
    sc = _sc(2 * n + 1, {(i, n + i, 2 * n): 1 for i in range(n)})
    assert lc.validate_algebra(sc).ok
    report = lc.second_cohomology(sc)
    assert (report.dim_h1, report.dim_h2) == (14, 90)


def test_exact_forms_are_closed():
    for name in lc.CATALOG:
        sc = lc.catalog(name)
        report = lc.second_cohomology(sc)
        z2 = [list(ch.coords) for ch in report.z2_basis]
        for b in report.b2_basis:
            assert in_span(z2, list(b.coords))


def test_galilei_mass_cocycle_is_closed_not_exact():
    # omega pairing each boost with the matching translation is the
    # central-extension witness behind dim H^2 >= 1
    sc = lc.catalog("galilei")
    omega = lc.two_form_from_pairs(sc, {(3, 6): 1, (4, 7): 1, (5, 8): 1})
    residual = mat_vec(_dense_coboundary2(sc), list(omega.coords))
    assert all(x == 0 for x in residual)
    d1t = [list(col) for col in zip(*_dense_coboundary1(sc))]
    b2 = rla.row_space_basis(d1t, len(lc.pair_basis(sc.dim)))
    assert not in_span(b2, list(omega.coords))


# ---------------------------------------------------------------------------
# kernel subalgebra
# ---------------------------------------------------------------------------


def test_kernel_h3_symplectic_form():
    sc = lc.catalog("h3")
    omega = lc.two_form_from_pairs(sc, {(0, 1): 1})
    report = lc.kernel_subalgebra(sc, omega)
    assert report.h_basis == [[Fraction(0), Fraction(0), Fraction(1)]]
    assert report.is_subalgebra
    assert report.gamma_dim == 2


def test_kernel_so3_orbit_dimension():
    sc = lc.catalog("so3")
    omega = lc.two_form_from_pairs(sc, {(0, 1): 1})
    report = lc.kernel_subalgebra(sc, omega)
    assert report.gamma_dim == 2
    assert report.h_basis == [[Fraction(0), Fraction(0), Fraction(1)]]


def test_kernel_zero_form_gives_whole_algebra():
    sc = lc.catalog("galilei")
    omega = lc.Cochain(dim=10, coords=tuple([Fraction(0)] * 45))
    report = lc.kernel_subalgebra(sc, omega)
    assert report.gamma_dim == 0
    assert len(report.h_basis) == 10


def test_kernel_rejects_open_form_with_residual():
    sc = lc.catalog("galilei")
    omega = lc.two_form_from_pairs(sc, {(3, 9): 1})  # boost ^ time direction
    with pytest.raises(ValueError, match="not closed"):
        lc.kernel_subalgebra(sc, omega)


def test_galilei_mass_form_kernel_and_phase_space_dim():
    sc = lc.catalog("galilei")
    omega = lc.two_form_from_pairs(sc, {(3, 6): 1, (4, 7): 1, (5, 8): 1})
    report = lc.kernel_subalgebra(sc, omega)
    assert _reference_closed(sc, _skew_matrix(omega), report.h_basis)
    # kernel holds rotations and time translation; boosts/translations pair up
    assert report.gamma_dim == 6


def test_kernel_is_subalgebra_and_gamma_even_for_all_closed_forms():
    rng = np.random.default_rng(11)
    for name in lc.CATALOG:
        sc = lc.catalog(name)
        report = lc.second_cohomology(sc)
        for ch in report.z2_basis:
            kr = lc.kernel_subalgebra(sc, ch)
            assert _reference_closed(sc, _skew_matrix(ch), kr.h_basis), (
                f"{name}: kernel not closed under bracket")
            assert kr.gamma_dim % 2 == 0
        if report.z2_basis:
            coeffs = [Fraction(int(rng.integers(-3, 4))) for _ in report.z2_basis]
            coords = [
                sum((c * ch.coords[i] for c, ch in zip(coeffs, report.z2_basis)), Fraction(0))
                for i in range(len(report.z2_basis[0].coords))
            ]
            omega = lc.Cochain(dim=sc.dim, coords=tuple(coords))
            kr = lc.kernel_subalgebra(sc, omega)
            assert _reference_closed(sc, _skew_matrix(omega), kr.h_basis)
            assert kr.gamma_dim % 2 == 0


# ---------------------------------------------------------------------------
# randomized nilpotent algebras under rational basis change
# ---------------------------------------------------------------------------


def _random_two_step_nilpotent(rng):
    """Brackets land in a central slot, so Jacobi holds identically."""
    dim = int(rng.integers(3, 6))
    center = dim - 1
    c = {}
    for i in range(center):
        for j in range(i + 1, center):
            v = int(rng.integers(-3, 4))
            if v:
                c[(i, j, center)] = Fraction(v)
    return lc.StructureConstants(dim=dim, names=tuple(f"e{i}" for i in range(dim)), c=c)


def _random_basis_change(rng, sc):
    dim = sc.dim
    m = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    # a few random elementary row operations keep the change unimodular
    for _ in range(2 * dim):
        i, j = rng.integers(0, dim, size=2)
        if i != j:
            f = Fraction(int(rng.integers(-2, 3)))
            m[int(i)] = [a + f * b for a, b in zip(m[int(i)], m[int(j)])]
    # new basis f_a = sum_i m[a][i] e_i; exact inverse via nullspace-free solve
    inv = _invert(m)
    c_new = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            w = bracket(sc, m[a], m[b])
            coords = mat_vec([list(col) for col in zip(*inv)], w)
            for k, v in enumerate(coords):
                if v != 0:
                    c_new[(a, b, k)] = v
    return lc.StructureConstants(dim=dim, names=sc.names, c=c_new)


def _invert(m):
    dim = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(dim)] for i, row in enumerate(m)]
    for col in range(dim):
        piv = next(r for r in range(col, dim) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(dim):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[dim:] for row in aug]


@pytest.mark.parametrize("seed", range(100))
def test_random_nilpotent_algebra_invariants(seed):
    rng = np.random.default_rng(seed)
    sc = _random_basis_change(rng, _random_two_step_nilpotent(rng))
    assert lc.validate_algebra(sc).ok
    product = mat_mul(_dense_coboundary2(sc), _dense_coboundary1(sc))
    assert all(x == 0 for row in product for x in row)
    report = lc.second_cohomology(sc)
    assert report.dim_h2 == report.dim_z2 - report.dim_b2 >= 0
    z2 = [list(ch.coords) for ch in report.z2_basis]
    for b in report.b2_basis:
        assert in_span(z2, list(b.coords))
    if report.z2_basis:
        kr = lc.kernel_subalgebra(sc, report.z2_basis[0])
        assert _reference_closed(sc, _skew_matrix(report.z2_basis[0]), kr.h_basis)
        assert kr.gamma_dim % 2 == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip(tmp_path):
    # each table written in the documented schema: one entry per pair i < j,
    # decimal target keys, rationals as "p/q" strings
    mixed = _sc(3, {(0, 1, 2): Fraction(-3, 4), (0, 2, 1): 5, (1, 2, 0): Fraction(1, 6)})
    for sc in (lc.catalog("galilei"), mixed):
        by_pair = {}
        for (i, j, k), v in sc.c.items():
            by_pair.setdefault((i, j), {})[str(k)] = str(v)
        data = {"dim": sc.dim, "basis": list(sc.names), "brackets": [
            {"i": i, "j": j, "coeffs": coeffs} for (i, j), coeffs in by_pair.items()]}
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(data))
        back = lc.from_json_dict(json.loads(path.read_text()))
        assert (back.dim, back.names, back.c) == (sc.dim, sc.names, sc.c)


def test_json_rational_strings():
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1/2"}}]}
    back = lc.from_json_dict(data)
    assert back.c[(0, 1, 0)] == Fraction(1, 2)


def test_json_rejects_bad_entries():
    with pytest.raises(ValueError, match="i < j"):
        lc.from_json_dict(
            {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 1, "j": 1, "coeffs": {"0": "1"}}]}
        )
    with pytest.raises(ValueError, match="missing"):
        lc.from_json_dict({"dim": 2})


def test_json_rejects_repeated_pair():
    data = {
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}, {"i": 0, "j": 1, "coeffs": {"0": "1"}}],
    }
    with pytest.raises(ValueError, match=r"\(0,1\) appears more than once"):
        lc.from_json_dict(data)


@pytest.mark.parametrize(
    "brackets",
    [
        [{"i": 0, "coeffs": {"0": "1"}}],
        [{"j": 1, "coeffs": {"0": "1"}}],
        [{"i": 0, "j": 1}],
        [[0, 1, {"0": "1"}]],
        [{"i": 0, "j": 1, "coeffs": "1"}],
        {"i": 0, "j": 1, "coeffs": {"0": "1"}},
    ],
    ids=["no-j", "no-i", "no-coeffs", "list-entry", "string-coeffs", "entry-not-in-list"],
)
def test_json_rejects_malformed_bracket_entries(brackets):
    with pytest.raises(ValueError, match="bracket entr"):
        lc.from_json_dict({"dim": 2, "basis": ["a", "b"], "brackets": brackets})


def test_json_rejects_repeated_target():
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1", "01": "2"}}]}
    with pytest.raises(ValueError, match=r"\(0,1\) names target 1 more than once"):
        lc.from_json_dict(data)


@pytest.mark.parametrize(
    "key", ["1_0", "\u0663", "x", "-1", "+1", " 1", "1 ", "", "1.0", "\uff11"],
    ids=["underscore", "arabic-indic", "letter", "minus", "plus", "lead-space",
         "trail-space", "empty", "decimal-point", "fullwidth"],
)
def test_json_rejects_non_decimal_target_keys(key):
    # int() read "1_0" as target 10 and "\u0663" as target 3
    data = {"dim": 11, "basis": [f"e{n}" for n in range(11)],
            "brackets": [{"i": 0, "j": 1, "coeffs": {key: "1"}}]}
    with pytest.raises(ValueError, match=r"bracket entry \(0,1\) has target key .* not a decimal index"):
        lc.from_json_dict(data)


def test_json_accepts_leading_zero_target_key():
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"01": "2"}}]}
    assert lc.from_json_dict(data).c == {(0, 1, 1): Fraction(2)}


@pytest.mark.parametrize(
    "value", [None, [1], "1/0", float("nan"), float("inf")],
    ids=["null", "list", "zero-denominator", "nan", "inf"],
)
def test_json_rejects_non_rational_coefficients(value):
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": value}}]}
    with pytest.raises(ValueError, match="not a rational number"):
        lc.from_json_dict(data)


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "2.5E+4301", "1e4_301"])
def test_huge_decimal_exponent_rejected(text):
    with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
        lc.parse_rational(text)
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": text}}]}
    with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
        lc.from_json_dict(data)


@pytest.mark.parametrize("text", ["1_0", "1/1_0", "1.0_0", "1e1_0"])
def test_digit_grouping_rejected(text):
    # Fraction reads '1_0' as 10; the CSV reader and every other CLI number refuse it
    with pytest.raises(ValueError, match="uses digit grouping"):
        lc.parse_rational(text)
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": text}}]}
    with pytest.raises(ValueError, match="not a rational number .*uses digit grouping"):
        lc.from_json_dict(data)


def test_rationals_parse_exactly():
    assert lc.parse_rational("1e-3") == Fraction(1, 1000)
    assert lc.parse_rational("3/4") == Fraction(3, 4)
    assert lc.parse_rational("2") == Fraction(2)
    assert lc.parse_rational(" 1.5e4300 ") == Fraction(15 * 10**4299)
    assert lc.parse_rational(2) == Fraction(2)
    data = {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1e-3", "1": "3/4"}}]}
    assert lc.from_json_dict(data).c == {(0, 1, 0): Fraction(1, 1000), (0, 1, 1): Fraction(3, 4)}


@pytest.mark.parametrize(
    "field,value", [("dim", 2.7), ("dim", "3"), ("dim", True), ("i", 0.0), ("j", "1")]
)
def test_json_rejects_non_integer_dim_and_indices(field, value):
    entry = {"i": 0, "j": 1, "coeffs": {"2": "1"}}
    data = {"dim": 3, "basis": ["a", "b", "c"], "brackets": [entry]}
    (data if field == "dim" else entry)[field] = value
    with pytest.raises(ValueError, match="must be an integer"):
        lc.from_json_dict(data)


def test_cochain_shape_validation():
    with pytest.raises(ValueError, match="coordinates"):
        lc.Cochain(dim=3, coords=(Fraction(1),))


def test_abelian_generator_and_catalog_unknown():
    assert lc.validate_algebra(_sc(5, {})).ok
    with pytest.raises(KeyError):
        lc.catalog("e8")

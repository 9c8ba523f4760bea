"""Lie algebra cohomology in degree <= 2 from structure constants.

Everything here runs in exact rational arithmetic: the inputs are bracket
coefficients, the outputs are integer dimensions and rational basis
vectors, and floating point has no business deciding a rank.

The chain complex is the left-invariant (Chevalley-Eilenberg) one,
truncated at 3-forms, which is all that is needed for closed 2-forms:
the differential on dual basis 1-forms comes from the Maurer-Cartan
equations, and on 2-forms from the skew-derivation rule.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import comb, lcm

from . import rational_linalg as rla

MAX_VIOLATIONS = 10


@dataclass(frozen=True)
class StructureConstants:
    """Bracket coefficients of a finite-dimensional real Lie algebra.

    ``c`` maps (i, j, k) with i < j to the coefficient of basis vector k
    in [A_i, A_j]; the i > j values follow by antisymmetry and are never
    stored.  Nothing is validated at construction: run
    :func:`validate_algebra` to check the Jacobi identity.
    """

    dim: int
    names: tuple[str, ...]
    c: dict[tuple[int, int, int], Fraction]
    label: str = ""


@dataclass(frozen=True)
class Cochain:
    """A 2-form: element of the second dual exterior power, in the sorted-pair basis."""

    dim: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        expected = comb(self.dim, 2)
        if len(self.coords) != expected:
            raise ValueError(
                f"degree-2 cochain over dim {self.dim} needs "
                f"{expected} coordinates, got {len(self.coords)}"
            )


@dataclass
class JacobiReport:
    ok: bool
    violations: list[tuple[int, int, int, int]]


@dataclass
class CohomologyReport:
    dim_z2: int
    dim_b2: int
    dim_h2: int
    dim_h1: int
    z2_basis: list[Cochain]
    b2_basis: list[Cochain]


@dataclass
class KernelReport:
    h_basis: list[list[Fraction]]
    is_subalgebra: bool  # True by theorem; see kernel_subalgebra
    gamma_dim: int


def pair_basis(dim: int) -> list[tuple[int, int]]:
    return list(combinations(range(dim), 2))


def _perm_sign_3(a: int, b: int, c: int) -> int:
    """Sign of the permutation sorting three distinct indices."""
    inv = (a > b) + (a > c) + (b > c)
    return -1 if inv % 2 else 1


def _check_shape(sc: StructureConstants) -> None:
    if sc.dim < 1:
        raise ValueError("dim must be >= 1")
    if len(sc.names) != sc.dim:
        raise ValueError("names length must equal dim")
    for (i, j, k), v in sc.c.items():
        if not (0 <= i < sc.dim and 0 <= j < sc.dim and 0 <= k < sc.dim):
            raise ValueError(f"index out of range in c[{i},{j},{k}]")
        if i == j and v != 0:
            raise ValueError(f"nonzero self-bracket c[{i},{i},{k}]")
        if i > j:
            raise ValueError(f"c stored with i >= j at ({i},{j},{k}); store i < j only")


def _integer_table(sc: StructureConstants):
    """The nonzero constants as integers, indexed by target, after the shape check.

    Returns (scale, by_target): scale is the lcm of the denominators, and
    by_target[k] lists (i, j, n) with i < j and n = scale * C_ij^k.  Every
    zero test downstream is homogeneous in the constants, so the scale
    changes none of them.
    """
    _check_shape(sc)
    consts = [(i, j, k, Fraction(v)) for (i, j, k), v in sc.c.items() if v != 0]
    scale = lcm(*(v.denominator for *_, v in consts))
    by_target = [[] for _ in range(sc.dim)]
    for i, j, k, v in consts:
        by_target[k].append((i, j, v.numerator * (scale // v.denominator)))
    return scale, by_target


def validate_algebra(sc: StructureConstants) -> JacobiReport:
    """Check the Jacobi identity exactly; list the first MAX_VIOLATIONS failing quadruples.

    Each double bracket is summed over the nonzero integer constants only.
    """
    _, by_target = _integer_table(sc)
    table = [[[] for _ in range(sc.dim)] for _ in range(sc.dim)]  # [i][j] -> [(k, C_ij^k)]
    for k, consts in enumerate(by_target):
        for i, j, n in consts:
            table[i][j].append((k, n))
            table[j][i].append((k, -n))
    violations: list[tuple[int, int, int, int]] = []
    for i, j, k in combinations(range(sc.dim), 3):
        total: dict[int, int] = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, v in table[a][b]:
                for l, w in table[m][c]:
                    total[l] = total.get(l, 0) + v * w
        for l in sorted(l for l, t in total.items() if t):
            violations.append((i, j, k, l))
            if len(violations) >= MAX_VIOLATIONS:
                return JacobiReport(ok=False, violations=violations)
    return JacobiReport(ok=not violations, violations=violations)


def _d2_terms(by_target, a: int, b: int):
    """Nonzero terms (sorted triple, coefficient) of d(w^a ^ w^b).

    Skew-derivation rule: d(w^a ^ w^b) = (d w^a) ^ w^b - w^a ^ (d w^b), where
    d w^k = -sum_{i<j} C_ij^k w^i ^ w^j.
    """
    for i, j, v in by_target[a]:
        if b != i and b != j:
            yield tuple(sorted((i, j, b))), -v * _perm_sign_3(i, j, b)
    for i, j, v in by_target[b]:
        if a != i and a != j:
            yield tuple(sorted((a, i, j))), v * _perm_sign_3(a, i, j)


def _d2_rows(by_target, dim: int):
    """d2 as sparse integer rows {triple: {pair column: int}}, in triple
    order, zero entries and zero rows dropped."""
    rows: dict[tuple[int, int, int], dict[int, int]] = {}
    for col, (a, b) in enumerate(pair_basis(dim)):
        for t, v in _d2_terms(by_target, a, b):
            row = rows.setdefault(t, {})
            row[col] = row.get(col, 0) + v
    out = {}
    for t in sorted(rows):
        row = {c: v for c, v in rows[t].items() if v}
        if row:
            out[t] = row
    return out


def _d1_transpose_rows(by_target, dim: int):
    """d1 transposed as sparse integer rows: row k is d w^k over the pairs."""
    pair_idx = {p: n for n, p in enumerate(pair_basis(dim))}
    return [{pair_idx[(i, j)]: -n for i, j, n in consts} for consts in by_target]


def second_cohomology(sc: StructureConstants) -> CohomologyReport:
    """Closed and exact 2-forms, their quotient dimension, and dim ker d1.

    d2 and the transpose of d1 go to the elimination as sparse integer
    rows; no dense matrix is built.
    """
    _, by_target = _integer_table(sc)
    n_pairs = comb(sc.dim, 2)
    z2_vectors = rla.nullspace(list(_d2_rows(by_target, sc.dim).values()), n_pairs)
    b2_vectors = rla.row_space_basis(_d1_transpose_rows(by_target, sc.dim), n_pairs)
    dim_b2 = len(b2_vectors)
    dim_z2 = len(z2_vectors)

    def to_cochain(vec):
        return Cochain(dim=sc.dim, coords=tuple(vec))

    return CohomologyReport(
        dim_z2=dim_z2,
        dim_b2=dim_b2,
        dim_h2=dim_z2 - dim_b2,
        dim_h1=sc.dim - dim_b2,  # rank d1 = rank d1^T = dim B^2
        z2_basis=[to_cochain(v) for v in z2_vectors],
        b2_basis=[to_cochain(v) for v in b2_vectors],
    )


def kernel_subalgebra(sc: StructureConstants, omega: Cochain) -> KernelReport:
    """Radical h = {x : omega(x, .) = 0} of a closed 2-form, and dim g/h.

    Raises if ``omega`` is not closed: an open 2-form has no invariant
    kernel and the downstream quotient has no meaning.  The check runs on
    omega and the constants scaled to integers.

    The radical of a closed form is always a subalgebra, so no bracket is
    formed.  For x, y in h and any z, d omega = 0 reads
    -omega([x,y],z) + omega([x,z],y) - omega([y,z],x) = 0.  The last two
    terms vanish, because omega is antisymmetric and x, y lie in its
    radical; hence omega([x,y],z) = 0.  The argument uses only bilinearity
    and antisymmetry, not the Jacobi identity, so it holds on any table.
    """
    if omega.dim != sc.dim:
        raise ValueError("omega must be a degree-2 cochain over the same algebra")
    scale, by_target = _integer_table(sc)
    coords = [Fraction(x) for x in omega.coords]
    omega_scale = lcm(*(x.denominator for x in coords))
    rows = [{} for _ in range(sc.dim)]  # omega_scale * omega as a skew matrix
    residual: dict[tuple[int, int, int], int] = {}
    for (a, b), x in zip(pair_basis(sc.dim), coords):
        if x:
            w = x.numerator * (omega_scale // x.denominator)
            rows[a][b], rows[b][a] = w, -w
            for t, v in _d2_terms(by_target, a, b):
                residual[t] = residual.get(t, 0) + w * v
    nonzero = [(t, Fraction(v, scale * omega_scale)) for t, v in sorted(residual.items()) if v]
    if nonzero:
        first = ", ".join(f"{t} = {x}" for t, x in nonzero[:10])
        raise ValueError(
            f"omega is not closed; d2(omega) is nonzero at {len(nonzero)} of "
            f"{comb(sc.dim, 3)} triples, first: {first}"
        )

    h_basis = rla.nullspace(rows, sc.dim)
    return KernelReport(
        h_basis=h_basis,
        is_subalgebra=True,
        gamma_dim=sc.dim - len(h_basis),
    )


def two_form_from_pairs(sc: StructureConstants, entries: dict[tuple[int, int], Fraction]) -> Cochain:
    """Convenience constructor: a 2-cochain from sparse (i, j) -> value, i < j."""
    pairs = pair_basis(sc.dim)
    idx = {p: n for n, p in enumerate(pairs)}
    coords = [Fraction(0)] * len(pairs)
    for (i, j), v in entries.items():
        if i == j:
            raise ValueError("2-form entries need i != j")
        if i < j:
            coords[idx[(i, j)]] += Fraction(v)
        else:
            coords[idx[(j, i)]] -= Fraction(v)
    return Cochain(dim=sc.dim, coords=tuple(coords))


# ---------------------------------------------------------------------------
# JSON schema and the shipped algebra catalog
# ---------------------------------------------------------------------------


_DECIMAL_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(value) -> Fraction:
    """``Fraction(value)``, refusing a decimal exponent that is too large and
    digit grouping ('1_0'), which Fraction reads as 10.

    Fraction expands an exponent exactly, so '1e10000000' alone takes
    seconds.  A string whose exponent exceeds sys.get_int_max_str_digits()
    in magnitude (4300 by default; 0 lifts the bound) raises ValueError, as
    does a string with '_' in it.
    """
    if isinstance(value, str):
        match = _DECIMAL_EXPONENT.search(value)
        limit = sys.get_int_max_str_digits()
        if match and limit and abs(int(match.group(1))) > limit:
            raise ValueError(f"decimal exponent of {value!r} exceeds {limit} in magnitude")
        if "_" in value:
            raise ValueError(f"{value!r} uses digit grouping")
    return Fraction(value)


def _json_int(value, field: str) -> int:
    # bool is an int subclass, and int() would truncate 2.7 or parse "2"
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def from_json_dict(data: dict) -> StructureConstants:
    try:
        dim = _json_int(data["dim"], "dim")
        names = tuple(str(s) for s in data["basis"])
        brackets = data["brackets"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"structure-constants JSON missing field: {exc}") from exc
    if not isinstance(brackets, list):
        raise ValueError("brackets must be a list of bracket entries")
    c: dict[tuple[int, int, int], Fraction] = {}
    seen: set[tuple[int, int]] = set()
    for entry in brackets:
        if not (
            isinstance(entry, dict)
            and {"i", "j", "coeffs"} <= entry.keys()
            and isinstance(entry["coeffs"], dict)
        ):
            raise ValueError(
                "each bracket entry must be an object with integer fields i, j "
                "and an object coeffs"
            )
        i, j = _json_int(entry["i"], "bracket index i"), _json_int(entry["j"], "bracket index j")
        if i >= j:
            raise ValueError(f"bracket entry must have i < j, got ({i},{j})")
        if (i, j) in seen:
            raise ValueError(f"bracket entry ({i},{j}) appears more than once")
        seen.add((i, j))
        targets: set[int] = set()
        for k_str, v in entry["coeffs"].items():
            # int() would also read "1_0" as 10, " 1" as 1 and any Unicode digit
            if not (k_str.isascii() and k_str.isdigit()):
                raise ValueError(
                    f"bracket entry ({i},{j}) has target key {k_str!r} that is not a "
                    "decimal index"
                )
            k = int(k_str)
            if k in targets:
                raise ValueError(f"bracket entry ({i},{j}) names target {k} more than once")
            targets.add(k)
            try:
                val = parse_rational(v)
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ValueError(
                    f"bracket entry ({i},{j}) has coefficient {v!r} that is not a rational "
                    f"number ({exc})"
                ) from exc
            if val != 0:
                c[(i, j, k)] = val
    sc = StructureConstants(dim=dim, names=names, c=c, label=str(data.get("name", "")))
    _check_shape(sc)
    return sc


CATALOG = ("abelian2", "h3", "so3", "galilei", "poincare")


def catalog(name: str) -> StructureConstants:
    """Load one of the shipped algebras by name."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog algebra {name!r}; have {CATALOG}")
    ref = resources.files("qps") / "algebras" / f"{name}.json"
    return from_json_dict(json.loads(ref.read_text(encoding="utf-8")))


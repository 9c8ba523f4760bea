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
    """Element of the degree-p dual exterior power, in the sorted-tuple basis."""

    degree: int
    dim: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if not 0 <= self.degree <= 3:
            raise ValueError(f"degree {self.degree} outside the built complex (0..3)")
        expected = comb(self.dim, self.degree)
        if len(self.coords) != expected:
            raise ValueError(
                f"degree-{self.degree} cochain over dim {self.dim} needs "
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
    is_subalgebra: bool
    gamma_dim: int


def pair_basis(dim: int) -> list[tuple[int, int]]:
    return list(combinations(range(dim), 2))


def triple_basis(dim: int) -> list[tuple[int, int, int]]:
    return list(combinations(range(dim), 3))


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


def validate_algebra(sc: StructureConstants, max_violations: int = 10) -> JacobiReport:
    """Check the Jacobi identity exactly; list the first few failing quadruples.

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
            if len(violations) >= max_violations:
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
        return Cochain(degree=2, dim=sc.dim, coords=tuple(vec))

    return CohomologyReport(
        dim_z2=dim_z2,
        dim_b2=dim_b2,
        dim_h2=dim_z2 - dim_b2,
        dim_h1=sc.dim - dim_b2,  # rank d1 = rank d1^T = dim B^2
        z2_basis=[to_cochain(v) for v in z2_vectors],
        b2_basis=[to_cochain(v) for v in b2_vectors],
    )


def _kernel_closed(by_target, rows, h_basis) -> bool:
    """Whether the kernel basis ``h_basis`` of the skew matrix ``rows`` is
    closed under the bracket of the integer constants ``by_target``.

    [u, v] lies in the kernel exactly when u^T M_r v = 0 for every row r,
    with M_r[i][j] = sum_k rows[r][k] C_ij^k, so no bracket is formed.  The
    kernel vectors are primitive, hence integer.
    """
    basis = [{i: int(x) for i, x in enumerate(vec) if x} for vec in h_basis]
    for row in rows:
        m_r: dict[tuple[int, int], int] = {}
        for k, w in row.items():
            for i, j, n in by_target[k]:
                m_r[(i, j)] = m_r.get((i, j), 0) + w * n
        m_r = {ij: v for ij, v in m_r.items() if v}
        if not m_r:
            continue
        images = []  # M_r v for each kernel vector v, over its nonzero entries
        for v in basis:
            out: dict[int, int] = {}
            for (i, j), m in m_r.items():
                if j in v:
                    out[i] = out.get(i, 0) + m * v[j]
                if i in v:
                    out[j] = out.get(j, 0) - m * v[i]
            images.append(out)
        for a, u in enumerate(basis):
            for image in images[a + 1:]:
                if sum(x * image[i] for i, x in u.items() if i in image):
                    return False
    return True


def kernel_subalgebra(sc: StructureConstants, omega: Cochain) -> KernelReport:
    """Radical of a closed 2-form and the closure check that makes it a subalgebra.

    Raises if ``omega`` is not closed: an open 2-form has no invariant
    kernel and the downstream quotient has no meaning.  Both checks run on
    omega and the constants scaled to integers.
    """
    if omega.degree != 2 or omega.dim != sc.dim:
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
        is_subalgebra=_kernel_closed(by_target, rows, h_basis),
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
    return Cochain(degree=2, dim=sc.dim, coords=tuple(coords))


# ---------------------------------------------------------------------------
# JSON schema and the shipped algebra catalog
# ---------------------------------------------------------------------------


_DECIMAL_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(value) -> Fraction:
    """``Fraction(value)``, refusing a decimal exponent that is too large.

    Fraction expands an exponent exactly, so '1e10000000' alone takes
    seconds.  A string whose exponent exceeds sys.get_int_max_str_digits()
    in magnitude (4300 by default; 0 lifts the bound) raises ValueError.
    """
    if isinstance(value, str):
        match = _DECIMAL_EXPONENT.search(value)
        limit = sys.get_int_max_str_digits()
        if match and limit and abs(int(match.group(1))) > limit:
            raise ValueError(f"decimal exponent of {value!r} exceeds {limit} in magnitude")
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


def to_json_dict(sc: StructureConstants) -> dict:
    by_pair: dict[tuple[int, int], dict[str, str]] = {}
    for (i, j, k), v in sorted(sc.c.items()):
        by_pair.setdefault((i, j), {})[str(k)] = str(v)
    return {
        "name": sc.label,
        "dim": sc.dim,
        "basis": list(sc.names),
        "brackets": [
            {"i": i, "j": j, "coeffs": coeffs} for (i, j), coeffs in sorted(by_pair.items())
        ],
    }


def abelian(n: int) -> StructureConstants:
    """All brackets zero."""
    return StructureConstants(
        dim=n, names=tuple(f"A{i + 1}" for i in range(n)), c={}, label=f"abelian{n}"
    )


CATALOG = ("abelian2", "h3", "so3", "galilei", "poincare")


def catalog(name: str) -> StructureConstants:
    """Load one of the shipped algebras by name."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog algebra {name!r}; have {CATALOG}")
    ref = resources.files("qps") / "algebras" / f"{name}.json"
    return from_json_dict(json.loads(ref.read_text(encoding="utf-8")))


def cohomology_report_json(report: CohomologyReport) -> dict:
    def cochain_coords(ch: Cochain):
        return [str(x) for x in ch.coords]

    return {
        "dim_z2": report.dim_z2,
        "dim_b2": report.dim_b2,
        "dim_h2": report.dim_h2,
        "dim_h1": report.dim_h1,
        "z2_basis": [cochain_coords(ch) for ch in report.z2_basis],
        "b2_basis": [cochain_coords(ch) for ch in report.b2_basis],
    }


def kernel_report_json(report: KernelReport) -> dict:
    return {
        "h_basis": [[str(x) for x in vec] for vec in report.h_basis],
        "is_subalgebra": report.is_subalgebra,
        "gamma_dim": report.gamma_dim,
    }

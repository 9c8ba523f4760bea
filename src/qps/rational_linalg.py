"""Exact linear algebra over the rationals.

Matrices are plain ``list[list[Fraction]]`` (row-major).  Elimination runs
on sparse integer rows: each row is scaled to coprime integers and kept as
``{column: value}`` over its nonzero entries.  A row is touched only when it
has a nonzero in the pivot column; it is then combined with the pivot row by
the two-term integer update and divided by its content, so every
intermediate entry is an exact integer.  Rank and nullspace decisions are
therefore exact, which is what the cohomology dimensions require.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _content_free(row):
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _integer_row(row):
    """Nonzero entries of a rational row as ``{column: int}``, scaled to
    coprime integers (preserves row space and nullspace)."""
    entries = {c: Fraction(x) for c, x in enumerate(row) if x}
    scale = lcm(*(x.denominator for x in entries.values()))
    return _content_free({c: x.numerator * (scale // x.denominator) for c, x in entries.items()})


def _cancel(row, piv, c):
    """``row`` with column ``c`` cancelled against pivot row ``piv``."""
    g = gcd(piv[c], row[c])
    a, b = piv[c] // g, row[c] // g
    out = {k: a * v for k, v in row.items()}
    for k, v in piv.items():
        w = out.get(k, 0) - b * v
        if w:
            out[k] = w
        else:
            del out[k]
    return _content_free(out)


def _echelon(rows):
    """Row echelon form as sparse coprime integer rows, in pivot order.

    Rows are bucketed by leading column, so each step touches only the rows
    whose leading entry sits in the pivot column.  The pivot column of each
    returned row is its smallest key.
    """
    by_lead = {}
    for row in map(_integer_row, rows):
        if row:
            by_lead.setdefault(min(row), []).append(row)
    pivots = []
    while by_lead:
        c = min(by_lead)
        hit = by_lead.pop(c)
        piv = min(hit, key=len)  # the sparsest pivot row keeps fill-in low
        pivots.append(piv)
        for row in hit:
            if row is not piv:
                row = _cancel(row, piv, c)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
    return pivots


def _primitive(vec):
    """Clear denominators, divide out the content, make the first nonzero
    entry positive.  Canonical representative of the ray through ``vec``."""
    scale = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (scale // x.denominator) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 1)
    if lead < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


def rank(rows):
    return len(_echelon(rows))


def _rref(rows):
    """Reduced row echelon form over Fraction.  Returns (rows, pivot cols).

    Back-substitution stays on the integer rows; each row is divided by its
    pivot once, at the end.
    """
    pivots = _echelon(rows)
    piv_cols = [min(row) for row in pivots]
    for r in reversed(range(len(pivots))):
        c = piv_cols[r]
        for i in range(r):
            if c in pivots[i]:
                pivots[i] = _cancel(pivots[i], pivots[r], c)
    ncols = len(rows[0]) if rows else 0
    red = []
    for c, row in zip(piv_cols, pivots):
        dense = [Fraction(0)] * ncols
        for k, v in row.items():
            dense[k] = Fraction(v, row[c])
        red.append(dense)
    return red, piv_cols


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} as primitive rational vectors."""
    if ncols == 0:
        return []
    if not rows:
        basis = []
        for f in range(ncols):
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            basis.append(v)
        return basis
    red, piv_cols = _rref(rows)
    free = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(piv_cols):
            v[c] = -red[r][f]
        basis.append(_primitive(v))
    return basis


def row_space_basis(rows):
    """Basis of the row space as primitive vectors (RREF pivot rows)."""
    if not rows:
        return []
    red, piv_cols = _rref(rows)
    return [_primitive(red[r]) for r in range(len(piv_cols))]

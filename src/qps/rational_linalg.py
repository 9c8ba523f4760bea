"""Exact linear algebra over the rationals.

A matrix is a list of rows; a row is either a dense sequence of rationals
or a sparse ``{column: int}`` mapping of its nonzero integer entries.
Elimination runs on sparse integer rows: each row is scaled to coprime
integers and kept as ``{column: value}`` over its nonzero entries.  A row
is touched only when it has a nonzero in the pivot column; it is then
combined with the pivot row by the two-term integer update and divided by
its content, so every intermediate entry is an exact integer.  The
null-space and row-space bases are read off the reduced integer rows, and
``Fraction`` appears only in the returned vectors.  A rank is the length
of ``row_space_basis``, so rank and null-space decisions are exact, which
is what the cohomology dimensions require.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _content_free(row):
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _integer_row(row):
    """Nonzero entries of a row as ``{column: int}``, scaled to coprime
    integers (preserves row space and nullspace)."""
    if isinstance(row, dict):
        return _content_free({c: v for c, v in row.items() if v})
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
    """Row echelon form of coprime sparse integer rows, in pivot order.

    Rows are bucketed by leading column, so each step touches only the rows
    whose leading entry sits in the pivot column.  The pivot column of each
    returned row is its smallest key.
    """
    by_lead = {}
    for row in rows:
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


def _reduced(rows):
    """Echelon rows back-substituted in integers: each pivot column is
    nonzero only in its own row.  Returns (rows, pivot columns)."""
    pivots = _echelon(map(_integer_row, rows))
    piv_cols = [min(row) for row in pivots]
    for r in reversed(range(len(pivots))):
        c = piv_cols[r]
        for i in range(r):
            if c in pivots[i]:
                pivots[i] = _cancel(pivots[i], pivots[r], c)
    return pivots, piv_cols


def _primitive(entries, ncols):
    """Dense ``Fraction`` vector of the integer ray ``{column: int}``, with
    the content divided out and the first nonzero entry positive."""
    g = gcd(*entries.values())
    if entries[min(entries)] < 0:
        g = -g
    out = [_ZERO] * ncols
    for c, v in entries.items():
        out[c] = Fraction(v // g)
    return out


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} as primitive rational vectors.

    Free column f gives the vector with entry L at f and -row[f] L / p at
    the pivot column of each reduced row that touches f, p its pivot entry
    and L the lcm of those pivots, so every entry is an integer.
    """
    red, piv_cols = _reduced(rows)
    touching = {f: [] for f in range(ncols)}
    for c in piv_cols:
        del touching[c]
    for row, c in zip(red, piv_cols):
        for f, v in row.items():
            if f != c:
                touching[f].append((c, v, row[c]))
    basis = []
    for f, hits in touching.items():
        scale = lcm(*(p for _, _, p in hits))
        vec = {f: scale}
        for c, v, p in hits:
            vec[c] = -v * (scale // p)
        basis.append(_primitive(vec, ncols))
    return basis


def row_space_basis(rows, ncols):
    """Basis of the row space as primitive vectors (the reduced pivot rows)."""
    return [_primitive(row, ncols) for row in _reduced(rows)[0]]

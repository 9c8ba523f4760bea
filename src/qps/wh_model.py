"""Truncated Fock-space model of the Weyl-Heisenberg kinematics.

Units are dimensionless (hbar = 1): q = (a + a*)/sqrt(2), p = (a - a*)/
(i sqrt(2)), the phase-space point (q, p) maps to the coherent amplitude
alpha = (q + i p)/sqrt(2), and the invariant measure is dq dp / (2 pi).
With these choices the coherent family resolves the identity with
constant exactly 1.

Displacement matrix elements are the closed-form values of the
untruncated operator (associated-Laguerre form, Cahill and Glauber,
Phys. Rev. 177, 1857, 1969), truncated to N x N.  Every stored entry is
therefore exact up to floating point, and only quantities that probe the
cut edge feel the truncation; operations advertise validity on the low
Fock block n <= N/2.

The closed form is taken in the factored form of rotation covariance:
for alpha = r e^(i theta), D(alpha) = e^(i theta a*a) D(r) e^(-i theta a*a),
so <m|D(alpha)|n> = T_mn(r) e^(i (m - n) theta) with T the real
displacement of the radius alone.  The grid carries its distinct radii
and the radius of each point; for one N it keeps T over those radii, one
Fock column at a time as generators need it: U N 8 bytes a column for U
distinct radii (92.5 KB at R 13, h 0.35, N 24, where U is 482 and all 24
columns take 2.2 MB; 429 KB at R 7, h 0.098, N 32), at most 8 MiB of
kept columns.  A new generator at the same N then costs a gather of the
table and one phase per row and level, and no Laguerre evaluation.

A function on the grid needs no family: on each ring of equal |alpha| the
overlap <D(alpha) eta, phi> is a short Fourier series in theta whose
coefficients come from the table (:func:`displaced_overlaps`, which the
transform reads, and :func:`autocorrelation`, the one home of the
orthogonality constant d).  An operator, a sum of rank-one projectors
over the grid, needs the family (:func:`coherent_family`), and the Gram
products and frame operator S that are kept next to it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_genlaguerre, gammaincinv, gammaln

SQRT2 = np.sqrt(2.0)
# the least float whose square is not finite
SQUARE_OVERFLOW = 2.0**512
# largest frame-operator condition number frame_solve inverts
MAX_FRAME_CONDITION = 1e6


class TruncationWarning(UserWarning):
    """A displacement amplitude reaches photon numbers near the cutoff."""


class FrameConditionError(ValueError):
    """Frame operator too ill-conditioned to invert; enlarge the grid."""


@dataclass(eq=False)
class FockContext:
    """Truncated Fock space spanned by the number states |0>, ..., |N-1>."""

    n_dim: int


def fock_space(n_dim: int) -> FockContext:
    """The Fock space truncated to ``n_dim`` >= 2 levels.

    Operators on it are built where they are used, from closed-form matrix
    elements (see :func:`displacement`); the context stores only N.
    """
    if n_dim < 2:
        raise ValueError(f"n_dim must be >= 2, got {n_dim}")
    return FockContext(n_dim=n_dim)


def low_block(ctx: FockContext) -> slice:
    """Fock block n <= N/2 on which truncated operators are trustworthy."""
    return slice(0, ctx.n_dim // 2 + 1)


# bytes of radial table columns a grid's family store keeps
_RADIAL_BYTES = 2**23


def row_blocks(n_rows: int, row_bytes: int):
    """Slices of range(n_rows), 128 KiB of rows each: heap-sized temporaries, not freshly mapped pages."""
    step = max(1, 2**17 // row_bytes)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _radial(x, m, n):
    """The part of <m|D(alpha)|n> that depends on alpha only through x = |alpha|^2.

    exp((ln lo! - ln hi!)/2 - x/2) L_lo^(hi-lo)(x), with lo, hi the smaller
    and larger of m, n.  Broadcasts over ``x``, ``m``, ``n``.
    """
    lo = np.minimum(m, n)
    hi = np.maximum(m, n)
    radial = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - x / 2.0)
    if not radial.all():
        # Where the exponential is 0 (x past about 1490 at N = 32, or lo! << hi!
        # past N of about 1000) the Laguerre factor can overflow, and 0 * inf is
        # NaN; it is taken as L_0(0) = 1 there, so the product is 0.
        zero = radial == 0
        lo, x = np.where(zero, 0, lo), np.where(zero, 0.0, x)
    return radial * eval_genlaguerre(lo, hi - lo, x)


def _real_displacement(r, m, n):
    """<m|D(r)|n> for real amplitudes r >= 0, over the shape of ``r`` followed by
    that of ``m`` and ``n`` broadcast: the radial factor of r^2 times r^|m-n|,
    negated above the diagonal where n - m is odd."""
    m, n = np.broadcast_arrays(m, n)
    k = np.abs(m - n)
    r = np.asarray(r, dtype=float)
    # each power of each radius once, not once per entry
    powers = (r[..., None] ** np.arange(k.max() + 1))[..., k]
    sign = np.where((m < n) & (k % 2 == 1), -1.0, 1.0)
    x = (r * r).reshape(r.shape + (1,) * k.ndim)
    if k.ndim == 2 and np.array_equal(m, n.T):
        # a square whose entry (j, i) swaps the levels of (i, j): _radial is symmetric
        # in m and n, so it is evaluated once per unordered pair and mirrored
        i, j = np.tril_indices(len(m))
        radial = np.empty(r.shape + k.shape)
        radial[..., i, j] = radial[..., j, i] = _radial(x[..., 0], m[i, j], n[i, j])
        return radial * (powers * sign)
    return _radial(x, m, n) * (powers * sign)


def _squares(alpha, r, n_dim: int) -> np.ndarray:
    """unit**(2**j) for 2**j < n_dim, on a new first axis, with unit = alpha / r and
    r = |alpha| component by component (1 where alpha is 0): repeated squares of
    ``unit``, each scaled back to modulus 1, so its modulus does not drift."""
    nonzero = r > 0
    safe = np.where(nonzero, r, 1.0)
    # never 0-d: a 0-d square would be a numpy scalar, whose division rounds otherwise
    unit = np.empty((1,) + np.shape(alpha), dtype=complex)
    unit.real = np.where(nonzero, alpha.real / safe, 1.0)
    unit.imag = alpha.imag / safe
    squares = [unit]
    while 2 ** len(squares) < n_dim:
        square = squares[-1] * squares[-1]
        squares.append(square / np.abs(square))
    return np.concatenate(squares)


def _phases(squares, n_dim: int) -> np.ndarray:
    """unit**m for m < n_dim on a new first axis, from the repeated squares of unit.

    Doubling: the powers [w, 2w) are the powers [0, w) times unit**w, so
    power m takes one product per bit of m, and its bits depend neither on
    ``n_dim`` nor on how the points of ``squares`` are split.  The power
    axis goes first so that each product runs along the points.
    """
    ph = np.empty((n_dim,) + squares.shape[1:], dtype=complex)
    ph[0] = 1.0
    for j, square in enumerate(squares):
        width = 2**j
        if width >= n_dim:
            break
        np.multiply(ph[: min(width, n_dim - width)], square, out=ph[width : 2 * width])
    return ph


def displacement(alpha, ctx: FockContext) -> np.ndarray:
    """N x N displacement matrices D(alpha), on two new last axes: broadcasts over ``alpha``.

    Entries are the exact infinite-dimensional matrix elements; column 0
    is the coherent-state expansion of the displaced vacuum.  Rotation
    covariance: with alpha = r e^(i theta),
    D(alpha) = e^(i theta a*a) D(r) e^(-i theta a*a), so the entry is
    ``_real_displacement(r, m, n)`` times e^(i (m - n) theta), the power
    (alpha / r)**|m - n|, conjugated above the diagonal.  Emits one
    :class:`TruncationWarning` when any mean photon number |alpha|^2
    exceeds the cutoff, where columns lose substantial norm.
    """
    alpha = np.asarray(alpha, dtype=complex)
    n_dim = ctx.n_dim
    r = np.abs(alpha)
    if (peak := float(r.max(initial=0.0)) ** 2) > n_dim:
        warnings.warn(
            f"|alpha|^2 = {peak:.2f} exceeds n_dim = {n_dim}; "
            "matrix columns are strongly truncated",
            TruncationWarning,
            stacklevel=2,
        )
    idx = np.arange(n_dim)
    m, n = idx[:, None], idx[None, :]
    rotation = np.moveaxis(_phases(_squares(alpha, r, n_dim), n_dim)[np.abs(m - n)], (0, 1), (-2, -1))
    rotation = np.where(m >= n, rotation, rotation.conj())
    # C order whatever the layout of alpha, so that products with the matrices keep their bits
    out = np.empty(alpha.shape + (n_dim, n_dim), dtype=complex)
    return np.multiply(_real_displacement(r, m, n), rotation, out=out)


@dataclass(eq=False)
class PhaseGrid:
    """Midpoint-rule lattice over a disk, with invariant-measure weights.

    Lattice coordinates are (i + 1/2) * spacing, so the point set is
    symmetric under (q, p) -> (-q, -p) and contains no point at the
    origin.  Each point carries weight spacing^2 / (2 pi), and the
    coherent amplitude alpha = (q + i p)/sqrt(2).  ``radii`` are the
    distinct |alpha|, ascending, and ``radii[radius_index[k]]`` is
    |alpha_k|.
    """

    points: np.ndarray
    weights: np.ndarray
    radius: float
    spacing: float
    # index of the point (iq, ip) at [iq + h, ip + h] with h = len(slots) // 2, -1 off the grid
    slots: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    radius_index: np.ndarray = field(repr=False)
    # the family store of the most recent generator and N on this grid
    _family: FamilyStore | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def q(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.points[:, 1]

    def locate(self, q, p):
        """(index, miss): the grid point each (q, p) snaps to, and where the snap misses.

        x snaps to its nearest lattice site (i + 1/2) * spacing, and misses when it is not
        finite or lies more than 1e-9 * max(1, |x|) from it.  The index is -1 where the
        site is off the grid, or so far out that i overflows.
        """
        half = len(self.slots) // 2
        sites, miss = [], False
        with np.errstate(invalid="ignore", over="ignore"):
            for x in (np.asarray(q, dtype=float), np.asarray(p, dtype=float)):
                i = np.rint(x / self.spacing - 0.5)
                far = np.abs((i + 0.5) * self.spacing - x) > 1e-9 * np.maximum(1.0, np.abs(x))
                # a finite x whose coordinate overflows is off the grid, not a miss
                miss = miss | ~np.isfinite(x) | (np.isfinite(i) & far)
                sites.append(i + half)
        inside = np.all([(s >= 0) & (s < 2 * half) for s in sites], axis=0)
        index = np.full(inside.shape, -1, dtype=np.intp)
        index[inside] = self.slots[tuple(s[inside].astype(np.intp) for s in sites)]
        return index, miss

    def reflections(self) -> np.ndarray:
        """The indices of the points x with q, p > 0, in grid order, and of their images -x,
        conj(x) and -conj(x), one image a row.  Site -1-i is site i negated bit for bit, as
        (-1-i + 1/2) h = -(i + 1/2) h, so reflecting an axis reverses that axis of ``slots``."""
        half = len(self.slots) // 2
        images = [self.slots[::sq, ::sp][half:, half:] for sq, sp in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
        return np.array([image[images[0] >= 0] for image in images])


@dataclass
class GammaFunctionSamples:
    """Samples of a phase-space function, tied to its grid."""

    values: np.ndarray
    grid: PhaseGrid

    def weighted_norm_sq(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.values) ** 2))


def build_grid(radius: float, spacing: float) -> PhaseGrid:
    """Lattice of cell midpoints covering the disk q^2 + p^2 <= radius^2."""
    if not 0 < radius < SQUARE_OVERFLOW:
        raise ValueError(f"radius must be positive and finite, with a finite square, got {radius}")
    if not 0 < spacing < radius:
        raise ValueError("need 0 < spacing < radius")
    half_cells = int(np.ceil(radius / spacing)) + 1
    idx = np.arange(-half_cells, half_cells)
    coords = (idx + 0.5) * spacing
    qq, pp = np.meshgrid(coords, coords, indexing="ij")
    # an outer site whose q^2 + p^2 overflows sums to inf, outside the disk
    with np.errstate(over="ignore"):
        mask = qq**2 + pp**2 <= radius**2
    points = np.column_stack([qq[mask], pp[mask]])
    weights = np.full(len(points), spacing**2 / (2.0 * np.pi))
    slots = np.full(mask.shape, -1, dtype=np.intp)
    slots[mask] = np.arange(len(points))
    alpha = (points[:, 0] + 1j * points[:, 1]) / SQRT2
    radii, radius_index = np.unique(np.abs(alpha), return_inverse=True)
    # read-only, so the grid cannot change under its stored family
    for arr in (points, weights, slots, alpha, radii, radius_index):
        arr.flags.writeable = False
    return PhaseGrid(points=points, weights=weights, radius=float(radius), spacing=float(spacing), slots=slots,
                     alpha=alpha, radii=radii, radius_index=radius_index)


def resolution_generator(kind: str, ctx: FockContext, *, n: int | None = None, r: float | None = None) -> np.ndarray:
    """Unit vector modeling the measuring instrument: 'ground', 'fock'
    (needs n < N) or 'squeezed' (needs |r| <= 1.5).

    The squeezed vacuum uses the even-photon closed form
    c_{2m} ~ (-tanh r)^m sqrt((2m)!)/(2^m m!) and is renormalized after
    truncation so the unit-norm invariant holds exactly.
    """
    vec = np.zeros(ctx.n_dim, dtype=complex)
    if kind == "ground":
        vec[0] = 1.0
    elif kind == "fock":
        if n is None or not 0 <= n < ctx.n_dim:
            raise ValueError(f"fock generator needs 0 <= n < {ctx.n_dim}, got {n}")
        vec[n] = 1.0
    elif kind == "squeezed":
        if r is None or not abs(r) <= 1.5:
            raise ValueError(f"squeezed generator needs |r| <= 1.5, got {r}")
        t = np.tanh(r)
        for m in range((ctx.n_dim + 1) // 2):
            log_mag = 0.5 * gammaln(2 * m + 1) - m * np.log(2.0) - gammaln(m + 1)
            vec[2 * m] = (-t) ** m * np.exp(log_mag)
        vec /= np.linalg.norm(vec)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return vec


@dataclass(eq=False)
class FamilyStore:
    """What a grid keeps for one N: the real displacement table, and the
    coherent family of one generator as far as it is built.

    ``reach`` counts the grid's radii that N allows, those up to
    :func:`_max_amplitude`; a row farther out is refused.  ``table[n]`` is
    the column T[:, :, n], T[u, m, n] = <m|D(grid.radii[u])|n>, over the
    grid's first radii, as many as the build that formed it reached; a
    column is kept while the kept columns fit ``_RADIAL_BYTES`` (see
    :func:`_column`).  ``family`` is K x N complex and read-only: row k
    holds D(alpha_k) eta where ``built[k]`` and zeros elsewhere (pages no
    built row reached are never touched); a store that only
    :func:`displaced_overlaps` has read has no family and no row built.
    ``frame`` is the frame operator S of the whole family, read-only, and
    ``condition`` its condition number, once :func:`frame_operator` has
    formed them.  A new generator replaces the family, ``built``, S and
    its condition number and keeps the table; a new N replaces the store.
    Only :func:`_store` makes a store, and only :func:`coherent_family`
    builds its rows.
    """

    n_dim: int
    reach: int
    built: np.ndarray
    table: dict = field(default_factory=dict)
    eta: bytes | None = None
    family: np.ndarray | None = None
    frame: np.ndarray | None = None
    condition: float | None = None


def _max_amplitude(n_dim: int) -> float:
    """Largest |alpha| whose power N - 1 stays below half the largest float."""
    return (np.finfo(float).max / 2) ** (1.0 / (n_dim - 1))


def _column(store: FamilyStore, radii: np.ndarray, n: int, count: int) -> np.ndarray:
    """T[:, :, n] over at least the first ``count`` ``radii``: the kept column when
    it spans them, else the column formed over them, which is kept (in place of
    a shorter one) while the kept columns, at full length (the store's
    ``reach`` radii), fit ``_RADIAL_BYTES``."""
    column = store.table.get(n)
    if column is not None and len(column) >= count:
        return column
    column = _real_displacement(radii[:count], np.arange(store.n_dim), n)
    if (len(store.table) + (n not in store.table)) * store.reach * store.n_dim * 8 <= _RADIAL_BYTES:
        store.table[n] = column
    return column


def _fill_rows(vec, grid: PhaseGrid, store: FamilyStore, todo: np.ndarray) -> None:
    """Write D(alpha_k) vec into the zero rows store.family[k] for k in ``todo`` (sorted, distinct).

    Row k is ph * sum_n T[r(k), :, n] vec_n conj(ph_n) over the support
    columns n of vec, in order, with ph_m = e^(i m theta_k): each column
    adds a gather of the real table times one coefficient per row, and
    the last one also multiplies by the phases, formed per row block of
    about 128 KiB from each row's repeated squares (see :func:`_phases`).
    Each column comes from :func:`_column`; one past the table's budget is
    formed for this build only.
    """
    n_dim = len(vec)
    support = np.flatnonzero(vec)
    if not (support.size and todo.size):
        return
    radius_index = grid.radius_index[todo]
    count = radius_index.max() + 1
    squares = _squares(grid.alpha[todo], grid.radii[radius_index], n_dim)
    blocks = []
    for part in row_blocks(todo.size, 16 * n_dim):
        dest = todo[part]
        if dest[-1] - dest[0] == dest.size - 1:
            dest = slice(dest[0], dest[-1] + 1)  # a run of rows: write through a view
        blocks.append((part, dest))
    coef = np.empty((todo.size, support.size), dtype=complex)
    for part, _ in blocks:
        coef[part] = vec[support] * _phases(squares[:, part], support[-1] + 1)[support].T.conj()
    fam = store.family
    # each entry sums its columns in support order, so no blocking changes a bit
    for j, n0 in enumerate(support):
        column = _column(store, grid.radii, n0, count)
        for part, dest in blocks:
            rows = column.take(radius_index[part], axis=0) * coef[part, j, None]
            if j:
                rows += fam[dest]
            if j == support.size - 1:
                rows *= _phases(squares[:, part], n_dim).T
            fam[dest] = rows


def _finite_levels(vec: np.ndarray, name: str) -> None:
    """Refuse a vector with a NaN or infinite level, in one line that names the first."""
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise ValueError(f"{name} is {vec[bad[0]]} at level {bad[0]}; it must be finite at every level")


def _store(vec: np.ndarray, grid: PhaseGrid, n_dim: int, rows=slice(0)) -> FamilyStore:
    """The grid's :class:`FamilyStore` for N, a new one (with no family) if the grid keeps
    none for this N, once the generator ``vec`` has N finite levels and no point of ``rows``
    (indices, a mask or a slice into the grid) lies past the store's ``reach``."""
    if vec.shape != (n_dim,):
        raise ValueError(f"generator has dim {vec.shape}, context has {n_dim}")
    _finite_levels(vec, "generator")
    store = grid._family
    if store is None or store.n_dim != n_dim:
        reach = int(np.searchsorted(grid.radii, _max_amplitude(n_dim), side="right"))
        store = grid._family = FamilyStore(n_dim=n_dim, reach=reach, built=np.zeros(len(grid), dtype=bool))
    count = grid.radius_index[rows].max(initial=-1) + 1
    if count > store.reach:
        raise ValueError(
            f"grid point at radius {SQRT2 * grid.radii[count - 1]:.3g} overflows alpha**{n_dim - 1}; "
            f"N = {n_dim} allows grid radii up to {SQRT2 * _max_amplitude(n_dim):.3g}"
        )
    return store


def coherent_family(eta, grid: PhaseGrid, ctx: FockContext, rows=None) -> np.ndarray:
    """Row k holds D(alpha_k) eta: the displaced-generator family over the grid.

    Rows are built from the factored closed form (see :func:`_fill_rows`),
    only the requested ones, and each at most once per grid and generator:
    the grid keeps the :class:`FamilyStore` of the most recent N and
    generator, and a call with another eta starts a new family on the
    same table, one with another N a new store.  The call builds the
    ``rows`` (indices or a mask into the grid, None for all) the store
    lacks and returns the stored K x N array, read-only, in which a row
    not built yet is zero.  Built rows are never written again, so a row
    once built never changes.  Raises ``ValueError`` if eta is not finite or
    a row to build lies so far out that |alpha|**(N - 1) would overflow.
    """
    vec = np.asarray(eta, dtype=complex)
    n_dim = ctx.n_dim
    store = _store(vec, grid, n_dim)
    if store.eta != vec.tobytes():
        family = np.zeros((len(grid), n_dim), dtype=complex)
        family.flags.writeable = False
        store.eta, store.family, store.frame, store.condition = vec.tobytes(), family, None, None
        store.built = np.zeros(len(grid), dtype=bool)
    wanted = np.zeros(len(grid), dtype=bool)
    wanted[slice(None) if rows is None else rows] = True
    todo = np.flatnonzero(wanted & ~store.built)
    if todo.size:
        # refused once the family is allocated: a family too large to hold fails first
        _store(vec, grid, n_dim, todo)
        store.family.flags.writeable = True
        try:
            _fill_rows(vec, grid, store, todo)
        finally:
            store.family.flags.writeable = False
        store.built[todo] = True
    return store.family


def displaced_overlaps(eta, phi, grid: PhaseGrid, ctx: FockContext) -> np.ndarray:
    """<D(alpha_k) eta, phi> at every grid point, read off the real displacement table
    without building the coherent family.

    With <m|D(r e^(i theta))|n> = T_mn(r) e^(i (m - n) theta), the overlap is
    sum_d e^(-i d theta) G_d(r) over the offsets d = m - n of a level m of
    phi's support and a level n of eta's, with
    G_d(r_u) = sum_(m - n = d) T[u, m, n] conj(eta_n) phi_m.  G is formed
    once, over the grid's distinct radii, from the table columns of eta's
    support (see :func:`_column`); each row block of about 128 KiB then
    gathers it by radius and sums it against the powers of its unit
    amplitudes (see :func:`_phases`), conjugated for d > 0.  Refuses what
    :func:`coherent_family` refuses, with the same messages, and a phi with
    a NaN or infinite level.
    """
    vec = np.asarray(eta, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    n_dim = ctx.n_dim
    if phi.shape != (n_dim,):
        raise ValueError(f"state has shape {phi.shape}, context dim is {n_dim}")
    store = _store(vec, grid, n_dim, slice(None))
    _finite_levels(phi, "state")
    out = np.zeros(len(grid), dtype=complex)
    left, right = np.flatnonzero(vec), np.flatnonzero(phi)
    if not (left.size and right.size):
        return out
    # the offsets m - n that occur (the even ones alone for two even generators)
    offsets = np.unique(right[None, :] - left[:, None])
    count = len(grid.radii)
    g = np.zeros((count, offsets.size), dtype=complex)
    for n in left:
        column = _column(store, grid.radii, n, count)
        g[:, np.searchsorted(offsets, right - n)] += column[:, right] * (np.conj(vec[n]) * phi[right])
    powers = np.abs(offsets)
    width = powers.max() + 1
    turned = offsets > 0
    for part in row_blocks(len(grid), 16 * offsets.size):
        radius_index = grid.radius_index[part]
        squares = _squares(grid.alpha[part], grid.radii[radius_index], width)
        terms = np.empty((radius_index.size, offsets.size), dtype=complex)
        np.take(_phases(squares, width).T, powers, axis=1, out=terms)
        np.conjugate(terms, out=terms, where=turned)
        terms *= g.take(radius_index, axis=0)
        # one row's terms summed along the row, so no blocking changes a bit
        out[part] = terms.sum(axis=1)
    return out


def weighted_gram(fam: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k |u_k><u_k| over the rows u_k of fam, exactly Hermitian.  One real product
    r = v^T diag(w) v on the float view v of fam, rows (Re u_k0, Im u_k0, Re u_k1, ...), gives entry (m, n)
    as r[2m, 2n] + r[2m+1, 2n+1] + i (r[2m+1, 2n] - r[2m, 2n+1]): the conjugate is a sign there, not a
    copy of fam.  The rows of nonzero weight are gathered into one buffer s, those of positive weight
    first, and scaled in place by sqrt|w|; r is then s+^T s+ - s-^T s- over the two parts of s, each a
    symmetric rank-k update, so r is exactly symmetric.  Rows of zero weight take no part."""
    v = np.ascontiguousarray(fam, dtype=complex).view(float)
    positive = np.flatnonzero(weights > 0)
    rows = np.concatenate([positive, np.flatnonzero(weights < 0)])
    s = v[rows]
    s *= np.sqrt(np.abs(weights[rows]))[:, None]
    plus, minus = s[: positive.size], s[positive.size :]
    r = plus.T @ plus - minus.T @ minus
    return (r[0::2, 0::2] + r[1::2, 1::2]) + 1j * (r[1::2, 0::2] - r[0::2, 1::2])


def frame_operator(eta, grid: PhaseGrid, ctx: FockContext) -> np.ndarray:
    """S = sum_k mu_k |D(alpha_k) eta><D(alpha_k) eta|, Hermitian positive and read-only: formed once per family
    by :func:`weighted_gram` and kept next to it in the grid's :class:`FamilyStore`, with its condition number."""
    fam = coherent_family(eta, grid, ctx)
    store = grid._family  # the store coherent_family just returned fam from
    if store.frame is None:
        frame = weighted_gram(fam, grid.weights)
        frame.flags.writeable = False
        evals = np.linalg.eigvalsh(frame)
        store.frame, store.condition = frame, evals[-1] / evals[0] if evals[0] > 0 else np.inf
    return store.frame


def frame_solve(eta, grid: PhaseGrid, ctx: FockContext, rhs: np.ndarray) -> np.ndarray:
    """S^-1 rhs by one LU solve; raises :class:`FrameConditionError` if cond(S) > ``MAX_FRAME_CONDITION``."""
    frame = frame_operator(eta, grid, ctx)
    if not grid._family.condition <= MAX_FRAME_CONDITION:
        raise FrameConditionError(f"frame operator condition number exceeds {MAX_FRAME_CONDITION:.0e}; the grid does "
                                  "not cover the truncated Fock space - increase the radius or lower the dimension")
    return np.linalg.solve(frame, rhs)


def autocorrelation(eta, grid: PhaseGrid, ctx: FockContext):
    """(integrand, integral, d): |<D(alpha_k) eta, eta>|^2 over the grid (see :func:`displaced_overlaps`),
    its integral over the invariant measure, and the orthogonality constant d = |eta|^4 / integral.
    Refuses an integral of 0 (eta = 0), for which d is not defined."""
    vec = np.asarray(eta, dtype=complex)
    integrand = np.abs(displaced_overlaps(vec, vec, grid, ctx)) ** 2
    integral = float(np.sum(grid.weights * integrand))
    if not integral > 0:
        raise ValueError(f"generator autocorrelation integrates to {integral}; d = |eta|^4 / integral is undefined")
    return integrand, integral, float(np.linalg.norm(vec) ** 4 / integral)


def _commutator_sample_radius(ctx: FockContext, eta_vec: np.ndarray) -> float:
    """Largest amplitude r that keeps 4-fold displacement products of eta inside the truncation
    window: P(a, (2r)^2) = 1e-18 inverted, with a the Fock levels left above eta's support."""
    support = np.nonzero(np.abs(eta_vec) > 1e-12)[0]
    top = int(support[-1]) if len(support) else 0
    a = max(ctx.n_dim - top - 2, 2)
    return min(np.sqrt(gammaincinv(a, 1e-18)) / 2.0, 1.0)


# largest commutator deviation that still counts as a central phase
BETA_TOL = 1e-6
# point pairs whose displacement matrices the commutator check builds at once
_PAIR_BLOCK = 32
# largest autocorrelation allowed on the outermost grid ring
BOUNDARY_TOL = 1e-7


@dataclass
class AdmissibilityReport:
    integral: float
    d_constant: float
    beta_ok: bool
    beta_max_deviation: float
    beta_sample_radius: float


def admissibility(
    eta, grid: PhaseGrid, ctx: FockContext, *, trials: int = 50, seed: int = 0
) -> AdmissibilityReport:
    """Square-integrability of the generator autocorrelation, and the
    resulting orthogonality constant 1/d = |eta|^-4 * integral.

    Preconditions: the integrand must have decayed below ``BOUNDARY_TOL``
    on the outermost grid ring, otherwise the quadrature misses mass and
    the call fails naming the radius that would be needed.

    The commutator check draws ``trials`` point pairs and verifies that
    D(-x) D(-y) D(x) D(y) acts on eta as a scalar.  Amplitudes stay below
    ``beta_sample_radius`` so truncation cannot fake a failure: the radius
    is 0.61 for the ground state at N = 24 but 1.9e-5 once eta's support
    reaches the cutoff (squeezed:0.5 at N = 24 or 32), where ``beta_ok``
    says almost nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    vec = np.asarray(eta, dtype=complex)
    integrand, integral, d_constant = autocorrelation(vec, grid, ctx)

    r = np.hypot(grid.q, grid.p)
    rim = r >= grid.radius - grid.spacing
    rim_max = float(integrand[rim].max()) if rim.any() else 0.0
    if rim_max > BOUNDARY_TOL:
        # Gaussian-decay extrapolation: integrand ~ exp(-c r^2)
        needed = grid.radius * np.sqrt(np.log(BOUNDARY_TOL) / np.log(max(rim_max, 1e-300)))
        raise ValueError(
            f"integrand at the grid boundary is {rim_max:.3e} > {BOUNDARY_TOL:.1e}; "
            f"increase the grid radius to about {needed:.1f}"
        )

    rng = np.random.default_rng(seed)
    r_beta = _commutator_sample_radius(ctx, vec)
    idx = np.arange(ctx.n_dim)
    # D(-a) is D(a) with the entries of odd m - n negated: the phase e^(i (m - n) theta) turned by pi
    flip = np.where((idx[:, None] - idx[None, :]) % 2 == 1, -1.0, 1.0)
    max_dev = 0.0
    for start in range(0, trials, _PAIR_BLOCK):
        # per pair: two radii, then two angles, as uniform draws
        u = rng.uniform(size=(min(_PAIR_BLOCK, trials - start), 2, 2))
        amps = r_beta * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        # to the point (q, p) = sqrt(2) (Re a, Im a) and back, as the pinned report bits were drawn
        alphas = (SQRT2 * amps.real + 1j * (SQRT2 * amps.imag)) / SQRT2
        dx, dy = displacement(alphas.T, ctx)
        # D(-x) D(-y) D(x) D(y) eta for every pair at once
        v = vec[:, None]
        for d in (dy, dx, flip * dy, flip * dx):
            v = d @ v
        v = v[..., 0]
        beta = np.sum(v * vec.conj(), axis=-1)
        max_dev = max(max_dev, float(np.linalg.norm(v - beta[:, None] * vec, axis=-1).max()))
    return AdmissibilityReport(
        integral=integral,
        d_constant=d_constant,
        beta_ok=max_dev <= BETA_TOL,
        beta_max_deviation=max_dev,
        beta_sample_radius=float(r_beta),
    )

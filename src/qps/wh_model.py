"""Truncated Fock-space model of the Weyl-Heisenberg kinematics.

Units are dimensionless (hbar = 1): q = (a + a*)/sqrt(2), p = (a - a*)/
(i sqrt(2)), the phase-space point (q, p) maps to the coherent amplitude
alpha = (q + i p)/sqrt(2), and the invariant measure is dq dp / (2 pi).
With these choices the coherent family resolves the identity with
constant exactly 1.

Displacement matrix elements are the closed-form values of the
untruncated operator (associated-Laguerre form), truncated to N x N.
Every stored entry is therefore exact up to floating point, and only
quantities that probe the cut edge feel the truncation; operations
advertise validity on the low Fock block n <= N/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import eval_genlaguerre, gammainc, gammaln

SQRT2 = np.sqrt(2.0)


class TruncationWarning(UserWarning):
    """A displacement amplitude reaches photon numbers near the cutoff."""


@dataclass(eq=False)
class FockContext:
    """Truncated Fock space with ladder and quadrature matrices."""

    n_dim: int
    lowering: np.ndarray
    raising: np.ndarray
    q_op: np.ndarray
    p_op: np.ndarray


def fock_space(n_dim: int) -> FockContext:
    """Ladder operators <m|a|n> = sqrt(n) delta_{m,n-1} and the quadratures."""
    if n_dim < 2:
        raise ValueError(f"n_dim must be >= 2, got {n_dim}")
    a = np.zeros((n_dim, n_dim), dtype=complex)
    ns = np.arange(1, n_dim)
    a[ns - 1, ns] = np.sqrt(ns)
    ad = a.conj().T
    q = (a + ad) / SQRT2
    p = (a - ad) / (1j * SQRT2)
    return FockContext(n_dim=n_dim, lowering=a, raising=ad, q_op=q, p_op=p)


def low_block(ctx: FockContext) -> slice:
    """Fock block n <= N/2 on which truncated operators are trustworthy."""
    return slice(0, ctx.n_dim // 2 + 1)


# bytes of radial tables coherent_family holds at once
_RADIAL_BYTES = 2**23


def _radial(x, m, n):
    """The part of <m|D(alpha)|n> that depends on alpha only through x = |alpha|^2.

    exp((ln lo! - ln hi!)/2 - x/2) L_lo^(hi-lo)(x), with lo, hi the smaller
    and larger of m, n.  Broadcasts over ``x``, ``m``, ``n``.
    """
    lo = np.minimum(m, n)
    hi = np.maximum(m, n)
    radial = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - x / 2.0)
    return radial * eval_genlaguerre(lo, hi - lo, x)


def _displacement_elements(alpha, m, n):
    """<m|D(alpha)|n> of the infinite-dimensional displacement operator.

    Broadcasts over ``alpha``, ``m``, ``n``.  Uses the associated-Laguerre
    closed form for m >= n and the adjoint relation D(alpha)* = D(-alpha)
    below the diagonal.
    """
    alpha = np.asarray(alpha, dtype=complex)
    m = np.asarray(m)
    n = np.asarray(n)
    k = np.abs(m - n)
    amp = np.where(m >= n, alpha**k, (-np.conj(alpha)) ** k)
    return _radial(np.abs(alpha) ** 2, m, n) * amp


def displacement(alpha: complex, ctx: FockContext) -> np.ndarray:
    """N x N displacement matrix for coherent amplitude ``alpha``.

    Entries are the exact infinite-dimensional matrix elements; column 0
    is the coherent-state expansion of the displaced vacuum.  Emits a
    :class:`TruncationWarning` once the mean photon number |alpha|^2
    exceeds the cutoff, where columns lose substantial norm.
    """
    alpha = complex(alpha)
    if abs(alpha) ** 2 > ctx.n_dim:
        warnings.warn(
            f"|alpha|^2 = {abs(alpha) ** 2:.2f} exceeds n_dim = {ctx.n_dim}; "
            "matrix columns are strongly truncated",
            TruncationWarning,
            stacklevel=2,
        )
    idx = np.arange(ctx.n_dim)
    return _displacement_elements(alpha, idx[:, None], idx[None, :])


@dataclass(eq=False)
class PhaseGrid:
    """Midpoint-rule lattice over a disk, with invariant-measure weights.

    Lattice coordinates are (i + 1/2) * spacing, so the point set is
    symmetric under (q, p) -> (-q, -p) and contains no point at the
    origin.  Each point carries weight spacing^2 / (2 pi).
    """

    points: np.ndarray
    weights: np.ndarray
    radius: float
    spacing: float
    iq: np.ndarray = field(repr=False)
    ip: np.ndarray = field(repr=False)
    _index: dict | None = field(default=None, init=False, repr=False)
    # (key, family) of the most recent coherent_family call on this grid
    _family: tuple | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def q(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def p(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def alpha(self) -> np.ndarray:
        """Coherent amplitudes (q + i p)/sqrt(2) of the grid points."""
        return (self.points[:, 0] + 1j * self.points[:, 1]) / SQRT2

    def lookup(self, iq: int, ip: int):
        """Index of the lattice point with integer coordinates, or None."""
        if self._index is None:
            self._index = {ij: k for k, ij in enumerate(zip(self.iq.tolist(), self.ip.tolist()))}
        return self._index.get((iq, ip))


def build_grid(radius: float, spacing: float) -> PhaseGrid:
    """Lattice of cell midpoints covering the disk q^2 + p^2 <= radius^2."""
    if not 0 < radius < np.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if not 0 < spacing < radius:
        raise ValueError("need 0 < spacing < radius")
    half_cells = int(np.ceil(radius / spacing)) + 1
    idx = np.arange(-half_cells, half_cells)
    coords = (idx + 0.5) * spacing
    qq, pp = np.meshgrid(coords, coords, indexing="ij")
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    mask = qq**2 + pp**2 <= radius**2
    points = np.column_stack([qq[mask], pp[mask]])
    weights = np.full(len(points), spacing**2 / (2.0 * np.pi))
    iq, ip = ii[mask], jj[mask]
    # read-only, so the grid cannot change under its stored family
    for arr in (points, weights, iq, ip):
        arr.flags.writeable = False
    return PhaseGrid(
        points=points,
        weights=weights,
        radius=float(radius),
        spacing=float(spacing),
        iq=iq,
        ip=ip,
    )


@dataclass
class ResolutionGenerator:
    """Unit vector modeling the measuring instrument."""

    vector: np.ndarray
    kind: str


def resolution_generator(kind: str, ctx: FockContext, *, n: int | None = None, r: float | None = None) -> ResolutionGenerator:
    """Build a generator: 'ground', 'fock' (needs n < N), 'squeezed' (needs |r| <= 1.5).

    The squeezed vacuum uses the even-photon closed form
    c_{2m} ~ (-tanh r)^m sqrt((2m)!)/(2^m m!) and is renormalized after
    truncation so the unit-norm invariant holds exactly.
    """
    vec = np.zeros(ctx.n_dim, dtype=complex)
    if kind == "ground":
        vec[0] = 1.0
        label = "ground"
    elif kind == "fock":
        if n is None or not 0 <= n < ctx.n_dim:
            raise ValueError(f"fock generator needs 0 <= n < {ctx.n_dim}, got {n}")
        vec[n] = 1.0
        label = f"fock({n})"
    elif kind == "squeezed":
        if r is None or not abs(r) <= 1.5:
            raise ValueError(f"squeezed generator needs |r| <= 1.5, got {r}")
        t = np.tanh(r)
        for m in range(ctx.n_dim // 2 + 1):
            if 2 * m >= ctx.n_dim:
                break
            log_mag = 0.5 * gammaln(2 * m + 1) - m * np.log(2.0) - gammaln(m + 1)
            vec[2 * m] = (-t) ** m * np.exp(log_mag)
        vec /= np.linalg.norm(vec)
        label = f"squeezed({r})"
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return ResolutionGenerator(vector=vec, kind=label)


def generator_vector(eta) -> np.ndarray:
    """The vector of a :class:`ResolutionGenerator`, or ``eta`` itself."""
    if isinstance(eta, ResolutionGenerator):
        return eta.vector
    return np.asarray(eta, dtype=complex)


def coherent_family(eta, grid: PhaseGrid, ctx: FockContext) -> np.ndarray:
    """Row k holds D(alpha_k) eta: the displaced-generator family over the grid.

    Only the columns where eta has support are evaluated.  Each entry of
    such a column is a radial factor of |alpha|^2 times a power of alpha
    (on and below the diagonal) or of -conj(alpha) (above it).  The radial
    factors are evaluated once per distinct |alpha|^2 of the grid, and the
    powers once per row block for all columns, so a column costs a gather
    and a product per entry.  The grid keeps the most recent family (K x N
    complex entries), keyed by N and the bytes of eta: a repeat call
    returns that same array, read-only, and a call with another key
    replaces it.
    """
    vec = np.asarray(generator_vector(eta), dtype=complex)
    n_dim = ctx.n_dim
    if vec.shape != (n_dim,):
        raise ValueError(f"generator has dim {vec.shape}, context has {n_dim}")
    key = (n_dim, vec.tobytes())
    stored = grid._family
    if stored is not None and stored[0] == key:
        return stored[1]
    fam = np.zeros((len(grid), n_dim), dtype=complex)
    support = np.nonzero(np.abs(vec) > 0)[0]
    if support.size:
        alphas = grid.alpha[:, None]
        # symmetric lattices repeat each radius, often many times over
        xs, radius_index = np.unique(np.abs(grid.alpha) ** 2, return_inverse=True)
        # One radial table is len(xs) x N floats; the columns are taken in
        # chunks whose tables fit in _RADIAL_BYTES together, so a wide
        # support does not hold all of them at once.
        chunk = max(1, _RADIAL_BYTES // (8 * xs.size * n_dim))
        # Row blocks of about 128 KiB of complex entries: temporaries that
        # small are reused from the heap, while whole-grid ones are mapped and
        # faulted in afresh on every call.  Every entry still sums its columns
        # in support order, so it depends on neither blocking.
        block = max(1, 2**17 // (16 * n_dim))
        for first in range(0, support.size, chunk):
            cols = support[first : first + chunk]
            radials = [_radial(xs[:, None], np.arange(n_dim)[None, :], n0) for n0 in cols]
            top = cols[-1]
            up_exps = np.arange(n_dim - cols[0])
            down_exps = np.arange(top, 0, -1)
            for start in range(0, len(grid), block):
                rows = slice(start, start + block)
                # column top + e holds the power that <m|D|n0> takes for
                # m - n0 = e: (-conj alpha)^-e above the diagonal, alpha^e on
                # and below it
                powers = np.concatenate(
                    [(-np.conj(alphas[rows])) ** down_exps, alphas[rows] ** up_exps], axis=1
                )
                block_radii = radius_index[rows]
                for n0, radial in zip(cols, radials):
                    amp = powers[:, top - n0 : top - n0 + n_dim]
                    fam[rows] += vec[n0] * (radial.take(block_radii, axis=0) * amp)
    fam.flags.writeable = False
    grid._family = (key, fam)
    return fam


def autocorrelation_integrand(eta, grid: PhaseGrid, ctx: FockContext) -> np.ndarray:
    """|<D(alpha_k) eta, eta>|^2 sampled over the grid."""
    vec = generator_vector(eta)
    fam = coherent_family(vec, grid, ctx)
    overlap = fam.conj() @ vec
    return np.abs(overlap) ** 2


def central_phase_deviation(x, y, eta, ctx: FockContext):
    """Apply the displacement commutator of two phase-space points to eta.

    Returns (beta, deviation): the scalar the result is proportional to,
    and the norm distance from that multiple of eta.  For the
    Weyl-Heisenberg family the commutator is a central phase, so the
    deviation is pure truncation error.
    """
    vec = generator_vector(eta)
    dx = displacement((x[0] + 1j * x[1]) / SQRT2, ctx)
    dy = displacement((y[0] + 1j * y[1]) / SQRT2, ctx)
    # D(-a) equals D(a)^H entry by entry, and a contiguous copy multiplies bit for bit alike
    v = vec
    for d in (dy, dx, np.ascontiguousarray(dy.conj().T), np.ascontiguousarray(dx.conj().T)):
        v = d @ v
    beta = np.vdot(vec, v)
    deviation = float(np.linalg.norm(v - beta * vec))
    return beta, deviation


def _commutator_sample_radius(ctx: FockContext, eta_vec: np.ndarray) -> float:
    """Largest coherent amplitude that keeps 4-fold displacement products
    of eta numerically inside the truncation window (budgeted tail)."""
    support = np.nonzero(np.abs(eta_vec) > 1e-12)[0]
    top = int(support[-1]) if len(support) else 0
    a = max(ctx.n_dim - top - 2, 2)
    budget = 1e-18
    lo, hi = 0.0, float(ctx.n_dim)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gammainc(a, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return min(np.sqrt(lo) / 2.0, 1.0)


@dataclass
class AdmissibilityReport:
    integral: float
    d_constant: float
    beta_ok: bool
    beta_max_deviation: float


def admissibility(
    eta,
    grid: PhaseGrid,
    ctx: FockContext,
    *,
    trials: int = 50,
    seed: int = 0,
    beta_tol: float = 1e-6,
    boundary_tol: float = 1e-7,
) -> AdmissibilityReport:
    """Square-integrability of the generator autocorrelation, and the
    resulting orthogonality constant 1/d = |eta|^-4 * integral.

    Preconditions: the integrand must have decayed below ``boundary_tol``
    on the outermost grid ring, otherwise the quadrature misses mass and
    the call fails naming the radius that would be needed.

    The commutator check draws ``trials`` point pairs, builds D(x) and
    D(y) once per pair, and verifies that their commutator acts on eta as
    a scalar.  Amplitudes stay small enough that truncation cannot fake a
    failure: the radius is 0.61 for the ground state at N = 24 but 1.9e-5
    once eta's support reaches the cutoff (squeezed:0.5 at N = 24 or 32),
    where ``beta_ok`` says almost nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    vec = generator_vector(eta)
    norm = np.linalg.norm(vec)
    integrand = autocorrelation_integrand(vec, grid, ctx)

    r = np.hypot(grid.q, grid.p)
    rim = r >= grid.radius - grid.spacing
    rim_max = float(integrand[rim].max()) if rim.any() else 0.0
    if rim_max > boundary_tol:
        # Gaussian-decay extrapolation: integrand ~ exp(-c r^2)
        needed = grid.radius * np.sqrt(np.log(boundary_tol) / np.log(max(rim_max, 1e-300)))
        raise ValueError(
            f"integrand at the grid boundary is {rim_max:.3e} > {boundary_tol:.1e}; "
            f"increase the grid radius to about {needed:.1f}"
        )

    integral = float(np.sum(grid.weights * integrand))
    d_constant = float(norm**4 / integral)

    rng = np.random.default_rng(seed)
    r_beta = _commutator_sample_radius(ctx, vec)
    max_dev = 0.0
    for _ in range(trials):
        amps = r_beta * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        x = (SQRT2 * amps[0].real, SQRT2 * amps[0].imag)
        y = (SQRT2 * amps[1].real, SQRT2 * amps[1].imag)
        _, dev = central_phase_deviation(x, y, vec, ctx)
        max_dev = max(max_dev, dev)
    return AdmissibilityReport(
        integral=integral,
        d_constant=d_constant,
        beta_ok=max_dev <= beta_tol,
        beta_max_deviation=max_dev,
    )

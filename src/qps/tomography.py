"""State tomography through the coherent-state POVM.

The displaced-generator densities T(x) = |u_x><u_x| give every state a
classical probability density on the grid (the smoothed phase-space
density of the state).  When the family spans the space of Hermitian
operators -- rank N^2 of the vectorized family -- those probabilities
determine the state, and a constrained least squares inverts them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .localization import quantize, symbol_values
from .wh_model import SQRT2, FockContext, GammaFunctionSamples, PhaseGrid, coherent_family, row_blocks

# singular values below this fraction of the largest count as zero in a rank
SVD_CUTOFF = 1e-10


@dataclass
class DensityOperator:
    """Positive, unit-trace Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density operator must be square")
        if not np.isfinite(m).all():
            raise ValueError("density operator has a NaN or infinite entry")
        if np.max(np.abs(m - m.conj().T)) > 1e-9:
            raise ValueError("density operator must be Hermitian")
        evals = np.linalg.eigvalsh(m)
        if evals[0] < -1e-9:
            raise ValueError(f"density operator has negative eigenvalue {evals[0]}")
        if abs(evals.sum() - 1.0) > 1e-9:
            raise ValueError(f"density operator trace is {evals.sum()}, not 1")
        self.matrix = m

    @classmethod
    def pure(cls, vec) -> "DensityOperator":
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> DensityOperator:
    """Random mixed state: Ginibre purification of the requested rank."""
    rank = n if rank is None else rank
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def classical_density(rho: DensityOperator, eta, grid: PhaseGrid, ctx: FockContext) -> GammaFunctionSamples:
    """Pointwise Tr(rho T(x_k)) = <u_k| rho |u_k>: real, nonnegative by positivity.

    With v_k the float view (Re u_k0, Im u_k0, Re u_k1, ...) of u_k and M the
    2N x 2N real form of rho (each entry a + ib a block [[a, -b], [b, a]]),
    <u_k| rho |u_k> = v_k^T M v_k: one real product per row block.
    """
    v = coherent_family(eta, grid, ctx).view(float)
    m = np.empty((2 * ctx.n_dim,) * 2)
    m[0::2, 0::2] = m[1::2, 1::2] = rho.matrix.real
    m[1::2, 0::2] = rho.matrix.imag
    m[0::2, 1::2] = -rho.matrix.imag
    vals = [np.einsum("ki,ki->k", v[part] @ m, v[part]) for part in row_blocks(len(grid), 16 * ctx.n_dim)]
    return GammaFunctionSamples(values=np.concatenate(vals), grid=grid)


def expectation_pair(rho: DensityOperator, f, eta, grid: PhaseGrid, ctx: FockContext):
    """(quantum, classical) expectations of a symbol; equal up to reassociation.

    Both numbers are the same finite double sum over grid points and
    matrix entries, accumulated in different orders.
    """
    vals = symbol_values(f, grid)
    quantum = float(np.trace(rho.matrix @ quantize(vals, eta, grid, ctx)).real)
    density = classical_density(rho, eta, grid, ctx)
    classical = float(np.sum(grid.weights * vals * density.values))
    return quantum, classical


def vectorize_hermitian(a: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Layout: the N diagonal entries, then sqrt(2) Re a_ij for all pairs i < j
    in row-major order, then sqrt(2) Im a_ij in that order.  The scaling makes
    the map preserve Frobenius inner products, so rank and least-squares
    decisions happen in the operator geometry.
    """
    a = np.asarray(a)
    n = a.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    off = a[iu, ju]
    return np.concatenate([a.diagonal().real, SQRT2 * off.real, SQRT2 * off.imag])


def unvectorize_hermitian(v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n * n,):
        raise ValueError(f"expected {n * n} coordinates, got {v.shape}")
    iu, ju = np.triu_indices(n, k=1)
    m = n * (n - 1) // 2
    a = np.zeros((n, n), dtype=complex)
    a[np.arange(n), np.arange(n)] = v[:n]
    off = (v[n : n + m] + 1j * v[n + m :]) / SQRT2
    a[iu, ju] = off
    a[ju, iu] = off.conj()
    return a


def _family_rows(eta, grid: PhaseGrid, ctx: FockContext, points=slice(None)):
    """The vectorized rank-one densities |u_k><u_k| of the grid points ``points`` (indices
    into the grid, all by default), a block of about 128 KiB of rows at a time: yields
    (part, diagonal, off_diagonal), the block's slice of ``points`` and its rows' N
    diagonal and N^2 - N other coordinates."""
    required = ctx.n_dim**2
    if len(grid) < required:
        raise ValueError(
            f"grid has {len(grid)} points but {required} operators are needed "
            "to span the Hermitian space"
        )
    fam = coherent_family(eta, grid, ctx, rows=points)[points]
    n = ctx.n_dim
    iu, ju = np.triu_indices(n, k=1)
    for part in row_blocks(len(fam), 8 * n * n):
        cross = fam[part, iu] * fam[part, ju].conj()
        yield part, np.abs(fam[part]) ** 2, np.concatenate([SQRT2 * cross.real, SQRT2 * cross.imag], axis=1)


@dataclass
class CompletenessReport:
    gram_rank: int
    required: int
    complete: bool
    smallest_kept_singular_value: float
    gap_ratio: float
    singular_values: np.ndarray


def operator_family_rank(operators) -> CompletenessReport:
    """Numerical rank of a family of Hermitian operators in operator space."""
    rows = np.array([vectorize_hermitian(op) for op in operators])
    return _rank_report(np.linalg.svd(rows, compute_uv=False), rows.shape[1])


def _rank_report(svals: np.ndarray, nsq: int) -> CompletenessReport:
    """Rank report of a matrix with ``nsq`` columns from its singular values, descending."""
    kept = svals > SVD_CUTOFF * svals[0]
    rank = int(np.sum(kept))
    smallest_kept = float(svals[rank - 1]) if rank else 0.0
    # ratio of the smallest kept to the largest discarded singular value
    if rank < len(svals):
        gap = float(svals[rank - 1] / max(svals[rank], 1e-300))
    else:
        gap = float("inf")
    return CompletenessReport(
        gram_rank=rank,
        required=nsq,
        complete=rank == nsq,
        smallest_kept_singular_value=smallest_kept,
        gap_ratio=gap,
        singular_values=svals,
    )


def completeness_rank(eta, grid: PhaseGrid, ctx: FockContext) -> CompletenessReport:
    """Rank test of the POVM densities over the grid: the report of the solve's factorization."""
    return _factor(np.zeros(len(grid)), eta, grid, ctx)[-1]


class IncompleteFamilyError(ValueError):
    def __init__(self, report: CompletenessReport):
        self.report = report
        super().__init__(
            f"operator family has rank {report.gram_rank} < {report.required}; "
            "state reconstruction is underdetermined"
        )


@dataclass
class ReconstructionResult:
    rho: DensityOperator
    residual: float
    completeness: CompletenessReport


# The characters of the reflection group {1, Pi, C, Pi C}, Pi: alpha -> -alpha and
# C: alpha -> conj(alpha), one a row, over the images x, -x, conj(x), -conj(x) of a
# point.  Row c combines the four image rows into 2 x the row of x on the coordinates
# of class c and zero elsewhere: (even, Re) with the diagonal, (odd, Re), (even, Im)
# and (odd, Im), by the parity of i + j of the entry (i, j).
_CHARACTERS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


def _reflection_images(eta, grid: PhaseGrid):
    """The grid's reflections when they split the solve (eta real, of one parity), else None."""
    vec = np.asarray(eta, dtype=complex)
    if vec.imag.any() or np.unique(np.flatnonzero(vec) % 2).size > 1:
        return None
    return grid.reflections()


def _factor(probs, eta, grid: PhaseGrid, ctx: FockContext):
    """(blocks, traceless, report): the unit-trace system of ``probs`` in reflection blocks (see
    :func:`reconstruct_state`) as (first, cols, r), r its QR triangle; the diagonal's traceless basis; the report."""
    n, nsq = ctx.n_dim, ctx.n_dim**2
    images = _reflection_images(eta, grid)
    if images is None:
        # one block: every point and every coordinate, the probabilities as given
        points, scale, rhs, classes = slice(None), 1.0, probs[None], np.zeros(nsq - n, dtype=int)
    else:
        iu, ju = np.triu_indices(n, k=1)
        odd = (iu + ju) % 2
        points, scale, rhs = images[0], 2.0, 0.5 * (_CHARACTERS @ probs[images])
        classes = np.concatenate([odd, 2 + odd])
    # per block: its first off-diagonal column (block 0 leads with the n - 1 traceless
    # diagonal coordinates and ends with the trace column), the off-diagonal
    # coordinates it solves for, and its system [rows | rhs]
    blocks = []
    for c, b in enumerate(rhs):
        cols = np.flatnonzero(classes == c)
        first = n - 1 if c == 0 else 0
        system = np.empty((b.size, first + cols.size + (c == 0) + 1), order="F")
        system[:, -1] = b
        blocks.append((first, cols, system))
    diagonal = np.empty((rhs.shape[1], n))
    for part, diag, off in _family_rows(eta, grid, ctx, points):
        np.multiply(diag, scale, out=diagonal[part])
        for first, cols, system in blocks:
            np.multiply(off[:, cols], scale, out=system[part, first : first + cols.size])
    traceless = np.linalg.svd(np.ones((1, n)))[2][1:].T
    system = blocks[0][2]
    np.matmul(diagonal, traceless, out=system[:, : n - 1])
    trace = diagonal.sum(axis=1)
    system[:, -2] = trace / np.sqrt(n)
    system[:, -1] -= trace / n

    for i, (first, cols, system) in enumerate(blocks):
        # in place on system.T, its C-ordered view, with the workspace np.linalg.qr queries: its bits
        m, width = system.shape
        tau, work = np.empty(min(m, width)), np.empty(1)
        lapack_lite.dgeqrf(m, width, system.T, m, tau, work, -1, 0)
        work = np.empty(int(work[0]))
        lapack_lite.dgeqrf(m, width, system.T, m, tau, work, work.size, 0)
        blocks[i] = first, cols, np.triu(system[:width])
    svals = [np.linalg.svd(r[: r.shape[1] - 1, : r.shape[1] - 1], compute_uv=False) for _, _, r in blocks]
    # a block with fewer rows than unknowns lacks its zero singular values
    svals = np.concatenate([*svals, np.zeros(nsq - sum(map(len, svals)))])
    return blocks, traceless, _rank_report(np.sort(svals)[::-1], nsq)


def reconstruct_state(probabilities, eta, grid: PhaseGrid, ctx: FockContext) -> ReconstructionResult:
    """Trace-constrained least squares for rho from Tr(rho T(x_k)) samples.

    The unit-trace constraint is eliminated: x = x0 + Q y with x0 the
    minimum-norm unit-trace point and Q an orthonormal basis of the
    traceless coordinates (only the diagonal ones change basis).  One QR of
    [rows @ Q | trace column | probs - rows @ x0], in place by numpy's own
    LAPACK (scipy's would start a second BLAS thread pool), kept as its
    triangle r, gives the rank report, from the singular values of its
    leading N^2 triangle, and y, by back substitution: the rows' condition
    number is never squared.

    The lattice is invariant under Pi: alpha -> -alpha and C: alpha ->
    conj(alpha).  For a real eta of parity s, u(-alpha) = s Pi u(alpha)
    and u(conj(alpha)) = conj(u(alpha)), so the row at -x is the row at x
    with the coordinates of odd i + j negated, and the row at conj(x) the
    row at x with the imaginary ones negated.  Combining the four image
    rows of each point of the quadrant q, p > 0 by 1/2 the characters of
    {1, Pi, C, Pi C} (an orthogonal map of the rows) splits the system
    into four blocks, one per coordinate class: (even, Re) with the
    diagonal and the trace column, (odd, Re), (even, Im) and (odd, Im),
    each of K/4 rows, 2 x the quadrant rows, and about N^2/4 unknowns.
    Each block takes its own QR, triangle SVD and back substitution; the
    rank report is the sorted union of the blocks' singular values, which
    are those of the whole system (:func:`completeness_rank` reports it).
    The split applies when eta is real with support in one parity; every
    ``build_grid`` lattice is a union of these orbits, as its site -1-i is
    site i negated.  Otherwise the solve is one block, the whole system.
    Only the rows of the blocks' points are built.

    After the solve, the estimate is repaired onto the density cone
    (negative eigenvalues clipped, trace renormalized); noiseless inputs
    pass through the repair unchanged.  The returned residual is the
    post-repair misfit, read off the triangles: |A z - b| = |r (z, -1)| for
    a block [A | b] and the estimate's coordinates z in it, so heavily
    inconsistent inputs show up loudly.  Raises ``ValueError`` naming the
    first grid point whose probability is NaN or infinite.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (len(grid),):
        raise ValueError("need one probability value per grid point")
    bad = np.flatnonzero(~np.isfinite(probs))
    if bad.size:
        raise ValueError(f"probability is {probs[bad[0]]} at grid point {bad[0]}; it must be finite everywhere")
    blocks, traceless, report = _factor(probs, eta, grid, ctx)
    if not report.complete:
        raise IncompleteFamilyError(report)

    n = ctx.n_dim
    solution = np.empty(n * n)
    for first, cols, r in blocks:
        unknowns = first + cols.size
        y = np.linalg.solve(r[:unknowns, :unknowns], r[:unknowns, -1])
        if first:
            solution[:n] = 1.0 / n + traceless @ y[:first]
        solution[n + cols] = y[first:]

    estimate = unvectorize_hermitian(solution, n)
    evals, evecs = np.linalg.eigh(estimate)
    evals = np.clip(evals, 0.0, None)
    evals /= evals.sum()
    repaired = (evecs * evals) @ evecs.conj().T
    repaired = 0.5 * (repaired + repaired.conj().T)

    coords = vectorize_hermitian(repaired)
    misfit = []
    for first, cols, r in blocks:
        z = coords[n + cols]
        if first:  # the trace coordinate less the unit trace that x0 put into the right-hand side
            z = np.concatenate([traceless.T @ coords[:n], z, [(coords[:n].sum() - 1.0) / np.sqrt(n)]])
        misfit.append(r @ np.append(z, -1.0))
    residual = float(np.linalg.norm(np.concatenate(misfit)))
    return ReconstructionResult(rho=DensityOperator(repaired), residual=residual, completeness=report)

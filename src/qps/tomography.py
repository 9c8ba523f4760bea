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


def _family_rows(eta, grid: PhaseGrid, ctx: FockContext, diagonal: np.ndarray, off_diagonal: np.ndarray) -> None:
    """Write the vectorized rank-one densities |u_k><u_k| as rows: their N diagonal
    coordinates into ``diagonal`` (K x N) and the N^2 - N others into ``off_diagonal``."""
    required = ctx.n_dim**2
    if len(grid) < required:
        raise ValueError(
            f"grid has {len(grid)} points but {required} operators are needed "
            "to span the Hermitian space"
        )
    fam = coherent_family(eta, grid, ctx)
    n = ctx.n_dim
    iu, ju = np.triu_indices(n, k=1)
    for part in row_blocks(len(grid), 8 * n * n):
        diagonal[part] = np.abs(fam[part]) ** 2
        cross = fam[part, iu] * fam[part, ju].conj()
        off_diagonal[part] = np.concatenate([SQRT2 * cross.real, SQRT2 * cross.imag], axis=1)


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
    return _rank_report(rows)


def _rank_report(matrix: np.ndarray) -> CompletenessReport:
    nsq = matrix.shape[1]
    svals = np.linalg.svd(matrix, compute_uv=False)
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
    """Rank test of the displaced-generator POVM densities over the grid."""
    n = ctx.n_dim
    rows = np.empty((len(grid), n * n))
    _family_rows(eta, grid, ctx, rows[:, :n], rows[:, n:])
    return _rank_report(rows)


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


def reconstruct_state(probabilities, eta, grid: PhaseGrid, ctx: FockContext) -> ReconstructionResult:
    """Trace-constrained least squares for rho from Tr(rho T(x_k)) samples.

    The unit-trace constraint is eliminated: x = x0 + Q y with x0 the
    minimum-norm unit-trace point and Q an orthonormal basis of the
    traceless coordinates (only the diagonal ones change basis).  One QR
    of [rows @ Q | trace column | probs - rows @ x0] gives the rank report,
    from the singular values of its leading N^2 triangle, and y, by back
    substitution, so the condition number of the rows is never squared.

    After the solve, the estimate is repaired onto the density cone
    (negative eigenvalues clipped, trace renormalized); noiseless inputs
    pass through the repair unchanged.  The returned residual is the
    post-repair misfit, so heavily inconsistent inputs show up loudly.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (len(grid),):
        raise ValueError("need one probability value per grid point")
    n, nsq = ctx.n_dim, ctx.n_dim**2
    # the off-diagonal coordinates go straight into the system; the diagonal ones change basis
    system = np.empty((len(grid), nsq + 1), order="F")
    diagonal = np.empty((len(grid), n))
    _family_rows(eta, grid, ctx, diagonal, system[:, n - 1 : nsq - 1])
    traceless = np.linalg.svd(np.ones((1, n)))[2][1:].T
    np.matmul(diagonal, traceless, out=system[:, : n - 1])
    trace = diagonal.sum(axis=1)
    system[:, nsq - 1], system[:, nsq] = trace / np.sqrt(n), probs - trace / n
    r = np.linalg.qr(system, mode="r")
    report = _rank_report(r[:nsq, :nsq])
    if not report.complete:
        raise IncompleteFamilyError(report)

    y = np.linalg.solve(r[: nsq - 1, : nsq - 1], r[: nsq - 1, nsq])
    solution = np.concatenate([1.0 / n + traceless @ y[: n - 1], y[n - 1 :]])

    estimate = unvectorize_hermitian(solution, n)
    evals, evecs = np.linalg.eigh(estimate)
    evals = np.clip(evals, 0.0, None)
    evals /= evals.sum()
    repaired = (evecs * evals) @ evecs.conj().T
    repaired = 0.5 * (repaired + repaired.conj().T)

    coords = vectorize_hermitian(repaired)
    residual = float(np.linalg.norm(diagonal @ coords[:n] + system[:, n - 1 : nsq - 1] @ coords[n:] - probs))
    return ReconstructionResult(
        rho=DensityOperator(repaired), residual=residual, completeness=report
    )

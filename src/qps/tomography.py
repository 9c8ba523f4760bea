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
from .transform import GammaFunctionSamples
from .wh_model import SQRT2, FockContext, PhaseGrid, coherent_family


@dataclass
class DensityOperator:
    """Positive, unit-trace Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density operator must be square")
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

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityOperator":
        return cls(np.eye(n, dtype=complex) / n)


def random_density(rng: np.random.Generator, n: int, rank: int | None = None) -> DensityOperator:
    """Random mixed state: Ginibre purification of the requested rank."""
    rank = n if rank is None else rank
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)


def classical_density(rho: DensityOperator, eta, grid: PhaseGrid, ctx: FockContext) -> GammaFunctionSamples:
    """Pointwise Tr(rho T(x_k)) = <u_k| rho |u_k>: real, nonnegative by positivity."""
    fam = coherent_family(eta, grid, ctx)
    vals = np.einsum("kn,kn->k", fam.conj() @ rho.matrix, fam).real
    return GammaFunctionSamples(values=vals, grid=grid)


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

    Layout: the N diagonal entries, then for each pair i < j in row-major
    order sqrt(2) Re a_ij followed by sqrt(2) Im a_ij.  The scaling makes
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


def _family_rows(eta, grid: PhaseGrid, ctx: FockContext) -> np.ndarray:
    """Vectorized rank-one densities |u_k><u_k| as rows of a real matrix."""
    required = ctx.n_dim**2
    if len(grid) < required:
        raise ValueError(
            f"grid has {len(grid)} points but {required} operators are needed "
            "to span the Hermitian space"
        )
    fam = coherent_family(eta, grid, ctx)
    n = ctx.n_dim
    iu, ju = np.triu_indices(n, k=1)
    cross = fam[:, iu] * fam[:, ju].conj()
    return np.concatenate(
        [np.abs(fam) ** 2, SQRT2 * cross.real, SQRT2 * cross.imag], axis=1
    )


@dataclass
class CompletenessReport:
    operator_count: int
    gram_rank: int
    required: int
    complete: bool
    smallest_kept_singular_value: float
    gap_ratio: float
    singular_values: np.ndarray


def operator_family_rank(operators, svd_cutoff: float = 1e-10) -> CompletenessReport:
    """Numerical rank of a family of Hermitian operators in operator space."""
    rows = np.array([vectorize_hermitian(op) for op in operators])
    return _rank_report(rows, svd_cutoff)


def _rank_report(rows: np.ndarray, svd_cutoff: float) -> CompletenessReport:
    k, nsq = rows.shape
    svals = np.linalg.svd(rows, compute_uv=False)
    kept = svals > svd_cutoff * svals[0]
    rank = int(np.sum(kept))
    smallest_kept = float(svals[rank - 1]) if rank else 0.0
    # ratio of the smallest kept to the largest discarded singular value
    if rank < len(svals):
        gap = float(svals[rank - 1] / max(svals[rank], 1e-300))
    else:
        gap = float("inf")
    return CompletenessReport(
        operator_count=k,
        gram_rank=rank,
        required=nsq,
        complete=rank == nsq,
        smallest_kept_singular_value=smallest_kept,
        gap_ratio=gap,
        singular_values=svals,
    )


def completeness_rank(eta, grid: PhaseGrid, ctx: FockContext, svd_cutoff: float = 1e-10) -> CompletenessReport:
    """Rank test of the displaced-generator POVM densities over the grid."""
    return _rank_report(_family_rows(eta, grid, ctx), svd_cutoff)


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


def reconstruct_state(
    probabilities, eta, grid: PhaseGrid, ctx: FockContext, svd_cutoff: float = 1e-10
) -> ReconstructionResult:
    """Trace-constrained least squares for rho from Tr(rho T(x_k)) samples.

    The unit-trace constraint is eliminated: x = x0 + Q y with x0 the
    minimum-norm unit-trace point and Q an orthonormal basis of the
    traceless coordinates, and y solves the least-squares problem on
    rows @ Q directly, so the condition number of the rows is never
    squared.

    After the solve, the estimate is repaired onto the density cone
    (negative eigenvalues clipped, trace renormalized); noiseless inputs
    pass through the repair unchanged.  The returned residual is the
    post-repair misfit, so heavily inconsistent inputs show up loudly.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.shape != (len(grid),):
        raise ValueError("need one probability value per grid point")
    rows = _family_rows(eta, grid, ctx)
    report = _rank_report(rows, svd_cutoff)
    if not report.complete:
        raise IncompleteFamilyError(report)

    trace_row = vectorize_hermitian(np.eye(ctx.n_dim))
    x0 = trace_row / ctx.n_dim
    traceless = np.linalg.svd(trace_row[None, :])[2][1:].T
    y = np.linalg.lstsq(rows @ traceless, probs - rows @ x0, rcond=None)[0]
    solution = x0 + traceless @ y

    estimate = unvectorize_hermitian(solution, ctx.n_dim)
    evals, evecs = np.linalg.eigh(estimate)
    evals = np.clip(evals, 0.0, None)
    evals /= evals.sum()
    repaired = (evecs * evals) @ evecs.conj().T
    repaired = 0.5 * (repaired + repaired.conj().T)

    residual = float(np.linalg.norm(rows @ vectorize_hermitian(repaired) - probs))
    return ReconstructionResult(
        rho=DensityOperator(repaired), residual=residual, completeness=report
    )

"""Coherent-state transform between the Fock space and grid functions.

The transform sends a state phi to the function x -> <D(alpha_x) eta, phi>
on the phase-space grid; its adjoint (with respect to the weighted inner
product) and the frame operator S = sum_k mu_k |u_k><u_k| invert it.  On
a grid that covers the occupied phase-space region, S is close to the
identity and the transform is nearly isometric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wh_model import FockContext, PhaseGrid, coherent_family, generator_vector


class FrameConditionError(ValueError):
    """Frame operator too ill-conditioned to invert; enlarge the grid."""


@dataclass
class GammaFunctionSamples:
    """Samples of a phase-space function, tied to its grid."""

    values: np.ndarray
    grid: PhaseGrid

    def weighted_norm_sq(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.values) ** 2))


def w_transform(eta, grid: PhaseGrid, phi, ctx: FockContext) -> GammaFunctionSamples:
    """Sample <D(alpha_k) eta, phi> over the grid."""
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (ctx.n_dim,):
        raise ValueError(f"state has shape {phi.shape}, context dim is {ctx.n_dim}")
    fam = coherent_family(eta, grid, ctx)
    return GammaFunctionSamples(values=fam.conj() @ phi, grid=grid)


def weighted_gram(fam: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights_k |u_k><u_k| over the rows u_k of fam, Hermitized."""
    a = (fam.T * weights) @ fam.conj()
    return 0.5 * (a + a.conj().T)


def frame_operator(eta, grid: PhaseGrid, ctx: FockContext) -> np.ndarray:
    """S = sum_k mu_k |D(alpha_k) eta><D(alpha_k) eta|, Hermitian positive."""
    return weighted_gram(coherent_family(eta, grid, ctx), grid.weights)


def _solve_frame(s: np.ndarray, rhs: np.ndarray, max_condition: float = 1e6) -> np.ndarray:
    evals = np.linalg.eigvalsh(s)
    smallest = max(evals[0], 0.0)
    if smallest <= 0 or evals[-1] / smallest > max_condition:
        raise FrameConditionError(
            f"frame operator condition number exceeds {max_condition:.0e}; "
            "the grid does not cover the truncated Fock space - increase the radius "
            "or lower the dimension"
        )
    return np.linalg.solve(s, rhs)


def reconstruct(eta, grid: PhaseGrid, samples: GammaFunctionSamples, ctx: FockContext) -> np.ndarray:
    """Invert the transform: phi = S^-1 sum_k mu_k F_k D(alpha_k) eta."""
    fam = coherent_family(eta, grid, ctx)
    rhs = fam.T @ (grid.weights * samples.values)
    return _solve_frame(frame_operator(eta, grid, ctx), rhs)


def projection_P(eta, grid: PhaseGrid, samples: GammaFunctionSamples, ctx: FockContext) -> GammaFunctionSamples:
    """Reproducing-kernel projection onto the transform's range."""
    return w_transform(eta, grid, reconstruct(eta, grid, samples, ctx), ctx)


def v_action(g, samples: GammaFunctionSamples) -> GammaFunctionSamples:
    """Translate the sampled function by the phase-space vector g.

    The new value at x is the old value at x - g.  g must be a lattice
    vector (an integer multiple of the spacing in both coordinates);
    source points that fall outside the grid disk contribute zero, which
    is the documented truncation of the group action to a finite grid.
    """
    grid = samples.grid
    shifts = []
    for comp in g:
        d = comp / grid.spacing
        snapped = round(d)
        if abs(d - snapped) > 1e-9 * max(1.0, abs(d)):
            raise ValueError(
                f"translation component {comp} is not a multiple of the grid spacing "
                f"{grid.spacing}"
            )
        shifts.append(int(snapped))
    di, dj = shifts
    out = np.zeros_like(samples.values)
    for k in range(len(grid)):
        src = grid.lookup(int(grid.iq[k]) - di, int(grid.ip[k]) - dj)
        if src is not None:
            out[k] = samples.values[src]
    return GammaFunctionSamples(values=out, grid=grid)


@dataclass
class OrthogonalityReport:
    lhs: complex
    rhs: complex
    relative_error: float
    d_used: float


def orthogonality_check(
    eta1,
    eta2,
    phi1,
    phi2,
    grid: PhaseGrid,
    ctx: FockContext,
    eps_floor: float = 1e-2,
) -> OrthogonalityReport:
    """Quadrature of <phi1, u1(x)><u2(x), phi2> against (1/d) <eta2,eta1><phi1,phi2>.

    d comes from the admissibility integral of eta1, recomputed on this
    grid rather than assumed; for unit generators of this family d = 1.
    The relative error uses max(|lhs|, |rhs|, eps_floor * scale) as
    denominator so near-orthogonal quadruples do not divide by zero.
    """
    v1 = generator_vector(eta1)
    v2 = generator_vector(eta2)
    phi1 = np.asarray(phi1, dtype=complex)
    phi2 = np.asarray(phi2, dtype=complex)
    fam1 = coherent_family(v1, grid, ctx)
    fam2 = coherent_family(v2, grid, ctx)

    f1 = fam1.conj() @ phi1
    f2 = fam2.conj() @ phi2
    lhs = complex(np.sum(grid.weights * np.conj(f1) * f2))

    integral = float(np.sum(grid.weights * np.abs(fam1.conj() @ v1) ** 2))
    d_used = float(np.linalg.norm(v1) ** 4 / integral)
    rhs = complex(np.vdot(v2, v1) * np.vdot(phi1, phi2) / d_used)

    scale = (
        np.linalg.norm(v1)
        * np.linalg.norm(v2)
        * np.linalg.norm(phi1)
        * np.linalg.norm(phi2)
    )
    denom = max(abs(lhs), abs(rhs), eps_floor * scale, 1e-300)
    return OrthogonalityReport(
        lhs=lhs,
        rhs=rhs,
        relative_error=abs(lhs - rhs) / denom,
        d_used=d_used,
    )

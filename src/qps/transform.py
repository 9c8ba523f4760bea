"""Coherent-state transform between the Fock space and grid functions.

The transform sends a state phi to the function x -> <D(alpha_x) eta, phi>
on the phase-space grid, read off the displacement table ring by ring
(``wh_model.displaced_overlaps``); its adjoint (with respect to the
weighted inner product) and the frame operator S = sum_k mu_k |u_k><u_k|
invert it, and they sum over the coherent family.  On a grid that covers
the occupied phase-space region, S is close to the identity and the
transform is nearly isometric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wh_model import (FockContext, GammaFunctionSamples, PhaseGrid, autocorrelation, coherent_family,
                       displaced_overlaps, frame_operator)

# largest frame-operator condition number _solve_frame inverts
MAX_FRAME_CONDITION = 1e6
# floor of the orthogonality relative-error denominator, in units of the norm product
ORTHOGONALITY_EPS_FLOOR = 1e-2


class FrameConditionError(ValueError):
    """Frame operator too ill-conditioned to invert; enlarge the grid."""


def w_transform(eta, grid: PhaseGrid, phi, ctx: FockContext) -> GammaFunctionSamples:
    """Sample <D(alpha_k) eta, phi> over the grid; no coherent family is built."""
    return GammaFunctionSamples(values=displaced_overlaps(eta, phi, grid, ctx), grid=grid)


def _solve_frame(s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    evals = np.linalg.eigvalsh(s)
    smallest = max(evals[0], 0.0)
    if smallest <= 0 or evals[-1] / smallest > MAX_FRAME_CONDITION:
        raise FrameConditionError(
            f"frame operator condition number exceeds {MAX_FRAME_CONDITION:.0e}; "
            "the grid does not cover the truncated Fock space - increase the radius "
            "or lower the dimension"
        )
    return np.linalg.solve(s, rhs)


def reconstruct(eta, grid: PhaseGrid, samples: GammaFunctionSamples, ctx: FockContext) -> np.ndarray:
    """Invert the transform: phi = S^-1 sum_k mu_k F_k D(alpha_k) eta."""
    fam = coherent_family(eta, grid, ctx)
    return _solve_frame(frame_operator(eta, grid, ctx), fam.T @ (grid.weights * samples.values))


def projection_P(eta, grid: PhaseGrid, samples: GammaFunctionSamples, ctx: FockContext) -> GammaFunctionSamples:
    """Reproducing-kernel projection onto the transform's range."""
    return w_transform(eta, grid, reconstruct(eta, grid, samples, ctx), ctx)


def v_action(g, samples: GammaFunctionSamples) -> GammaFunctionSamples:
    """Translate the sampled function by the phase-space vector g.

    The new value at x is the old value at x - g.  g must be a lattice
    vector: every x - g must snap to a site, as ``PhaseGrid.locate`` snaps
    the CSV reader's points.  Source points that fall outside the grid
    disk contribute zero, which is the documented truncation of the group
    action to a finite grid.
    """
    grid = samples.grid
    g = np.asarray(g, dtype=float)
    if g.shape != (2,):
        raise ValueError(f"translation must be two numbers (q, p), got {g.tolist()}")
    src, miss = grid.locate(grid.q - g[0], grid.p - g[1])
    if miss.any():
        raise ValueError(f"translation {tuple(g.tolist())} is not a multiple of the grid spacing {grid.spacing}")
    out = np.zeros_like(samples.values)
    out[src >= 0] = samples.values[src[src >= 0]]
    return GammaFunctionSamples(values=out, grid=grid)


@dataclass
class OrthogonalityReport:
    lhs: complex
    rhs: complex
    relative_error: float
    d_used: float


def orthogonality_check(
    eta1, eta2, phi1, phi2, grid: PhaseGrid, ctx: FockContext
) -> OrthogonalityReport:
    """Quadrature of <phi1, u1(x)><u2(x), phi2> against (1/d) <eta2,eta1><phi1,phi2>.

    d is eta1's ``wh_model.autocorrelation`` constant, which ``admissibility``
    reports, recomputed on this grid; on the plane d = 1 up to quadrature error.
    The relative error uses max(|lhs|, |rhs|, ORTHOGONALITY_EPS_FLOOR *
    scale) as denominator so near-orthogonal quadruples do not divide by
    zero.
    """
    v1 = np.asarray(eta1, dtype=complex)
    v2 = np.asarray(eta2, dtype=complex)
    phi1 = np.asarray(phi1, dtype=complex)
    phi2 = np.asarray(phi2, dtype=complex)
    _, _, d_used = autocorrelation(v1, grid, ctx)
    f1 = displaced_overlaps(v1, phi1, grid, ctx)
    f2 = displaced_overlaps(v2, phi2, grid, ctx)
    lhs = complex(np.sum(grid.weights * np.conj(f1) * f2))

    rhs = complex(np.vdot(v2, v1) * np.vdot(phi1, phi2) / d_used)

    scale = (
        np.linalg.norm(v1)
        * np.linalg.norm(v2)
        * np.linalg.norm(phi1)
        * np.linalg.norm(phi2)
    )
    denom = max(abs(lhs), abs(rhs), ORTHOGONALITY_EPS_FLOOR * scale, 1e-300)
    return OrthogonalityReport(
        lhs=lhs,
        rhs=rhs,
        relative_error=abs(lhs - rhs) / denom,
        d_used=d_used,
    )

"""Phase-space quantization and localization-operator spectra.

A bounded symbol f on the grid quantizes to the anti-Wick style operator
A(f) = sum_k mu_k f(x_k) |u_k><u_k| with u_k the displaced generator at
grid point k.  Indicator symbols give localization operators whose
eigenvalues sit in [0, 1], cluster near 0 and 1, and obey the trace bound
tr A(chi) <= mu(region): those spectra carry the uncertainty-relation and
channel-capacity content.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wh_model import SQUARE_OVERFLOW, FockContext, PhaseGrid, coherent_family, weighted_gram


class BoundViolationError(ValueError):
    """A provable spectral bound failed.

    The bounds hold for a unit generator on a grid that resolves the
    identity, so a violation means the inputs are outside that setting
    (or the implementation is wrong), never a reportable spectrum.
    """


@dataclass(frozen=True)
class RegionSpec:
    """Phase-space region: disk, rectangle, or explicit grid mask."""

    kind: str
    params: tuple = ()
    grid_mask: np.ndarray | None = None
    label: str = ""

    @classmethod
    def disk(cls, radius: float, center=(0.0, 0.0)) -> "RegionSpec":
        if not 0 < radius < np.inf:
            raise ValueError(f"disk radius must be positive and finite, got {radius}")
        return cls(kind="disk", params=(float(radius), float(center[0]), float(center[1])),
                   label=f"disk({radius})")

    @classmethod
    def rect(cls, q0: float, q1: float, p0: float, p1: float) -> "RegionSpec":
        """Closed box; infinite bounds are allowed, empty or NaN sides are not."""
        if not (q0 < q1 and p0 < p1):
            raise ValueError(f"rect region needs q0 < q1 and p0 < p1, got {[q0, q1, p0, p1]}")
        return cls(kind="rect", params=(float(q0), float(q1), float(p0), float(p1)),
                   label=f"rect({q0},{q1},{p0},{p1})")

    @classmethod
    def from_mask(cls, mask, label: str = "mask") -> "RegionSpec":
        return cls(kind="mask", grid_mask=np.asarray(mask, dtype=bool), label=label)

    def mask(self, grid: PhaseGrid) -> np.ndarray:
        """Membership of grid-point centers (all-in / all-out cells)."""
        if self.kind == "disk":
            radius, cq, cp = self.params
            r2 = radius**2 if radius < SQUARE_OVERFLOW else np.inf  # a disk that covers any grid
            return (grid.q - cq) ** 2 + (grid.p - cp) ** 2 <= r2
        if self.kind == "rect":
            q0, q1, p0, p1 = self.params
            return (grid.q >= q0) & (grid.q <= q1) & (grid.p >= p0) & (grid.p <= p1)
        if self.kind == "mask":
            if self.grid_mask is None or len(self.grid_mask) != len(grid):
                raise ValueError("mask length does not match grid")
            return self.grid_mask
        raise ValueError(f"unknown region kind {self.kind!r}")


def symbol_values(f, grid: PhaseGrid) -> np.ndarray:
    """One finite real value per grid point, from an array or a callable f(q, p).

    Raises ``ValueError`` naming the first grid point whose value is NaN or
    infinite.
    """
    if callable(f):
        vals = np.asarray(f(grid.q, grid.p), dtype=float)
    else:
        vals = np.asarray(f, dtype=float)
    if vals.shape != (len(grid),):
        raise ValueError("symbol must evaluate to one real value per grid point")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"symbol is {vals[k]} at grid point {k}, (q, p) = ({grid.q[k]}, {grid.p[k]}); "
            "it must be finite everywhere"
        )
    return vals


def quantize(f, eta, grid: PhaseGrid, ctx: FockContext) -> np.ndarray:
    """A(f) = sum_k mu_k f(x_k) |u_k><u_k|; Hermitian by construction.

    Only the grid points where f is nonzero enter the sum, and only their
    rows of the coherent family are built, so an indicator costs the rows
    of its region.  The Gram product reads them in the grid's stored family,
    where the other rows have weight zero, so no copy of them is made.
    """
    vals = symbol_values(f, grid)
    fam = coherent_family(eta, grid, ctx, rows=np.flatnonzero(vals))
    return weighted_gram(fam, grid.weights * vals)


@dataclass
class SpectrumReport:
    """Eigenvalues of a localization operator with clustering counts."""

    eigenvalues: np.ndarray
    trace: float
    mu_delta: float
    near_one: int
    near_zero: int
    mid: int
    epsilon: float

    @property
    def mid_to_near_one_ratio(self) -> float:
        """mid / near_one; infinite when nothing is near one but something is mid."""
        if self.near_one:
            return self.mid / self.near_one
        return float("inf") if self.mid else 0.0

    def count_above(self, threshold: float) -> int:
        """Number of eigenvalues above ``threshold``, which must lie in (0, 1)."""
        if not 0 < threshold < 1:
            raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
        return int(np.sum(self.eigenvalues > threshold))


def localization_spectrum(
    delta: RegionSpec, eta, grid: PhaseGrid, ctx: FockContext, epsilon: float = 0.1
) -> SpectrumReport:
    """Full spectrum of the region's localization operator, banded by epsilon."""
    if not 0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    member = delta.mask(grid)
    op = quantize(member.astype(float), eta, grid, ctx)
    evals = np.linalg.eigvalsh(op)[::-1]
    near_one = int(np.sum(evals > 1.0 - epsilon))
    near_zero = int(np.sum(evals < epsilon))
    return SpectrumReport(
        eigenvalues=evals,
        trace=float(evals.sum()),
        mu_delta=float(np.sum(grid.weights[member])),
        near_one=near_one,
        near_zero=near_zero,
        mid=len(evals) - near_one - near_zero,
        epsilon=epsilon,
    )


def clustering_report(spec: SpectrumReport) -> SpectrumReport:
    """Check the provable trace/norm bounds and return ``spec``.

    tr A(chi) <= mu(region) and |A(chi)| <= min(1, mu(region)) are exact
    inequalities of the construction for a unit generator, the norm bound
    once the frame operator is at most the identity; a violation (beyond
    rounding slack) raises rather than reports.
    """
    tol = 1.0 + 1e-6
    if spec.trace > spec.mu_delta * tol:
        raise BoundViolationError(
            f"trace {spec.trace} exceeds region measure {spec.mu_delta}"
        )
    top = float(spec.eigenvalues[0]) if len(spec.eigenvalues) else 0.0
    if top > min(1.0, spec.mu_delta) * tol:
        raise BoundViolationError(
            f"largest eigenvalue {top} exceeds min(1, mu) = {min(1.0, spec.mu_delta)}; "
            "a grid this coarse does not resolve the identity"
        )
    return spec


def channel_capacity(
    delta: RegionSpec, eta, grid: PhaseGrid, ctx: FockContext, threshold: float = 0.5
):
    """Number of eigenvalues above ``threshold`` and the region measure.

    For a localization region the count approximates the measure: the
    time-bandwidth channel count when the region is a duration-bandwidth
    rectangle in these units.
    """
    spec = localization_spectrum(delta, eta, grid, ctx, epsilon=0.1)
    return spec.count_above(threshold), spec.mu_delta

"""Effects, the partial sum, POVM checks, and fuzzy-symbol logic.

An effect is a Hermitian matrix between 0 and the identity.  The partial
operation a (+) b is defined exactly when a + b stays below the identity;
with the complement a' = 1 - a, which callers form as ``np.eye(n) - a``,
this satisfies the four effect-algebra axioms.
:func:`verify_axioms` samples associativity and the zero-one law; the other
two are theorems for matrix effects.  The symbols indexing quantized
effects (functions into [0, 1]) carry the richer many-valued structure:
truncated sum, negation, pointwise lattice, and two implication candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .localization import localization_spectrum, quantize
from .wh_model import FockContext, PhaseGrid, frame_operator, low_block

DEFINEDNESS_TOL = 1e-9
# smallest max lambda (1 - lambda) projection_scan accepts as "not a projection"
PROJECTION_GAP = 0.02


@dataclass
class EffectCheck:
    ok: bool
    lower_margin: float
    upper_margin: float


def _effect_gate(m: np.ndarray, ndim: int):
    """is_effect on an ndim-axis stack: where each matrix is not Hermitian, is an effect, and its margins."""
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        raise ValueError("effect candidate must be a square matrix")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    skew = np.abs(m - np.swapaxes(m, -2, -1).conj()).max(axis=(-2, -1)) > 1e-12 * scale
    evals = np.linalg.eigvalsh(m)
    lower, upper = evals[..., 0], 1.0 - evals[..., -1]
    return skew, (lower >= -DEFINEDNESS_TOL) & (upper >= -DEFINEDNESS_TOL), lower, upper


def is_effect(matrix) -> EffectCheck:
    """Spectrum-in-[0,1] test with the distances to both ends."""
    skew, ok, lower, upper = _effect_gate(np.asarray(matrix, dtype=complex), 2)
    if skew:
        raise ValueError("effect candidate must be Hermitian")
    return EffectCheck(ok=bool(ok), lower_margin=float(lower), upper_margin=float(upper))


def _defined(total: np.ndarray) -> np.ndarray:
    """Where each sum in a stack of them stays below 1: the test of oplus."""
    return ~(np.linalg.eigvalsh(total)[..., -1] > 1.0 + DEFINEDNESS_TOL)


def oplus(a, b):
    """Partial sum of the effects a and b: a + b if it stays below 1, else None.

    :func:`is_effect` is the check on effects, and it is not repeated: a sum
    of two effects is positive, so only its top eigenvalue is tested."""
    total = np.asarray(a, dtype=complex) + np.asarray(b, dtype=complex)
    return total if _defined(total) else None


def effect_sampler(n_dim: int, seed: int):
    """Random effects: Haar-like eigenbasis with uniform spectrum in [0, 1]."""
    rng = np.random.default_rng(seed)

    def sample() -> np.ndarray:
        g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        qmat, rmat = np.linalg.qr(g)
        qmat = qmat * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))
        evals = rng.uniform(size=n_dim)
        m = (qmat * evals) @ qmat.conj().T
        return 0.5 * (m + m.conj().T)

    return sample


@dataclass
class AxiomReport:
    trials: int
    failures: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())


def verify_axioms(sampler, trials: int) -> AxiomReport:
    """Randomized check of the effect-algebra axioms that rounding can break.

    All 3 * trials samples (a, b, c per trial) are drawn first, then each
    test runs as one stacked eigvalsh, and each failure stores a witness (up
    to five, in trial order).  The first sample that fails the effect gate
    raises: the axioms only speak about effects.

    Commutativity and complement uniqueness are theorems here, so their
    counts stay 0.  :func:`oplus` forms a + b, and IEEE addition is
    commutative bit for bit.  In a + (1 - a) each off-diagonal entry sums
    to exactly 0, and, as the gate bounds |a_ii| by 1 + 1e-9, each diagonal
    one lies within 2.3e-16 of 1, far inside DEFINEDNESS_TOL.  Where both
    bracketings of a + b + c are defined they differ by a few roundings of
    entries near 1, so associativity compares definedness only: the gate
    lets an eigenvalue of c reach -1e-9, so a (+) (b (+) c) can be defined
    while a (+) b is not.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    mats = np.array([np.asarray(sampler(), dtype=complex) for _ in range(3 * trials)])
    skew, ok, _, _ = _effect_gate(mats, 3)
    bad = np.flatnonzero(skew | ~ok)
    if bad.size:  # the first sample, in draw order, that is not an effect
        raise ValueError("effect candidate must be Hermitian" if skew[bad[0]]
                         else "sampler produced a non-effect")
    a, b, c = mats[0::3], mats[1::3], mats[2::3]
    defined = _defined(np.concatenate([b + c, a + np.eye(a.shape[1])]))
    right = defined[:trials].copy()  # a (+) (b (+) c), formed where b (+) c is defined
    right[right] = _defined(a[right] + (b[right] + c[right]))
    left = right.copy()  # (a (+) b) (+) c, tested where the right bracketing is defined
    left[left] = _defined(a[left] + b[left])
    left[left] = _defined(a[left] + b[left] + c[left])
    zero_one = defined[trials:].copy()
    zero_one[zero_one] = np.linalg.norm(a[zero_one], ord=2, axis=(1, 2)) > DEFINEDNESS_TOL
    found = (("associativity", right & ~left, (a, b, c)), ("zero_one", zero_one, (a,)))
    failures = {"commutativity": 0, "associativity": 0, "unique_complement": 0, "zero_one": 0}
    failures.update((axiom, int(failed.sum())) for axiom, failed, _ in found)
    witnesses = [{"axiom": axiom, "operators": [np.array(m[t]) for m in operands]}
                 for t in np.flatnonzero(right & ~left | zero_one)
                 for axiom, failed, operands in found if failed[t]]
    return AxiomReport(trials=trials, failures=failures, witnesses=witnesses[:5])


@dataclass
class PovmReport:
    additivity_error: float
    identity_defect_low_block: float
    min_part_eigenvalue: float
    ok: bool


def povm_check(regions, eta, grid: PhaseGrid, ctx: FockContext) -> PovmReport:
    """Verify a grid partition quantizes to an additive positive decomposition.

    The parts must be pairwise disjoint and cover the grid; their sum then
    equals the frame operator by linearity, and each part is positive.
    The report also states how far the frame operator is from the
    identity on the low Fock block.
    """
    masks = [region.mask(grid) for region in regions]
    stack = np.array(masks, dtype=int)
    coverage = stack.sum(axis=0)
    if np.any(coverage > 1):
        raise ValueError("regions overlap")
    if np.any(coverage < 1):
        raise ValueError("regions do not cover the grid")

    parts = [quantize(mask.astype(float), eta, grid, ctx) for mask in masks]
    total = sum(parts)
    s = frame_operator(eta, grid, ctx)
    additivity = float(np.linalg.norm(total - s, ord=2))
    blk = low_block(ctx)
    defect = float(np.linalg.norm(s[blk, blk] - np.eye(blk.stop), ord=2))
    min_eig = min(float(np.linalg.eigvalsh(part)[0]) for part in parts)
    return PovmReport(
        additivity_error=additivity,
        identity_defect_low_block=defect,
        min_part_eigenvalue=min_eig,
        ok=additivity <= 1e-12 and min_eig >= -DEFINEDNESS_TOL,
    )


@dataclass
class ProjectionScanEntry:
    label: str
    mu_delta: float
    max_spectral_gap: float
    passes: bool


@dataclass
class ProjectionScanReport:
    entries: list
    all_pass: bool


def projection_scan(eta, grid: PhaseGrid, ctx: FockContext, deltas) -> ProjectionScanReport:
    """Show quantized indicators are never projections.

    For each region, m = max_i lambda_i (1 - lambda_i) measures the
    distance of the spectrum from {0, 1}; a projection would give m = 0.
    Regions with zero or full measure are rejected: those are the two
    trivial projections.
    """
    total = float(np.sum(grid.weights))
    entries = []
    for delta in deltas:
        spec = localization_spectrum(delta, eta, grid, ctx)
        if not 0.0 < spec.mu_delta < total:
            raise ValueError(
                f"region {delta.label!r} has measure {spec.mu_delta}; need 0 < mu < {total}"
            )
        lam = spec.eigenvalues
        gap = float(np.max(lam * (1.0 - lam)))
        entries.append(
            ProjectionScanEntry(
                label=delta.label,
                mu_delta=spec.mu_delta,
                max_spectral_gap=gap,
                passes=gap >= PROJECTION_GAP,
            )
        )
    return ProjectionScanReport(entries=entries, all_pass=all(e.passes for e in entries))


# ---------------------------------------------------------------------------
# Fuzzy symbols: the functions indexing the quantized effects
# ---------------------------------------------------------------------------


@dataclass
class FuzzySymbol:
    """Grid function with values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.min() < -1e-12 or v.max() > 1.0 + 1e-12:
            raise ValueError("fuzzy symbol values must lie in [0, 1]")
        self.values = np.clip(v, 0.0, 1.0)

    @classmethod
    def indicator(cls, mask) -> "FuzzySymbol":
        return cls(np.asarray(mask, dtype=float))


def symbol_oplus(f: FuzzySymbol, g: FuzzySymbol) -> FuzzySymbol:
    return FuzzySymbol(np.minimum(f.values + g.values, 1.0))


def symbol_neg(f: FuzzySymbol) -> FuzzySymbol:
    return FuzzySymbol(1.0 - f.values)


def symbol_meet(f: FuzzySymbol, g: FuzzySymbol) -> FuzzySymbol:
    return FuzzySymbol(np.minimum(f.values, g.values))


def symbol_join(f: FuzzySymbol, g: FuzzySymbol) -> FuzzySymbol:
    return FuzzySymbol(np.maximum(f.values, g.values))


def symbol_imp_godel(f: FuzzySymbol, g: FuzzySymbol) -> FuzzySymbol:
    return FuzzySymbol(np.where(f.values <= g.values, 1.0, g.values))


def symbol_imp_luk(f: FuzzySymbol, g: FuzzySymbol) -> FuzzySymbol:
    return FuzzySymbol(np.minimum(1.0, 1.0 - f.values + g.values))

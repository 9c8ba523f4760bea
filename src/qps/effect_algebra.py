"""Effects, the partial sum, POVM checks, and fuzzy-symbol logic.

An effect is a Hermitian matrix between 0 and the identity.  The partial
operation a (+) b is defined exactly when a + b stays below the identity;
with complement a' = 1 - a this satisfies the four effect-algebra axioms,
which :func:`verify_axioms` exercises on random samples.  The symbols
indexing quantized effects (functions into [0, 1]) carry the richer
many-valued structure: truncated sum, negation, pointwise lattice, and
two implication candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .localization import localization_spectrum, quantize
from .transform import frame_operator
from .wh_model import FockContext, PhaseGrid, low_block

DEFINEDNESS_TOL = 1e-9


@dataclass
class Effect:
    """Hermitian matrix with spectrum in [0, 1] (within tolerance)."""

    matrix: np.ndarray

    def __post_init__(self):
        check = is_effect(self.matrix)
        if not check.ok:
            raise ValueError(
                f"not an effect: margins ({check.lower_margin:.3e}, {check.upper_margin:.3e})"
            )
        self.matrix = np.asarray(self.matrix, dtype=complex)


@dataclass
class EffectCheck:
    ok: bool
    lower_margin: float
    upper_margin: float


def is_effect(matrix, tol: float = DEFINEDNESS_TOL) -> EffectCheck:
    """Spectrum-in-[0,1] test with the distances to both ends."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("effect candidate must be a square matrix")
    scale = max(1.0, float(np.abs(m).max()))
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
        raise ValueError("effect candidate must be Hermitian")
    evals = np.linalg.eigvalsh(m)
    lower = float(evals[0])
    upper = float(1.0 - evals[-1])
    return EffectCheck(ok=lower >= -tol and upper >= -tol, lower_margin=lower, upper_margin=upper)


def _as_matrix(a) -> np.ndarray:
    return a.matrix if isinstance(a, Effect) else np.asarray(a, dtype=complex)


def oplus(a, b, tol: float = DEFINEDNESS_TOL):
    """Partial sum: a + b when the sum is still an effect, else None."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    total = ma + mb
    top = np.linalg.eigvalsh(total)[-1]
    if top > 1.0 + tol:
        return None
    return Effect(total)


def complement(a) -> Effect:
    """1 - a; the unique effect summing with a to the identity."""
    ma = _as_matrix(a)
    return Effect(np.eye(ma.shape[0], dtype=complex) - ma)


def effect_sampler(n_dim: int, seed: int):
    """Random effects: Haar-like eigenbasis with uniform spectrum in [0, 1]."""
    rng = np.random.default_rng(seed)

    def sample() -> Effect:
        g = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        qmat, rmat = np.linalg.qr(g)
        qmat = qmat * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))
        evals = rng.uniform(size=n_dim)
        m = (qmat * evals) @ qmat.conj().T
        return Effect(0.5 * (m + m.conj().T))

    return sample


@dataclass
class AxiomReport:
    trials: int
    failures: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    @property
    def total_failures(self) -> int:
        return sum(self.failures.values())


def verify_axioms(sampler, trials: int, atol: float = 1e-12) -> AxiomReport:
    """Randomized check of the four effect-algebra axioms.

    Per trial, three samples are drawn and the commutativity,
    associativity (where the needed sums are defined), complement
    uniqueness, and zero-one axioms are evaluated; each failure stores a
    witness (up to five).  Samples that fail the effect gate raise
    immediately: the axioms only speak about effects.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    failures = {"commutativity": 0, "associativity": 0, "unique_complement": 0, "zero_one": 0}
    witnesses: list = []

    def record(axiom: str, *mats):
        failures[axiom] += 1
        if len(witnesses) < 5:
            witnesses.append({"axiom": axiom, "operators": [np.array(m) for m in mats]})

    def gate(e) -> np.ndarray:
        m = _as_matrix(e)
        if not is_effect(m).ok:
            raise ValueError("sampler produced a non-effect")
        return m

    for _ in range(trials):
        a, b, c = (gate(sampler()) for _ in range(3))

        ab = oplus(a, b)
        ba = oplus(b, a)
        if (ab is None) != (ba is None):
            record("commutativity", a, b)
        elif ab is not None and np.max(np.abs(ab.matrix - ba.matrix)) > atol:
            record("commutativity", a, b)

        bc = oplus(b, c)
        if bc is not None:
            a_bc = oplus(a, bc)
            if a_bc is not None:
                abc = None if ab is None else oplus(ab, c)
                if abc is None:
                    record("associativity", a, b, c)
                elif np.max(np.abs(a_bc.matrix - abc.matrix)) > atol:
                    record("associativity", a, b, c)

        comp = complement(a)
        total = oplus(a, comp)
        eye = np.eye(a.shape[0])
        if total is None or np.max(np.abs(total.matrix - eye)) > 1e-9:
            record("unique_complement", a)

        with_one = oplus(a, eye)
        if with_one is not None and np.linalg.norm(a, ord=2) > DEFINEDNESS_TOL:
            record("zero_one", a)

    return AxiomReport(trials=trials, failures=failures, witnesses=witnesses)


@dataclass
class PovmReport:
    n_parts: int
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
        n_parts=len(parts),
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
    projection_gap: float
    all_pass: bool


def projection_scan(
    eta, grid: PhaseGrid, ctx: FockContext, deltas, projection_gap: float = 0.02
) -> ProjectionScanReport:
    """Show quantized indicators are never projections.

    For each region, m = max_i lambda_i (1 - lambda_i) measures the
    distance of the spectrum from {0, 1}; a projection would give m = 0.
    Regions with zero or full measure are rejected: those are the two
    trivial projections.
    """
    total = float(np.sum(grid.weights))
    entries = []
    for delta in deltas:
        mu = delta.measure(grid)
        if not 0.0 < mu < total:
            raise ValueError(
                f"region {delta.label!r} has measure {mu}; need 0 < mu < {total}"
            )
        spec = localization_spectrum(delta, eta, grid, ctx)
        lam = spec.eigenvalues
        gap = float(np.max(lam * (1.0 - lam)))
        entries.append(
            ProjectionScanEntry(
                label=delta.label,
                mu_delta=mu,
                max_spectral_gap=gap,
                passes=gap >= projection_gap,
            )
        )
    return ProjectionScanReport(
        entries=entries,
        projection_gap=projection_gap,
        all_pass=all(e.passes for e in entries),
    )


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

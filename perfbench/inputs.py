"""Seeded input generators for the benchmark workloads.

Everything here is plain data built from numpy random generators and exact
fractions: op specs, states, densities, regions, partitions, effects and Lie
algebras.  Nothing imports qps, so the op sequence of a seed can be produced
and compared without running the program.

A workload is an endless sequence of cycles.  Every cycle of a workload has
the same composition of op kinds and input classes; the seed draws the
parameters inside each class and the order of the ops.  Runs that measure
whole cycles therefore see the same mix whatever the seed.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import count

import numpy as np

WORKLOADS = ("spectra", "roundtrips", "cohomology")

# Dimensions of the shipped catalog algebras (src/qps/algebras/*.json).
CATALOG_DIMS = {"abelian2": 2, "h3": 3, "so3": 3, "galilei": 10, "poincare": 10}

TOMOGRAPHY_DIMS = (4, 8, 12, 16)
SYMBOL_FAMILIES = ("gaussian", "wave", "quadratic")


# ---------------------------------------------------------------------------
# Phase-space geometry and states
# ---------------------------------------------------------------------------


def lattice_points(radius: float, spacing: float):
    """(q, p) cell midpoints of the disk lattice, in the order qps uses."""
    half_cells = int(np.ceil(radius / spacing)) + 1
    coords = (np.arange(-half_cells, half_cells) + 0.5) * spacing
    qq, pp = np.meshgrid(coords, coords, indexing="ij")
    inside = qq**2 + pp**2 <= radius**2
    return qq[inside], pp[inside]


def low_block_vector(rng, n_dim: int, top: int) -> np.ndarray:
    """Unit vector supported on Fock levels 0..top."""
    v = np.zeros(n_dim, dtype=complex)
    v[: top + 1] = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    return v / np.linalg.norm(v)


def density_matrix(rng, n: int, rank: int) -> np.ndarray:
    """Ginibre density matrix of the given rank, unit trace, exactly Hermitian."""
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def coherent_amplitudes(q, p, n_dim: int) -> np.ndarray:
    """Rows <n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!), alpha = (q + ip)/sqrt(2)."""
    alpha = (np.asarray(q) + 1j * np.asarray(p)) / math.sqrt(2.0)
    n = np.arange(n_dim)
    log_norm = np.array([0.5 * math.lgamma(k + 1) for k in n])
    return np.exp(-0.5 * np.abs(alpha)[:, None] ** 2 - log_norm) * alpha[:, None] ** n


def husimi_values(rho: np.ndarray, q, p) -> np.ndarray:
    """<alpha| rho |alpha> at each point: the vacuum-generator POVM density."""
    u = coherent_amplitudes(q, p, rho.shape[0])
    return np.einsum("km,mn,kn->k", u.conj(), rho, u).real


def effects(rng, n: int, count_: int) -> np.ndarray:
    """Effects with Haar-like eigenbases and uniform spectra in [0, 1]."""
    out = np.empty((count_, n, n), dtype=complex)
    for i in range(count_):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        qmat, rmat = np.linalg.qr(g)
        qmat = qmat * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))
        m = (qmat * rng.uniform(size=n)) @ qmat.conj().T
        out[i] = 0.5 * (m + m.conj().T)
    return out


def symbol_values(symbol: dict, q, p) -> np.ndarray:
    """Evaluate one of the smooth symbol families on grid points."""
    family, c = symbol["family"], symbol["coeffs"]
    if family == "gaussian":
        return c[0] * np.exp(-((q - c[1]) ** 2 + (p - c[2]) ** 2) / (2.0 * c[3] ** 2))
    if family == "wave":
        return c[0] * np.cos(c[1] * q + c[2] * p + c[3])
    if family == "quadratic":
        return c[0] * q**2 + c[1] * p**2 + c[2] * q * p + c[3]
    raise ValueError(f"unknown symbol family {family!r}")


def _symbol(rng) -> dict:
    family = SYMBOL_FAMILIES[int(rng.integers(len(SYMBOL_FAMILIES)))]
    if family == "gaussian":
        coeffs = (rng.uniform(0.5, 2.0), *rng.uniform(-2.0, 2.0, 2), rng.uniform(0.5, 2.0))
    elif family == "wave":
        coeffs = (rng.uniform(0.5, 2.0), *rng.uniform(-1.5, 1.5, 2), rng.uniform(0.0, 2 * np.pi))
    else:
        coeffs = (*rng.uniform(-0.3, 0.3, 3), rng.uniform(-1.0, 1.0))
    return {"family": family, "coeffs": tuple(float(x) for x in coeffs)}


def _disk(rng, rmin: float, rmax: float, offset: bool) -> dict:
    radius = float(rng.uniform(rmin, rmax))
    center = (0.0, 0.0)
    if offset:
        r0 = rng.uniform(0.25, 5.0 - radius)
        theta = rng.uniform(0.0, 2 * np.pi)
        center = (float(r0 * np.cos(theta)), float(r0 * np.sin(theta)))
    return {"shape": "disk", "radius": radius, "center": center}


def _rect(rng, smin: float, smax: float) -> dict:
    wq, wp = rng.uniform(smin, smax, 2)
    cq, cp = rng.uniform(-1.0, 1.0, 2)
    bounds = (cq - wq / 2, cq + wq / 2, cp - wp / 2, cp + wp / 2)
    return {"shape": "rect", "bounds": tuple(float(x) for x in bounds)}


def region_arg(region: dict) -> str:
    """The region as a ``qps spectrum --region`` argument."""
    if region["shape"] == "disk":
        return f"disk:{region['radius']!r}"
    return "rect:" + ",".join(repr(x) for x in region["bounds"])


def sector_cuts(rng, parts: int) -> np.ndarray:
    """Increasing cut angles of a partition of the plane into ``parts`` sectors."""
    gaps = 0.5 + rng.uniform(size=parts)
    return rng.uniform(0.0, 2 * np.pi) + 2 * np.pi * np.cumsum(gaps) / gaps.sum()


def sector_labels(cuts: np.ndarray, q, p) -> np.ndarray:
    """Index of the sector holding each point; sector i starts at cuts[i - 1]."""
    theta = np.mod(np.arctan2(p, q) - cuts[-1], 2 * np.pi)
    return np.searchsorted(np.mod(cuts - cuts[-1], 2 * np.pi)[:-1], theta, side="right")


# ---------------------------------------------------------------------------
# Lie algebras: so(n), h_{2n+1} and unimodular changes of basis
# ---------------------------------------------------------------------------


def so_algebra(n: int):
    """so(n) in the basis L_ij = E_ij - E_ji (i < j): (dim, names, constants)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: k for k, pair in enumerate(pairs)}

    def generator(i, j):
        m = [[0] * n for _ in range(n)]
        m[i][j], m[j][i] = 1, -1
        return m

    def commutator(a, b):
        ab = [[sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
        ba = [[sum(b[r][k] * a[k][c] for k in range(n)) for c in range(n)] for r in range(n)]
        return [[ab[r][c] - ba[r][c] for c in range(n)] for r in range(n)]

    mats = [generator(i, j) for i, j in pairs]
    c = {}
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            m = commutator(mats[a], mats[b])
            for (i, j), k in index.items():
                if m[i][j]:
                    c[(a, b, k)] = Fraction(m[i][j])
    names = tuple(f"L{i + 1}{j + 1}" for i, j in pairs)
    return len(pairs), names, c


def heisenberg_algebra(n: int):
    """h_{2n+1} with [Q_i, P_i] = Z: (dim, names, constants)."""
    names = tuple([f"Q{i + 1}" for i in range(n)] + [f"P{i + 1}" for i in range(n)] + ["Z"])
    c = {(i, n + i, 2 * n): Fraction(1) for i in range(n)}
    return 2 * n + 1, names, c


def unimodular(rng, dim: int):
    """Integer matrix U with det +-1 and its integer inverse, as row lists.

    U is a product of ``dim`` elementary row additions with coefficient +-1,
    then a row permutation.  The inverse is updated alongside by the matching
    column operations, so both stay exact.
    """
    u = [[int(r == c) for c in range(dim)] for r in range(dim)]
    inv = [row[:] for row in u]
    for _ in range(dim):
        a, b = (int(x) for x in rng.choice(dim, 2, replace=False))
        s = int(rng.choice((-1, 1)))
        u[a] = [x + s * y for x, y in zip(u[a], u[b])]
        for row in inv:
            row[b] -= s * row[a]
    perm = [int(x) for x in rng.permutation(dim)]
    u = [u[k] for k in perm]
    inv = [[row[k] for k in perm] for row in inv]
    return u, inv


def change_basis(dim: int, c: dict, basis) -> dict:
    """Structure constants in the basis e'_a = sum_i U_ai e_i, U unimodular.

    An isomorphic algebra, so every cohomology dimension is unchanged, but
    the constants become dense.
    """
    u, inv = basis
    full: dict = {}
    for (i, j, k), v in c.items():
        full[(i, j, k)] = v
        full[(j, i, k)] = -v
    out = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            image = [Fraction(0)] * dim
            for (i, j, k), v in full.items():
                w = u[a][i] * u[b][j]
                if w:
                    image[k] += w * v
            for m in range(dim):
                coeff = sum((image[k] * inv[k][m] for k in range(dim) if image[k]), Fraction(0))
                if coeff:
                    out[(a, b, m)] = coeff
    return out


def algebra_json(name: str, names, c: dict) -> dict:
    """Structure constants in the qps JSON schema."""
    by_pair: dict = {}
    for (i, j, k), v in sorted(c.items()):
        by_pair.setdefault((i, j), {})[str(k)] = str(v)
    return {
        "name": name,
        "dim": len(names),
        "basis": list(names),
        "brackets": [{"i": i, "j": j, "coeffs": co} for (i, j), co in sorted(by_pair.items())],
    }


def algebra_dim(family: str, n) -> int:
    if family == "catalog":
        return CATALOG_DIMS[n]
    if family == "so":
        return n * (n - 1) // 2
    if family == "heisenberg":
        return 2 * n + 1
    raise ValueError(f"unknown algebra family {family!r}")


def cohomology_oracle(family: str, n) -> tuple[int, int]:
    """Closed-form (dim H^1, dim H^2).

    so(n), n >= 3, is semisimple: H^1 = H^2 = 0 (Whitehead).  For h_{2n+1},
    n >= 2, H^1 = 2n and dim H^2 = n(2n - 1) - 1 (Santharoubane).  The catalog
    values are the textbook ones: every 2-form on abelian2 is closed, h3 has
    H^2 = 2, Poincare is perfect with H^2 = 0, and Galilei has the single
    Bargmann class with H^1 spanned by the dual of H.
    """
    if family == "so":
        return 0, 0
    if family == "heisenberg":
        return 2 * n, n * (2 * n - 1) - 1
    return {"abelian2": (2, 1), "h3": (2, 2), "so3": (0, 0), "galilei": (1, 1), "poincare": (0, 0)}[n]


# ---------------------------------------------------------------------------
# Op sequences
# ---------------------------------------------------------------------------


def _spectra_cycle(rng) -> list:
    ops = [
        ("region_spectrum", _disk(rng, 1.0, 5.0, offset=False)),
        ("region_spectrum", _disk(rng, 1.0, 4.0, offset=True)),
        ("region_spectrum", _rect(rng, 1.5, 6.0)),
        ("projection_scan", {}),
        ("povm", {"cuts": sector_cuts(rng, 4)}),
        # Small disks have no eigenvalue above 1 - epsilon, so the report
        # carries Infinity (ROADMAP item 5c); the larger regions do not.
        ("cli_spectrum", {"region": _disk(rng, 1.0, 2.0, offset=False)}),
        ("cli_spectrum", {"region": _disk(rng, 2.5, 5.0, offset=False)}),
        ("cli_spectrum", {"region": _rect(rng, 4.5, 6.0)}),
    ]
    for _ in range(2):
        ops.append(("expectation", {"density": density_matrix(rng, 32, 3), "symbol": _symbol(rng)}))
        ops.append(("axioms", {"effects": effects(rng, 6, 300)}))
    return ops


def _roundtrips_cycle(rng) -> list:
    fock = ({"kind": "ground"}, *({"kind": "fock", "level": n} for n in (1, 2, 3)))
    # Two orthogonality checks, the slowest ops, so that p90 falls inside
    # their group rather than on the edge between two op kinds.
    ops = [
        ("orthogonality", {"vectors": np.array([low_block_vector(rng, 24, 8) for _ in range(4)])})
        for _ in range(2)
    ]
    ops += [
        ("admissibility", {**fock[int(rng.integers(4))], "seed": int(rng.integers(2**31))}),
        ("admissibility", {"kind": "squeezed", "r": float(rng.uniform(-0.8, 0.8)),
                           "seed": int(rng.integers(2**31))}),
        ("transform", {"state": low_block_vector(rng, 24, 12)}),
        ("cli_transform", {"seed": int(rng.integers(2**31))}),
        ("cli_tomography", {"density": density_matrix(rng, 4, 4)}),
    ]
    for n in TOMOGRAPHY_DIMS:
        ops.append(("tomography", {"n": n, "density": density_matrix(rng, n, n)}))
    return ops


def _algebra(rng, family: str, n, dense: bool) -> dict:
    basis = unimodular(rng, algebra_dim(family, n)) if dense else None
    return {"family": family, "n": n, "basis": basis}


def _cohomology_cycle(rng, index: int, phase: int) -> list:
    """35 ops in four groups of latency, so p50 and p90 fall inside groups.

    12 ops under 50 ms; h9 in the sparse basis and in 10 seeded dense bases
    (about 0.1 s each), which hold the median; 10 ops from 0.2 to 0.5 s,
    where p90 falls; and so(6) and h13, whose basis alternates between
    cycles.  Three cycles make the 100 ops that p90 needs.
    """
    alternate = (index + phase) % 2 == 1
    ops = [("cohomology", _algebra(rng, "heisenberg", 4, dense)) for dense in [False] + [True] * 10]
    ops += [("cohomology", _algebra(rng, "so", 6, alternate)),
            ("cohomology", _algebra(rng, "heisenberg", 6, not alternate))]
    both = [("catalog", name) for name in CATALOG_DIMS]
    both += [("so", 4), ("so", 5), ("heisenberg", 2), ("heisenberg", 3), ("heisenberg", 5)]
    for family, n in both:
        ops += [("cohomology", _algebra(rng, family, n, dense)) for dense in (False, True)]
    ops.append(("cli_cohomology", _algebra(rng, "so", 5, True)))
    ops.append(("cli_cohomology", _algebra(rng, "heisenberg", 5, True)))
    return ops


_STREAM = {name: k for k, name in enumerate(WORKLOADS)}


def cycles(workload: str, seed: int):
    """Endless iterator of cycles (lists of (kind, params) ops) for a seed."""
    rng = np.random.default_rng([seed, _STREAM[workload]])
    phase = int(rng.integers(2))
    for index in count():
        if workload == "spectra":
            ops = _spectra_cycle(rng)
        elif workload == "roundtrips":
            ops = _roundtrips_cycle(rng)
        else:
            ops = _cohomology_cycle(rng, index, phase)
        yield [ops[k] for k in rng.permutation(len(ops))]


def warmup(workload: str, seed: int) -> list:
    """One op of each kind, from its own stream; the smallest algebras for cohomology."""
    rng = np.random.default_rng([seed, _STREAM[workload], 1])
    if workload == "cohomology":
        return [
            ("cohomology", _algebra(rng, "catalog", "so3", True)),
            ("cohomology", _algebra(rng, "so", 4, True)),
            ("cohomology", _algebra(rng, "heisenberg", 2, True)),
            ("cli_cohomology", _algebra(rng, "so", 4, True)),
        ]
    build = _spectra_cycle if workload == "spectra" else _roundtrips_cycle
    seen, ops = set(), []
    for kind, params in build(rng):
        if kind not in seen:
            seen.add(kind)
            ops.append((kind, params))
    return ops


def fingerprint(op) -> str:
    """Digest of an op's kind and every input value, arrays included."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"array{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            h.update(b"{")
            for key in sorted(x):
                feed(key)
                feed(x[key])
            h.update(b"}")
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for item in x:
                feed(item)
            h.update(b"]")
        else:
            h.update(f"{type(x).__name__}:{x!r};".encode())

    feed(op)
    return h.hexdigest()

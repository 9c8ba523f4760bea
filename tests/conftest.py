import os
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

import qps
from qps import rational_linalg as rla
from qps import tomography as tom
from qps import wh_model as wh


@pytest.fixture(scope="session")
def ctx24():
    return wh.fock_space(24)


@pytest.fixture(scope="session")
def ctx32():
    return wh.fock_space(32)


@pytest.fixture(scope="session")
def grid_ref():
    """Reference grid for the N=24 identities: radius 7, spacing 0.15."""
    return wh.build_grid(7.0, 0.15)


@pytest.fixture(scope="session")
def grid_fine():
    """Grid whose lattice disk of radius 3 has near-exact measure 4.5."""
    return wh.build_grid(7.0, 0.098)


@pytest.fixture(scope="session")
def grid_wide():
    """Large-radius grid adequate for generators spread over the low block."""
    return wh.build_grid(13.0, 0.35)


@pytest.fixture(scope="session")
def eta24(ctx24):
    return wh.resolution_generator("ground", ctx24)


@pytest.fixture(scope="session")
def eta32(ctx32):
    return wh.resolution_generator("ground", ctx32)


@pytest.fixture(scope="session")
def ctx4():
    return wh.fock_space(4)


@pytest.fixture(scope="session")
def grid4():
    return wh.build_grid(5.0, 0.4)


@pytest.fixture(scope="session")
def eta4(ctx4):
    return wh.resolution_generator("ground", ctx4)


def random_low_block(rng, n_dim: int, top: int = 8) -> np.ndarray:
    """Unit vector supported on Fock levels 0..top."""
    v = np.zeros(n_dim, dtype=complex)
    v[: top + 1] = rng.normal(size=top + 1) + 1j * rng.normal(size=top + 1)
    return v / np.linalg.norm(v)


def tomography_rows(eta, grid, ctx) -> np.ndarray:
    """The K x N^2 vectorized densities |u_k><u_k| of the whole grid, diagonal coordinates first."""
    n = ctx.n_dim
    rows = np.empty((len(grid), n * n))
    for part, diagonal, off_diagonal in tom._family_rows(eta, grid, ctx):
        rows[part, :n], rows[part, n:] = diagonal, off_diagonal
    return rows


def quadratures(n_dim: int):
    """(a, a*, q, p) truncated to N x N: the ladder operator
    <m|a|n> = sqrt(n) delta_{m,n-1}, its adjoint, q = (a + a*)/sqrt(2) and
    p = (a - a*)/(i sqrt(2)).  The matrix oracle for the displacement and
    quantization tests; the package builds none of them."""
    a = np.zeros((n_dim, n_dim), dtype=complex)
    ns = np.arange(1, n_dim)
    a[ns - 1, ns] = np.sqrt(ns)
    ad = a.conj().T
    return a, ad, (a + ad) / np.sqrt(2.0), (a - ad) / (1j * np.sqrt(2.0))


def closed_form_displacement(alpha, m, n):
    """<m|D(alpha)|n> in the complex-power closed form: sqrt(lo!/hi!)
    e^(-|alpha|^2/2) L_lo^(hi-lo)(|alpha|^2), with lo, hi the smaller and
    larger of m, n, times alpha^(m-n) on and below the diagonal and
    (-conj alpha)^(n-m) above it.  Broadcasts over ``alpha``, ``m``, ``n``.
    The oracle for the factored form the package builds (Cahill and
    Glauber, Phys. Rev. 177, 1857, 1969)."""
    alpha = np.asarray(alpha, dtype=complex)
    lo, hi = np.minimum(m, n), np.maximum(m, n)
    x = np.abs(alpha) ** 2
    radial = np.exp(0.5 * (gammaln(lo + 1) - gammaln(hi + 1)) - x / 2.0) * eval_genlaguerre(lo, hi - lo, x)
    return radial * np.where(m >= n, alpha ** (hi - lo), (-np.conj(alpha)) ** (hi - lo))


def central_phase(vec, v):
    """(beta, deviation) of v against vec, along the last axis: beta = <vec, v>
    and the norm distance of v from beta vec, each reduced row by row."""
    beta = np.sum(v * vec.conj(), axis=-1)
    return beta, np.linalg.norm(v - beta[..., None] * vec, axis=-1)


def central_phase_deviation(x, y, eta, ctx):
    """Apply the displacement commutator of two phase-space points to eta.

    Returns (beta, deviation): the scalar the result is proportional to,
    and the norm distance from that multiple of eta.  For the
    Weyl-Heisenberg family the commutator is a central phase, so the
    deviation is pure truncation error.  The per-pair oracle for
    ``wh_model.admissibility``: one ``displacement`` call per point.
    """
    vec = np.asarray(eta, dtype=complex)
    dx = wh.displacement((x[0] + 1j * x[1]) / wh.SQRT2, ctx)
    dy = wh.displacement((y[0] + 1j * y[1]) / wh.SQRT2, ctx)
    # D(-a) equals D(a)^H entry by entry, and a contiguous copy multiplies bit for bit alike
    v = vec
    for d in (dy, dx, np.ascontiguousarray(dy.conj().T), np.ascontiguousarray(dx.conj().T)):
        v = d @ v
    beta, deviation = central_phase(vec, v)
    return beta, float(deviation)


# ---------------------------------------------------------------------------
# exact-arithmetic oracles
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    """Exact product of two rational matrices (lists of rows)."""
    a = [[Fraction(x) for x in row] for row in a]
    b = [[Fraction(x) for x in row] for row in b]
    if not a:
        return []
    inner = len(a[0])
    ncols = len(b[0]) if b else 0
    return [
        [sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(ncols)]
        for row in a
    ]


def mat_vec(a, v):
    """Exact product of a rational matrix and a rational vector."""
    v = [Fraction(x) for x in v]
    return [sum((Fraction(row[k]) * v[k] for k in range(len(v))), Fraction(0)) for row in a]


def primitive(vec):
    """Canonical rational ray: clear denominators, divide out the content,
    make the first nonzero entry positive."""
    vec = [Fraction(x) for x in vec]
    scale = lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (scale // x.denominator) for x in vec]
    g = gcd(*ints) or 1
    lead = next((v for v in ints if v != 0), 1)
    return [Fraction(v // g if lead > 0 else -v // g) for v in ints]


def in_span(basis, vec):
    """True iff ``vec`` lies in the span of ``basis`` (exact rank test)."""
    if all(x == 0 for x in vec):
        return True
    if not basis:
        return False
    ncols = len(vec)
    rank = len(rla.row_space_basis(basis, ncols))
    return len(rla.row_space_basis(list(basis) + [list(vec)], ncols)) == rank


# ---------------------------------------------------------------------------
# command-line children
# ---------------------------------------------------------------------------


def cli_env() -> dict:
    """Environment for a `python -m qps.cli` child that imports this `qps`.

    The package root goes first on the child's PYTHONPATH, so the child
    finds the package the suite imported from any working directory, also
    when the suite itself was started with a relative PYTHONPATH such as
    `src`.  Entries already on PYTHONPATH are kept after it.
    """
    package_root = str(Path(qps.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)

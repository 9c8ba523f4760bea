"""The lattice's D4 covariance: the frame operator and quantization turn with the grid.

Every ``build_grid`` lattice is invariant under the parity x -> -x, the reflection
(q, p) -> (q, -p) and the quarter turn (q, p) -> (-p, q).  In the Fock space these
act as Pi = diag((-1)^m), complex conjugation (for a real generator) and
R = diag(i^m), as Pi D(alpha) Pi = D(-alpha), conj D(alpha) = D(conj(alpha)) and
R D(alpha) R^dagger = D(i alpha).  The sums over the grid are then the same sums in
another order, so each identity holds to rounding.
"""

import numpy as np
import pytest

from qps import localization as loc
from qps import wh_model as wh

N = 24
PARITY = np.diag((-1.0) ** np.arange(N))
TURN = np.diag(1j ** np.arange(N))
# (kind, parameters) of each generator, and of its quarter turn R eta where a CLI generator is it
GENERATORS = {
    "ground": (("ground", {}), ("ground", {})),
    "fock:3": (("fock", {"n": 3}), None),
    "squeezed:0.5": (("squeezed", {"r": 0.5}), ("squeezed", {"r": -0.5})),
}
TOL = 1e-14


def _rect(q, p):
    """The indicator of the rect 0.3 < q < 2.1, -0.4 < p < 1.3, which no symmetry of the lattice fixes."""
    return ((q > 0.3) & (q < 2.1) & (p > -0.4) & (p < 1.3)).astype(float)


@pytest.fixture(scope="module")
def ctx():
    return wh.fock_space(N)


def _setup(name, ctx):
    """(eta, R eta, grid): the generator, its quarter turn and a fresh R 7, h 0.15 grid."""
    (kind, params), turned = GENERATORS[name]
    eta = wh.resolution_generator(kind, ctx, **params)
    turned_eta = TURN @ eta
    if turned is not None:
        assert np.array_equal(turned_eta, wh.resolution_generator(turned[0], ctx, **turned[1]))
    return eta, turned_eta, wh.build_grid(7.0, 0.15)


@pytest.mark.parametrize("name", GENERATORS)
def test_frame_is_real_and_parity_even(ctx, name):
    eta, _, grid = _setup(name, ctx)
    s = wh.frame_operator(eta, grid, ctx)
    assert np.max(np.abs(s.imag)) <= TOL
    assert np.max(np.abs(PARITY @ s @ PARITY - s)) <= TOL


@pytest.mark.parametrize("name", GENERATORS)
def test_frame_turns_with_the_generator(ctx, name):
    eta, turned_eta, grid = _setup(name, ctx)
    s = wh.frame_operator(eta, grid, ctx)
    turned = wh.frame_operator(turned_eta, wh.build_grid(7.0, 0.15), ctx)
    assert np.max(np.abs(turned - TURN @ s @ TURN.conj().T)) <= TOL


@pytest.mark.parametrize("name", GENERATORS)
def test_quantization_commutes_with_parity(ctx, name):
    eta, _, grid = _setup(name, ctx)
    a = loc.quantize(_rect, eta, grid, ctx)
    mirrored = loc.quantize(lambda q, p: _rect(-q, -p), eta, grid, ctx)
    assert np.max(np.abs(mirrored - PARITY @ a @ PARITY)) <= TOL


@pytest.mark.parametrize("name", GENERATORS)
def test_quantization_conjugates_under_the_q_axis_reflection(ctx, name):
    eta, _, grid = _setup(name, ctx)
    a = loc.quantize(_rect, eta, grid, ctx)
    reflected = loc.quantize(lambda q, p: _rect(q, -p), eta, grid, ctx)
    assert np.max(np.abs(reflected - a.conj())) <= TOL


@pytest.mark.parametrize("name", GENERATORS)
def test_quantization_turns_with_the_generator(ctx, name):
    eta, turned_eta, grid = _setup(name, ctx)
    a = loc.quantize(_rect, eta, grid, ctx)
    turned = loc.quantize(lambda q, p: _rect(p, -q), turned_eta, wh.build_grid(7.0, 0.15), ctx)
    assert np.max(np.abs(turned - TURN @ a @ TURN.conj().T)) <= TOL

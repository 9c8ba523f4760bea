"""The reflections of the lattice split the tomography rows, and the solve, into four blocks.

For a real generator of definite parity, the row of |u_k><u_k| at -x is the row at x
with the coordinates of odd i + j negated, and the row at conj(x) the row at x with the
imaginary coordinates negated.  ``reconstruct_state`` builds only the quadrant q, p > 0
and solves one block per character of {1, Pi, C, Pi C}.
"""

import numpy as np
import pytest

from qps import tomography as tom
from qps import wh_model as wh

from conftest import random_low_block, tomography_rows

GENERATORS = {"ground": {}, "fock": {"n": 3}, "squeezed": {"r": 0.5}}


@pytest.mark.parametrize("kind", GENERATORS, ids=["ground", "fock:3", "squeezed:0.5"])
def test_image_rows_are_the_sign_flipped_and_conjugated_quadrant_rows(kind):
    grid = wh.build_grid(6.0, 0.4)  # K = 716
    ctx = wh.fock_space(16)
    rows = tomography_rows(wh.resolution_generator(kind, ctx, **GENERATORS[kind]), grid, ctx)
    quadrant = np.flatnonzero((grid.q > 0) & (grid.p > 0))
    assert 4 * quadrant.size == len(grid)
    q, p = grid.q[quadrant], grid.p[quadrant]
    iu, ju = np.triu_indices(16, k=1)
    parity = np.concatenate([np.ones(16), np.tile(np.where((iu + ju) % 2, -1.0, 1.0), 2)])
    conjugation = np.concatenate([np.ones(16 + iu.size), -np.ones(iu.size)])
    for (sq, sp), sign in (((-1, -1), parity), ((1, -1), conjugation), ((-1, 1), parity * conjugation)):
        images, miss = grid.locate(sq * q, sp * p)
        assert not miss.any() and (images >= 0).all()
        assert np.array_equal(rows[images], rows[quadrant] * sign)


@pytest.mark.parametrize("radius,spacing", [(6.0, 0.4), (5.0, 0.4), (7.0, 0.15), (7.0, 0.098), (13.0, 0.35),
                                            (1.0, 0.5), (3.3, 0.7), (1e154, 3e153)])
def test_reflections_read_off_the_slots_are_the_located_images(radius, spacing):
    # the images found by snapping the reflected coordinates, against those read by index
    grid = wh.build_grid(radius, spacing)
    quadrant = (grid.q > 0) & (grid.p > 0)
    sq, sp = np.array([[1, -1, 1, -1], [1, -1, -1, 1]])[..., None]
    images, miss = grid.locate(sq * grid.q[quadrant], sp * grid.p[quadrant])
    assert not miss.any() and (images >= 0).all() and 4 * images.shape[1] == len(grid)
    assert np.array_equal(grid.reflections(), images)


def _fresh_grid_and_densities(eta, n_dim):
    """A fresh K = 716 grid, the context and the densities of a seeded state, read off
    another grid so that only the solve builds rows on the fresh one."""
    grid, other = wh.build_grid(6.0, 0.4), wh.build_grid(6.0, 0.4)
    ctx = wh.fock_space(n_dim)
    rho = tom.random_density(np.random.default_rng(5), n_dim)
    probs = tom.classical_density(rho, eta, other, ctx).values
    return grid, ctx, probs


@pytest.mark.parametrize("name,built", [("ground", 179), ("squeezed:0.5", 179), ("complex", 716), ("mixed", 716)])
def test_the_split_builds_only_the_quadrant_rows(name, built):
    # complex, or real with support in both parities: one block, every row
    ctx = wh.fock_space(8)
    eta = {
        "ground": wh.resolution_generator("ground", ctx),
        "squeezed:0.5": wh.resolution_generator("squeezed", ctx, r=0.5),
        "complex": random_low_block(np.random.default_rng(8), 8, top=7),
        "mixed": np.array([0.6, 0.8, 0, 0, 0, 0, 0, 0]),
    }[name]
    grid, ctx, probs = _fresh_grid_and_densities(eta, 8)
    result = tom.reconstruct_state(probs, eta, grid, ctx)
    assert int(grid._family.built.sum()) == built
    assert result.completeness.complete and result.residual <= 1e-12


@pytest.mark.parametrize("name", ["ground", "complex"])
def test_residual_is_the_misfit_of_the_whole_system(name):
    # negated densities are far from any state: the repaired estimate misfits by O(1), and the
    # blocks' misfits, the whole misfit turned by an orthogonal map, sum to its square
    ctx = wh.fock_space(8)
    eta = wh.resolution_generator("ground", ctx) if name == "ground" else random_low_block(
        np.random.default_rng(8), 8, top=7)
    grid, ctx, probs = _fresh_grid_and_densities(eta, 8)
    result = tom.reconstruct_state(-probs, eta, grid, ctx)
    misfit = np.linalg.norm(tomography_rows(eta, grid, ctx) @ tom.vectorize_hermitian(result.rho.matrix) + probs)
    assert result.residual > 1.0
    assert result.residual == pytest.approx(misfit, rel=1e-13)

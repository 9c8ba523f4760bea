"""The benchmark's seeded inputs: one seed gives one op sequence."""

from itertools import islice

import pytest

from perfbench import inputs


def _ops(workload, seed, n_cycles=3):
    ops = list(inputs.warmup(workload, seed))
    for cycle in islice(inputs.cycles(workload, seed), n_cycles):
        ops += cycle
    return [inputs.fingerprint(op) for op in ops]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_one_seed_gives_one_op_sequence(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_cycle_has_the_same_mix(workload):
    mixes = [
        sorted((kind, params.get("family"), params.get("n")) for kind, params in cycle)
        for cycle in islice(inputs.cycles(workload, 3), 4)
    ]
    assert all(mix == mixes[0] for mix in mixes)


def test_unimodular_inverse_is_exact():
    import numpy as np

    rng = np.random.default_rng(0)
    for dim in (2, 5, 15):
        u, inv = inputs.unimodular(rng, dim)
        product = [[sum(u[i][k] * inv[k][j] for k in range(dim)) for j in range(dim)]
                   for i in range(dim)]
        assert product == [[int(i == j) for j in range(dim)] for i in range(dim)]


def test_identity_change_of_basis_keeps_the_constants():
    dim, _, c = inputs.so_algebra(4)
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    assert inputs.change_basis(dim, c, (identity, identity)) == c

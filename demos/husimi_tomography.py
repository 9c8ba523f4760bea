# Every state induces a genuine probability density on phase space, and
# the coherent POVM is informationally complete: densities determine the
# state, and a least-squares inversion recovers it.

import numpy as np

from qps import tomography as tom
from qps import wh_model as wh

ctx = wh.fock_space(4)
grid = wh.build_grid(5.0, 0.4)
eta = wh.resolution_generator("ground", ctx)

# The smoothed density of the one-photon state is x e^-x in the radial
# variable x = |alpha|^2, peaking at one photon of displacement.
rho = tom.DensityOperator.pure(np.eye(4)[1])
density = tom.classical_density(rho, eta, grid, ctx)
peak = np.argmax(density.values)
print(f"one-photon density peaks at |alpha|^2 = "
      f"{np.abs(grid.alpha[peak]) ** 2:.2f} with value {density.values[peak]:.4f} "
      f"(1/e = {1 / np.e:.4f})")
print(f"total probability: {np.sum(grid.weights * density.values):.6f}")

# Quantum and classical expectations agree by construction.
quantum, classical = tom.expectation_pair(
    rho, lambda q, p: q**2 + p**2, eta, grid, ctx
)
print(f"energy symbol: quantum {quantum:.6f} = classical {classical:.6f}")

# Completeness: the 484 rank-one densities span all 16 Hermitian
# dimensions, while the four position projectors span only 4.
# The condition number of the vectorized densities bounds how much the
# inversion below can amplify errors in the data.
report = tom.completeness_rank(eta, grid, ctx)
cond = report.singular_values[0] / report.smallest_kept_singular_value
print(f"\ncoherent family rank: {report.gram_rank}/{report.required} "
      f"(complete: {report.complete}, cond(rows) {cond:.1f})")
projectors = [np.diag((np.arange(4) == i).astype(complex)) for i in range(4)]
print(f"position projectors rank: {tom.operator_family_rank(projectors).gram_rank}/16")

# Round trip: sample a random mixed state, keep only its density, and
# solve for the state again.
rng = np.random.default_rng(1)
truth = tom.random_density(rng, 4, rank=2)
probs = tom.classical_density(truth, eta, grid, ctx).values
result = tom.reconstruct_state(probs, eta, grid, ctx)
print(f"\nreconstruction error: "
      f"{np.linalg.norm(result.rho.matrix - truth.matrix):.2e} "
      f"(residual {result.residual:.2e})")

# The concrete carrier: a truncated Fock space, closed-form displacement
# operators, and the admissibility diagnostics that certify a resolution
# generator before anything downstream trusts it.

import numpy as np

from qps import wh_model as wh

ctx = wh.fock_space(24)
grid = wh.build_grid(7.0, 0.15)
print(f"Fock dimension {ctx.n_dim}, grid of {len(grid)} points, "
      f"total measure {np.sum(grid.weights):.3f} (~ radius^2/2 = 24.5)")

# Displacement matrices carry the exact infinite-dimensional entries.
alpha = 1.0
d = wh.displacement(alpha, ctx)
print(f"\n<0|D(1)|0> = {d[0, 0].real:.6f}   (exp(-1/2) = {np.exp(-0.5):.6f})")

# A displaced vacuum is a coherent state; two of them overlap by the
# Gaussian kernel.
e0 = np.zeros(24, complex); e0[0] = 1.0
ca = wh.displacement(1.0 + 0.5j, ctx) @ e0
cb = wh.displacement(0.3 - 0.2j, ctx) @ e0
predicted = np.exp(-abs(1.0 + 0.5j) ** 2 / 2 - abs(0.3 - 0.2j) ** 2 / 2
                   + np.conj(1.0 + 0.5j) * (0.3 - 0.2j))
print(f"coherent overlap: computed {np.vdot(ca, cb):.8f}, predicted {predicted:.8f}")

# Admissibility: the autocorrelation must be square-integrable over the
# grid, and every displacement commutator must act on the generator as a
# pure phase.  In this normalization the integral is 1 for every unit
# generator, so the orthogonality constant d is 1.  The commutator pairs
# are drawn within beta_sample_radius, which shrinks as the generator's
# support nears the cutoff.
for name, kind, kwargs in [("ground", "ground", {}), ("fock(1)", "fock", {"n": 1})]:
    eta = wh.resolution_generator(kind, ctx, **kwargs)
    report = wh.admissibility(eta, grid, ctx)
    print(f"\n{name}: integral = {report.integral:.6f}, d = {report.d_constant:.6f}, "
          f"commutators central: {report.beta_ok} "
          f"(max deviation {report.beta_max_deviation:.2e} "
          f"within radius {report.beta_sample_radius:.3f})")

# A generator whose autocorrelation has not decayed by the grid edge is
# rejected with the radius that would be needed.
try:
    wh.admissibility(wh.resolution_generator("fock", ctx, n=2), grid, ctx)
except ValueError as err:
    print(f"\nfock(2) on this grid: {err}")

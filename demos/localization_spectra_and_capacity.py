# Localization operators: quantize the indicator of a region and read
# physics out of the spectrum.  Eigenvalues cluster at 0 and 1, the trace
# is bounded by the region's measure, and the number of near-1 modes is
# the channel count of the region.

import numpy as np
from scipy.special import gammainc

from qps import localization as loc
from qps import wh_model as wh

ctx = wh.fock_space(32)
grid = wh.build_grid(7.0, 0.098)
eta = wh.resolution_generator("ground", ctx)

# For a centered disk the spectrum has a closed form: level n localizes
# with probability P(n+1, R^2/2), the regularized incomplete gamma.
region = loc.RegionSpec.disk(3.0)
spec = loc.localization_spectrum(region, eta, grid, ctx)
oracle = gammainc(np.arange(1, 10), 4.5)
print("disk R=3: eigenvalue vs closed form")
for n in range(9):
    print(f"  n={n}:  {spec.eigenvalues[n]:.6f}  vs  {oracle[n]:.6f}")

summary = loc.clustering_report(spec)
print(f"\ntrace {summary.trace:.4f} <= measure {summary.mu_delta:.4f}")
print(f"bands (eps=0.1): {summary.near_one} near 1, {summary.mid} mid, "
      f"{summary.near_zero} near 0")

# Quantizing coordinates instead of indicators recovers the quadrature
# operators (with the Gaussian smoothing shift on squares).
# q = (a + a*)/sqrt(2), with the ladder operator <m|a|n> = sqrt(n) delta_{m,n-1}
lowering = np.diag(np.sqrt(np.arange(1, 32)), 1)
q_op = (lowering + lowering.T) / np.sqrt(2.0)
a_q = loc.quantize(lambda q, p: q, eta, grid, ctx)
print(f"\n|A(q) - q_op| on the low block: "
      f"{np.linalg.norm((a_q - q_op)[:9, :9], ord=2):.2e}")

# Channel capacity: the number of eigenvalues above 1/2 tracks the
# region measure; for a duration-bandwidth rectangle this is the
# classic time-bandwidth channel count.
print("\nchannels through disks of growing size:")
for radius in (3.0, 4.0, 5.0):
    count, mu = loc.channel_capacity(loc.RegionSpec.disk(radius), eta, grid, ctx)
    print(f"  measure {mu:6.2f} -> {count} channels")

# The clustering sharpens with size: the mid band grows like the
# boundary, the near-1 band like the area.
ratios = []
for radius in (3.0, 4.0, 5.0):
    s = loc.localization_spectrum(loc.RegionSpec.disk(radius), eta, grid, ctx)
    ratios.append(loc.clustering_report(s).mid_to_near_one_ratio)
print(f"\nmid/near-1 ratios for R = 3, 4, 5: {np.round(ratios, 3)} (decreasing)")

"""Phase-space quantum mechanics toolkit.

Submodules:

- ``lie_cohomology``: exact-rational Chevalley-Eilenberg machinery
  (closed/exact 2-forms, kernel subalgebras, phase-space dimensions).
- ``wh_model``: truncated Fock space, displacement operators, phase-space
  grids and their sampled functions, resolution generators, displaced
  overlaps read off the displacement table, the family store with its
  Gram products and frame operator, admissibility checks.
- ``transform``: coherent-state transform, reconstruction, orthogonality
  relation; only ``cli`` imports it.
- ``localization``: phase-space quantization A(f), localization spectra,
  eigenvalue clustering, channel capacity.
- ``tomography``: Husimi densities, informational completeness, state
  reconstruction.
- ``effect_algebra``: effects, the partial sum, POVM checks, fuzzy-symbol
  MV/Heyting operations.
- ``cli``: command-line front end (``qps`` entry point).
"""

__version__ = "0.1.0"

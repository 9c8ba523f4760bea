"""Benchmark of the qps toolkit: seeded closed-loop workloads with per-op checks.

Run one workload with ``python3 perfbench/run.py --workload spectra --seed 1
--seconds 30 --trace 0`` from the repository root; see ``perfbench/README.md``.
Importing this package imports neither numpy nor qps.
"""

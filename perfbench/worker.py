"""One workload in one fresh process: set up, warm up, then run ops back to back.

Started by ``perfbench/run.py`` as ``python -m perfbench.worker`` with qps on
PYTHONPATH.  Prints ``READY`` on stdout once set-up and the warm-up ops are
done (the parent times set-up up to that line), then runs whole cycles of
ops until the measuring window is spent and writes a JSON result file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _run_op(workload, kind, params):
    """(latency_s, status, error, detail) of one op; only ``run`` is timed."""
    from perfbench.workloads import FAIL  # imports qps

    run, check = workload.prepare(kind, params)
    t0 = perf_counter()
    try:
        result = run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return perf_counter() - t0, FAIL, None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    try:
        outcome = check(result)
    except Exception as exc:
        return latency, FAIL, None, f"check raised {type(exc).__name__}: {exc}"
    return latency, outcome.status, outcome.error, outcome.detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # qps writes nothing to stdout with --out, but keep stdout for READY only.
    ready, sys.stdout = sys.stdout, sys.stderr

    from perfbench import inputs
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.tmp)
    for kind, params in inputs.warmup(args.workload, args.seed):
        _run_op(workload, kind, params)
    ready.write("READY\n")
    ready.flush()
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()

    ops, cycle_s = [], []
    window0 = perf_counter()
    for cycle in inputs.cycles(args.workload, args.seed):
        # Whole cycles only, ending at the boundary nearest the window's end
        # but not before --min-ops ops, so every run measures the same mix
        # of op kinds.
        elapsed = perf_counter() - window0
        if (len(ops) >= args.min_ops and cycle_s
                and elapsed + statistics.fmean(cycle_s) / 2 >= args.seconds):
            break
        c0 = perf_counter()
        for kind, params in cycle:
            if tracer:
                tracer.op = len(ops)
            latency, status, error, detail = _run_op(workload, kind, params)
            label = f"{kind}:{params['family']}" if "family" in params else kind
            ops.append([label, latency, status, error, detail, len(cycle_s)])
        cycle_s.append(perf_counter() - c0)
    window = perf_counter() - window0

    if tracer:
        tracer.uninstall()
        tracer.dump(os.path.join(args.tmp, "spans.jsonl"))
    result = {
        "ops": ops,
        "cycles": len(cycle_s),
        "window_s": window,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": _versions(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the qps benchmark and print its metrics.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Run from the repository root; qps is imported from ``src/``.  Each workload
runs as one closed-loop client in fresh worker processes (see worker.py).
With ``--trace 0`` the end-to-end metrics come from one measuring worker,
and set-up time is the median over that worker and two more that only set
up.  With ``--trace 1`` an untraced and a traced worker each measure half
the window; the traced one gives the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run (versions, threads, seed, op counts, failures).  Exits 2 without a
result when qps is missing, and 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402  (stdlib only)

WORKLOADS = ("spectra", "roundtrips", "cohomology")
SETUP_SAMPLES = 3
# p90 needs at least ten samples above it.
P90_MIN_OPS = 100
SETUP_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


class WorkerError(RuntimeError):
    pass


def worker_env(src: Path):
    """Environment of a worker: absolute src path, BLAS and OpenMP pinned."""
    threads = str(min(len(os.sched_getaffinity(0)), 2))
    env = {k: v for k, v in os.environ.items() if k != "QPS_THREADS"}
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env, threads


def run_worker(args, tmp: str, env: dict, seconds: float, trace: int, setup_only: bool, n: int,
               min_ops: int = 1):
    """(set-up seconds, result dict or None) of one worker process."""
    out = os.path.join(tmp, f"result{n}.json")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--tmp", tmp, "--out", out, "--min-ops", str(min_ops)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=SETUP_TIMEOUT_S):
                raise WorkerError(f"worker not ready after {SETUP_TIMEOUT_S} s")
        line = proc.stdout.readline()
        setup = perf_counter() - t0
        if line.strip() != b"READY":
            raise WorkerError(f"worker exited during set-up with code {proc.wait()}")
        code = proc.wait(timeout=seconds + EXIT_TIMEOUT_S)
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker did not finish in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if setup_only:
        return setup, None
    with open(out, encoding="utf-8") as fh:
        return setup, json.load(fh)


def digits(error: float) -> float:
    return -math.log10(max(error, 1e-16))


def summarize(result: dict) -> dict:
    ops = result["ops"]
    latencies = [op[1] for op in ops]
    statuses = [op[2] for op in ops]
    return {
        "attempted": len(ops),
        "passed": statuses.count("pass"),
        "known_defect": statuses.count("known_defect"),
        "failed": statuses.count("fail"),
        "busy_s": sum(latencies),
        "latencies": latencies,
        "errors": [op[3] for op in ops if op[3] is not None],
    }


def cycle_goodput(result: dict) -> float:
    """Median over cycles of passed ops per busy second.

    Every cycle has the same mix of op kinds, so the cycles are like samples,
    and the median is not moved by a few cycles that met a busy host.
    """
    passed = [0] * result["cycles"]
    busy = [0.0] * result["cycles"]
    for op in result["ops"]:
        passed[op[5]] += op[2] == "pass"
        busy[op[5]] += op[1]
    return statistics.median(p / b for p, b in zip(passed, busy))


def end_to_end(result: dict, setups: list) -> dict:
    s = summarize(result)
    lat = s["latencies"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (cycle_goodput(result), "op/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "op_pass_frac": (s["passed"] / s["attempted"], "1"),
        "accuracy_digits": (statistics.fmean(digits(e) for e in s["errors"]), "digits"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def record(args, threads: str, results: list, setups: list) -> dict:
    """What was run where: versions, threads, seed, op counts and failures."""
    rec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, **results[0]["versions"],
           "nproc": len(os.sched_getaffinity(0)), "blas_omp_threads": threads,
           "QPS_THREADS": "unset", "setup_samples_s": setups, "workers": []}
    for result in results:
        s = summarize(result)
        p90 = statistics.quantiles(s["latencies"], n=10, method="inclusive")[8]
        failures = [f"{op[0]}: {op[4]}" for op in result["ops"] if op[2] != "pass"]
        rec["workers"].append({
            key: s[key] for key in ("attempted", "passed", "known_defect", "failed", "busy_s")
        } | {"cycles": result["cycles"], "window_s": result["window_s"],
             "latency_samples": len(s["latencies"]),
             "samples_above_p90": sum(x > p90 for x in s["latencies"]),
             "busy_share_by_kind": {kind: round(sum(op[1] for op in result["ops"] if op[0] == kind)
                                                / s["busy_s"], 3)
                                    for kind in sorted({op[0] for op in result["ops"]})},
             "first_failures": failures[:5]})
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "qps" / "__init__.py").is_file():
        print(f"perfbench: no qps package under {src}", file=sys.stderr)
        return 2
    env, threads = worker_env(src)
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            half = args.seconds / 2
            _, plain = run_worker(args, tmp, env, half, 0, False, 0)
            setup, traced = run_worker(args, tmp, env, half, 1, False, 1)
            results, setups = [plain, traced], [setup]
            metrics = tracer.layer_metrics(tracer.load(os.path.join(tmp, "spans.jsonl")),
                                           len(traced["ops"]))
            metrics["trace.overhead_frac"] = (1 - cycle_goodput(traced) / cycle_goodput(plain), "1")
        else:
            setups = [run_worker(args, tmp, env, args.seconds, 0, True, n)[0]
                      for n in range(SETUP_SAMPLES - 1)]
            setup, result = run_worker(args, tmp, env, args.seconds, 0, False, SETUP_SAMPLES,
                                       min_ops=P90_MIN_OPS)
            setups.append(setup)
            results = [result]
            metrics = end_to_end(result, setups)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    counts = [summarize(r) for r in results]
    failed = sum(c["failed"] for c in counts)
    print(json.dumps({"record": record(args, threads, results, setups)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(c["attempted"] for c in counts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

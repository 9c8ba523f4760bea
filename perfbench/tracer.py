"""Spans around calls into qps public functions, recorded from the benchmark.

:meth:`Tracer.install` replaces each target function at every binding site in
the loaded ``qps`` modules: the module attribute and every copy that a
``from ... import`` made elsewhere (``transform.coherent_family``,
``tomography.quantize``, ...).  Calls between qps modules then open child
spans too, and self time is not overstated.

Each span is ``[name, start, end, parent, op, error, key, amount, overhead]``:
``parent`` is the index of the enclosing span (-1 at top level), ``op`` the
benchmark op being run, ``error`` the exception type a call raised.  ``key``
fingerprints the inputs of the functions whose redundant calls are counted,
``amount`` is the computed work of a call (Gram flops, bytes written), and
``overhead`` the tracer's own time spent on ``key`` and ``amount``, which
is taken out of the parent's self time.  Spans stay in memory and are
written out when the run ends.

This module imports neither numpy nor qps, so the parent process can
aggregate spans without them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from time import perf_counter

TARGETS = {
    "wh_model": ("coherent_family", "displacement", "admissibility", "build_grid"),
    "transform": ("w_transform", "reconstruct", "orthogonality_check"),
    "localization": ("quantize", "localization_spectrum", "channel_capacity"),
    "tomography": ("classical_density", "completeness_rank", "reconstruct_state"),
    "effect_algebra": ("verify_axioms", "projection_scan", "povm_check"),
    "lie_cohomology": ("validate_algebra", "coboundary2", "second_cohomology", "kernel_subalgebra"),
    "rational_linalg": ("nullspace", "rank", "row_space_basis"),
    "cli": ("main",),
    "formats": ("write_json", "write_samples_csv", "write_values_csv", "read_values_csv",
                "write_spectrum_csv"),
}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _vector_bytes(eta) -> bytes:
    vec = getattr(eta, "vector", eta)
    return vec.tobytes() if hasattr(vec, "tobytes") else repr(vec).encode()


def _grid_id(grid):
    return (grid.radius, grid.spacing, len(grid))


def _key_coherent_family(args, kwargs):
    eta, grid, ctx = args[:3]
    return _digest(_vector_bytes(eta), _grid_id(grid), ctx.n_dim)


def _key_localization_spectrum(args, kwargs):
    delta, eta, grid, ctx = args[:4]
    epsilon = args[4] if len(args) > 4 else kwargs.get("epsilon", 0.1)
    mask = delta.grid_mask.tobytes() if delta.grid_mask is not None else b""
    return _digest(delta.kind, delta.params, mask, _vector_bytes(eta), _grid_id(grid),
                   ctx.n_dim, epsilon)


def _key_coboundary2(args, kwargs):
    sc = args[0]
    return _digest(sc.dim, sorted(sc.c.items()))


def _gram_flop(args, kwargs, result):
    grid, ctx = args[2], args[3]
    return 8.0 * len(grid) * ctx.n_dim**2


def _written_bytes(path_index):
    def amount(args, kwargs, result):
        path = args[path_index] if len(args) > path_index else kwargs.get("path")
        return float(os.path.getsize(path)) if path is not None else 0.0

    return amount


# Functions whose share of repeated inputs is reported as redundant_frac.
KEYS = {
    "wh_model.coherent_family": _key_coherent_family,
    "localization.localization_spectrum": _key_localization_spectrum,
    "lie_cohomology.coboundary2": _key_coboundary2,
}
AMOUNTS = {
    "localization.quantize": _gram_flop,
    "formats.write_json": _written_bytes(1),
    "formats.write_samples_csv": _written_bytes(1),
    "formats.write_values_csv": _written_bytes(2),
    "formats.write_spectrum_csv": _written_bytes(1),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        key_of, amount_of = KEYS.get(name), AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            key = key_of(args, kwargs) if key_of else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, key, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            span[8] = span[1] - t0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if amount_of:
                span[7] = amount_of(args, kwargs, result)
                span[8] += perf_counter() - span[2]
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded qps modules."""
        modules = [m for n, m in sys.modules.items() if n == "qps" or n.startswith("qps.")]
        for module_name, functions in TARGETS.items():
            home = sys.modules.get(f"qps.{module_name}")
            for fn_name in functions:
                fn = getattr(home, fn_name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{fn_name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list, ops: int) -> dict:
    """Per-layer metrics from spans: per-op calls and self time, errors, ratios.

    Self time is a span's duration minus the time its child spans cover,
    including the tracer's own overhead inside them.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _err, _key, _amount, overhead in spans:
        if parent >= 0:
            child[parent] += end - start + overhead
    stats = {
        f"{m}.{f}": {"calls": 0, "self": 0.0, "errors": 0, "keys": set(), "amount": 0.0}
        for m, fns in TARGETS.items() for f in fns
    }
    for i, (name, start, end, _parent, _op, err, key, amount, _overhead) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["self"] += end - start - child[i]
        s["errors"] += err is not None
        if key is not None:
            s["keys"].add(key)
        s["amount"] += amount or 0.0

    out = {}
    for module, functions in TARGETS.items():
        module_self = 0.0
        for fn_name in functions:
            name = f"{module}.{fn_name}"
            s = stats[name]
            out[f"{name}.calls"] = (s["calls"] / ops, "1/op")
            out[f"{name}.self_s"] = (s["self"] / ops, "s/op")
            out[f"{name}.errors"] = (s["errors"], "count")
            module_self += s["self"]
        out[f"{module}.self_s"] = (module_self / ops, "s/op")
    for name in KEYS:
        s = stats[name]
        out[f"{name}.redundant_frac"] = (1 - len(s["keys"]) / s["calls"] if s["calls"] else 0.0, "1")
    out["localization.quantize.gram_gflop"] = (
        stats["localization.quantize"]["amount"] / 1e9 / ops, "GFLOP/op")
    out["formats.bytes_written"] = (
        sum(stats[f"formats.{f}"]["amount"] for f in TARGETS["formats"]) / ops, "B/op")
    return out


def metric_names() -> list:
    """(name, unit) of every per-layer metric, trace.overhead_frac included."""
    names = [(name, unit) for name, (_v, unit) in layer_metrics([], 1).items()]
    return names + [("trace.overhead_frac", "1")]

"""CSV and JSON emission with deterministic, locale-free formatting.

Floats are printed with 17 significant digits ('.' decimal point) so CSV
round trips are exact and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import numpy as np


def write_json(obj, path=None) -> None:
    """Strict JSON to ``path`` or stdout; NaN or an infinity raises ValueError."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_columns(path, header, columns) -> None:
    """One CSV row per entry of the equal-length ``columns``, floats to 17 digits."""
    row = ",".join(["{:.17g}"] * len(columns))
    fields = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    lines = [",".join(header)] + [row.format(*f) for f in fields]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_samples_csv(samples, path) -> None:
    """Complex transform samples (``GammaFunctionSamples``) as q,p,re,im,weight."""
    grid = samples.grid
    values = np.asarray(samples.values)
    _write_columns(
        path,
        ["q", "p", "re", "im", "weight"],
        [grid.q, grid.p, values.real, values.imag, grid.weights],
    )


def write_values_csv(values, grid, path) -> None:
    """Real grid function (probabilities, symbols) as q,p,value,weight."""
    _write_columns(path, ["q", "p", "value", "weight"], [grid.q, grid.p, values, grid.weights])


def read_values_csv(path, grid) -> np.ndarray:
    """Read q,p,value rows and align them to the grid by lattice position.

    Every grid point must be covered exactly once, by a finite value: a
    point listed twice, a missing point, a point that does not snap to the
    lattice and a NaN or infinite value are errors.
    """
    values = np.full(len(grid), np.nan)
    seen = np.zeros(len(grid), dtype=bool)
    non_finite = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"q", "p", "value"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns q,p,value")
        for row in reader:
            try:
                q, p, v = float(row["q"]), float(row["p"]), float(row["value"])
            except (TypeError, ValueError):  # a short row reads None
                raise ValueError(
                    f"{path}: line {reader.line_num} needs numbers in q, p and value"
                ) from None
            if not (math.isfinite(q) and math.isfinite(p)):
                raise ValueError(f"{path}: point ({q},{p}) is not on the grid lattice")
            iq = round(q / grid.spacing - 0.5)
            ip = round(p / grid.spacing - 0.5)
            if abs((iq + 0.5) * grid.spacing - q) > 1e-9 * max(1.0, abs(q)) or abs(
                (ip + 0.5) * grid.spacing - p
            ) > 1e-9 * max(1.0, abs(p)):
                raise ValueError(f"{path}: point ({q},{p}) is not on the grid lattice")
            k = grid.lookup(int(iq), int(ip))
            if k is None:
                raise ValueError(f"{path}: point ({q},{p}) lies outside the grid")
            if seen[k]:
                raise ValueError(f"{path}: point ({q},{p}) is listed more than once")
            seen[k] = True
            values[k] = v
            if non_finite is None and not math.isfinite(v):
                non_finite = (q, p, row["value"])
    if non_finite is not None:
        q, p, text = non_finite
        raise ValueError(f"{path}: point ({q},{p}) has value {text!r}, which is not finite")
    if np.isnan(values).any():
        missing = int(np.isnan(values).sum())
        raise ValueError(f"{path}: {missing} grid points have no value")
    return values


def write_spectrum_csv(eigenvalues, path) -> None:
    _write_columns(path, ["index", "eigenvalue"], [np.arange(len(eigenvalues)), eigenvalues])

"""CSV and JSON emission with deterministic, locale-free formatting.

Floats are printed with 17 significant digits ('.' decimal point) so CSV
round trips are exact and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_json(obj, path=None) -> None:
    """Strict JSON to ``path`` or stdout; NaN or an infinity raises ValueError."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_samples_csv(samples, path) -> None:
    """Complex transform samples (``GammaFunctionSamples``) as q,p,re,im,weight."""
    grid = samples.grid
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["q", "p", "re", "im", "weight"])
        for k in range(len(grid)):
            writer.writerow(
                [
                    fmt(grid.q[k]),
                    fmt(grid.p[k]),
                    fmt(samples.values[k].real),
                    fmt(samples.values[k].imag),
                    fmt(grid.weights[k]),
                ]
            )


def write_values_csv(values, grid, path) -> None:
    """Real grid function (probabilities, symbols) as q,p,value,weight."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["q", "p", "value", "weight"])
        for k in range(len(grid)):
            writer.writerow(
                [fmt(grid.q[k]), fmt(grid.p[k]), fmt(values[k]), fmt(grid.weights[k])]
            )


def read_values_csv(path, grid) -> np.ndarray:
    """Read q,p,value rows and align them to the grid by lattice position.

    Every grid point must be covered exactly once; points that do not
    snap to the lattice are an error.
    """
    values = np.full(len(grid), np.nan)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"q", "p", "value"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns q,p,value")
        for row in reader:
            q, p, v = float(row["q"]), float(row["p"]), float(row["value"])
            iq = round(q / grid.spacing - 0.5)
            ip = round(p / grid.spacing - 0.5)
            if abs((iq + 0.5) * grid.spacing - q) > 1e-9 * max(1.0, abs(q)) or abs(
                (ip + 0.5) * grid.spacing - p
            ) > 1e-9 * max(1.0, abs(p)):
                raise ValueError(f"{path}: point ({q},{p}) is not on the grid lattice")
            k = grid.lookup(int(iq), int(ip))
            if k is None:
                raise ValueError(f"{path}: point ({q},{p}) lies outside the grid")
            values[k] = v
    if np.isnan(values).any():
        missing = int(np.isnan(values).sum())
        raise ValueError(f"{path}: {missing} grid points have no value")
    return values


def write_spectrum_csv(eigenvalues, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "eigenvalue"])
        for i, lam in enumerate(eigenvalues):
            writer.writerow([i, fmt(lam)])

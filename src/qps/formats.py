"""CSV and JSON emission with deterministic, locale-free formatting.

Floats are printed with 17 significant digits ('.' decimal point) so CSV
round trips are exact and repeated runs produce byte-identical files.

The CSV code works on whole columns, not rows.  A writer formats each
distinct bit pattern of a column once and gathers the strings back by
position, so the lattice columns q and p and the constant weight column
cost a few dozen formats, not one per grid point.  Deduplication is on
the 64-bit pattern, not on float equality, so -0.0 and 0.0 keep their
own text.  The reader tokenizes with ``csv`` and converts the q, p and
value columns with ``float`` a chunk of rows at a time, so it holds
little text at once, then runs every row check as an array operation;
when several rows are faulty it reports the first in file order, as a
row-by-row reader would.
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


def _column_text(column) -> list:
    """``"{:.17g}"`` of each entry, formatting each distinct bit pattern once."""
    bits = np.ascontiguousarray(column, dtype=float).view(np.int64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    text = np.array([f"{x:.17g}" for x in patterns.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_columns(path, header, columns) -> None:
    """One CSV row per entry of the equal-length ``columns``, floats to 17 digits."""
    rows = map(",".join, zip(*(_column_text(c) for c in columns)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(header), *rows]) + "\n")


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


def number(text: str, kind=float):
    """``kind(text)``, or None where kind refuses it or reads digit grouping ('1_0')."""
    if "_" in text:
        return None
    try:
        return kind(text)
    except ValueError:
        return None


def _parse_column(texts: list):
    """The floats of ``texts`` (NaN where not a number) and the mask of non-numbers."""
    if "_" not in "".join(texts):
        try:
            return np.fromiter(map(float, texts), float, len(texts)), np.zeros(len(texts), bool)
        except ValueError:
            pass
    numbers = [number(t) for t in texts]
    bad = np.array([x is None for x in numbers], dtype=bool)
    return np.array([math.nan if x is None else x for x in numbers], dtype=float), bad


# rows tokenized before they are converted to floats, which bounds the text held at once
_CHUNK_ROWS = 1024


def _parse_rows(rows: list, columns: list):
    """(len(rows), 3) floats of the q, p and value ``columns``, the mask of rows
    without numbers in them, and the text of the first non-finite value."""
    parsed = [_parse_column([row[c] if c < len(row) else "" for row in rows]) for c in columns]
    numbers = np.column_stack([x for x, _ in parsed])
    bad = parsed[0][1] | parsed[1][1] | parsed[2][1]
    non_finite = np.flatnonzero(~(bad | np.isfinite(numbers[:, 2])))
    text = rows[non_finite[0]][columns[2]] if len(non_finite) else None
    return numbers, bad, text


def _read_error(path, reader, exc) -> ValueError:
    """A ``csv.Error`` or ``UnicodeDecodeError`` as one line naming the file and line.

    The text layer decodes ahead of the csv reader, so the line of an
    undecodable byte comes from a rescan of the file's bytes."""
    line, text = reader.line_num, exc
    if isinstance(exc, UnicodeDecodeError):
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:  # the same byte, unless the file changed since
            # bytes.splitlines ends lines at \n, \r\n and \r, as the csv reader does
            line = len((data[: first.start] + b"?").splitlines())
            text = f"'utf-8' codec can't decode byte 0x{data[first.start]:02x}: {first.reason}"
    return ValueError(f"{path}: line {line}: {text}")


def read_values_csv(path, grid) -> np.ndarray:
    """Read q,p,value rows and align them to the grid by lattice position.

    Every grid point must be covered exactly once, by a finite value: a
    point listed twice, a missing point, a point that does not snap to the
    lattice and a NaN or infinite value are errors, and so are a header
    that names q, p or value twice and a number written with digit
    grouping ('1_0').  Of several faulty rows the first in the file is
    reported; a non-finite value is reported only when no row has
    another fault.
    """
    rows, lines, chunks = [], [], []
    deferred = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _read_error(path, reader, exc) from None
        if header is None or not {"q", "p", "value"} <= set(header):
            raise ValueError(f"{path}: expected columns q,p,value")
        for name in ("q", "p", "value"):
            if header.count(name) > 1:
                raise ValueError(f"{path}: column {name!r} is named more than once")
        columns = [header.index(name) for name in ("q", "p", "value")]
        # rows read before an undecodable byte or a malformed record are
        # checked first, so their faults come before that error, in file order
        try:
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
                    if len(rows) == _CHUNK_ROWS:
                        chunks.append(_parse_rows(rows, columns))
                        rows = []
        except (UnicodeDecodeError, csv.Error) as exc:
            deferred = _read_error(path, reader, exc)
    chunks.append(_parse_rows(rows, columns))
    q, p, v = np.concatenate([numbers for numbers, _, _ in chunks]).T
    bad = np.concatenate([flags for _, flags, _ in chunks])

    k, off_lattice = grid.locate(q, p)
    placed = np.flatnonzero(~off_lattice & (k >= 0))
    repeated = np.zeros(len(lines), dtype=bool)
    repeated[placed] = True
    repeated[placed[np.unique(k[placed], return_index=True)[1]]] = False
    checks = (
        (bad, "line {line} needs numbers in q, p and value"),
        (off_lattice, "point ({q},{p}) is not on the grid lattice"),
        (~off_lattice & (k < 0), "point ({q},{p}) lies outside the grid"),
        (repeated, "point ({q},{p}) is listed more than once"),
    )
    faulty = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if len(faulty):
        i = faulty[0]
        message = next(text for mask, text in checks if mask[i])
        raise ValueError(f"{path}: " + message.format(line=lines[i], q=float(q[i]), p=float(p[i])))
    if deferred is not None:
        raise deferred

    non_finite = np.flatnonzero(~np.isfinite(v))
    if len(non_finite):
        i = non_finite[0]
        text = next(text for _, _, text in chunks if text is not None)
        raise ValueError(
            f"{path}: point ({float(q[i])},{float(p[i])}) has value {text!r}, which is not finite"
        )
    values = np.full(len(grid), np.nan)
    values[k] = v
    if np.isnan(values).any():
        missing = int(np.isnan(values).sum())
        raise ValueError(f"{path}: {missing} grid points have no value")
    return values


def write_spectrum_csv(eigenvalues, path) -> None:
    _write_columns(path, ["index", "eigenvalue"], [np.arange(len(eigenvalues)), eigenvalues])

"""File formats: paired-sample CSV, square distance-matrix CSV, joint-law
JSON, and deterministic JSON/CSV emission.

Parse errors always name the offending row and column; numbers are rendered
at full precision (shortest round-trip decimal) so output documents diff
stably across runs.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .kernels import InputError
from .oracle import DiscreteJoint


def _numeric_rows(path, rows, width, first_row, column, ragged=""):
    """The csv rows as an (n, width) float array.

    One vectorised conversion (NumPy parses each cell as ``float`` does);
    only when it fails does the cell-by-cell pass run, to name the first
    short or long row, or the row and ``column(c)`` of the first bad cell.
    """
    try:
        out = np.array(rows, dtype=float)
        if out.shape == (len(rows), width):
            return out
    except ValueError:
        pass
    out = np.empty((len(rows), width))
    for r, row in enumerate(rows, start=first_row):
        if len(row) != width:
            raise InputError(f"{path}: row {r} has {len(row)} fields, expected {width}{ragged}")
        for c, cell in enumerate(row):
            try:
                out[r - first_row, c] = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: row {r}, column {column(c)}: could not parse {cell.strip()!r}"
                ) from None
    return out


def read_paired_sample(path):
    """Read a paired sample from CSV with header x_1..x_p,y_1..y_q.

    Returns (x, y) float arrays of shape (n, p) and (n, q).
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise InputError(f"{path}: empty file, expected a header row x_1..x_p,y_1..y_q")
    header = [name.strip() for name in rows[0]]
    x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    y_cols = [i for i, name in enumerate(header) if name.startswith("y")]
    if not x_cols or not y_cols or x_cols + y_cols != list(range(len(header))):
        raise InputError(
            f"{path}: header must name columns x_1..x_p then y_1..y_q, got {header}"
        )
    if len(rows) == 1:
        raise InputError(f"{path}: no data rows")
    data = _numeric_rows(path, rows[1:], len(header), 2, lambda c: repr(header[c]))
    return data[:, x_cols], data[:, y_cols]


def read_square_matrix(path):
    """Read a headerless square numeric CSV matrix."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise InputError(f"{path}: empty file, expected a square numeric matrix")
    out = _numeric_rows(path, rows, len(rows[0]), 1, lambda c: c + 1, " (ragged matrix)")
    if out.shape[0] != out.shape[1]:
        raise InputError(f"{path}: matrix is {out.shape[0]}x{out.shape[1]}, expected square")
    return out


def read_discrete_joint(path) -> DiscreteJoint:
    """Read a finite-support joint law from a JSON document
    {"support_x": [[...]], "support_y": [[...]], "P": [[...]]}."""
    with open(path) as handle:
        text = handle.read()
    return DiscreteJoint.from_json(text)


def _plain(value):
    """NumPy arrays and scalars as Python lists and numbers, for ``json``."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(doc) -> str:
    """Deterministic JSON: sorted keys, full-precision floats, newline-terminated."""
    return json.dumps(doc, sort_keys=True, default=_plain) + "\n"

"""File formats: paired-sample CSV, square distance-matrix CSV, joint-law
JSON, and deterministic JSON/CSV emission.

Parse errors always name the offending row, by its line in the file, and
column; numbers are rendered at full precision (shortest round-trip
decimal) so output documents diff stably across runs.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from itertools import repeat

import numpy as np

from .estimators import _NOT_FINITE
from .kernels import InputError
from .oracle import DiscreteJoint


def _read_text(path):
    with open(path, newline="") as handle:
        return handle.read()


def _plain_lines(text):
    """The lines of ``text`` that are not empty, where csv reads each as the
    cells between its commas and skips the empty ones: ``text`` holds no
    quote, and no carriage return but before a newline.  Else None."""
    text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text:
        return None
    return list(filter(None, text.split("\n")))


def _plain_rows(lines, width):
    """``lines`` as an (n, width) float array, in one split and one
    conversion (NumPy parses each cell as ``float`` does), where every line
    holds ``width`` cells and every cell parses; else None.  A line of
    whitespace holds a cell that does not parse."""
    if not lines or set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    try:
        return np.array(",".join(lines).split(","), dtype=float).reshape(len(lines), width)
    except ValueError:
        return None


def _csv_rows(text):
    """The csv rows of ``text`` that hold a cell other than whitespace, as
    (line, row) pairs with ``line`` the row's line in the file."""
    reader = csv.reader(StringIO(text, newline=""))
    return [(reader.line_num, row) for row in reader if "".join(row).strip()]


def _numeric_rows(path, numbered, width, column, ragged=""):
    """The (line, row) pairs' rows as an (n, width) float array.

    One vectorised conversion (NumPy parses each cell as ``float`` does);
    only when it fails does the cell-by-cell pass run, to name the first
    short or long row, or the row and ``column(c)`` of the first bad cell,
    by its line in the file.
    """
    rows = [row for _, row in numbered]
    try:
        out = np.array(rows, dtype=float)
        if out.shape == (len(rows), width):
            return out
    except ValueError:
        pass
    out = np.empty((len(rows), width))
    for r, (line, row) in enumerate(numbered):
        if len(row) != width:
            raise InputError(f"{path}: row {line} has {len(row)} fields, expected {width}{ragged}")
        for c, cell in enumerate(row):
            try:
                out[r, c] = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: row {line}, column {column(c)}: could not parse {cell.strip()!r}"
                ) from None
    return out


def _paired_columns(header):
    """The x and y columns a header names, x_1..x_p then y_1..y_q; else None."""
    x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    y_cols = [i for i, name in enumerate(header) if name.startswith("y")]
    if not x_cols or not y_cols or x_cols + y_cols != list(range(len(header))):
        return None
    return x_cols, y_cols


def read_paired_sample(path):
    """Read a paired sample from CSV with header x_1..x_p,y_1..y_q.

    Returns (x, y) float arrays of shape (n, p) and (n, q).  Blank lines
    are skipped.  A plain file, one cell per comma on every line after the
    header, is converted at once (see :func:`_plain_rows`); any other is
    read by ``csv`` (see :func:`_numeric_rows`).
    """
    text = _read_text(path)
    lines = _plain_lines(text)
    header = [name.strip() for name in lines[0].split(",")] if lines else []
    columns = _paired_columns(header)
    data = _plain_rows(lines[1:], len(header)) if columns else None
    if data is None:
        numbered = _csv_rows(text)
        if not numbered:
            raise InputError(f"{path}: empty file, expected a header row x_1..x_p,y_1..y_q")
        header = [name.strip() for name in numbered[0][1]]
        columns = _paired_columns(header)
        if columns is None:
            raise InputError(
                f"{path}: header must name columns x_1..x_p then y_1..y_q, got {header}"
            )
        if len(numbered) == 1:
            raise InputError(f"{path}: no data rows")
        data = _numeric_rows(path, numbered[1:], len(header), lambda c: repr(header[c]))
    return data[:, columns[0]], data[:, columns[1]]


def read_square_matrix(path):
    """Read a headerless square numeric CSV matrix; blank lines are skipped.
    A plain file is converted at once, as by :func:`read_paired_sample`."""
    text = _read_text(path)
    lines = _plain_lines(text)
    out = _plain_rows(lines, lines[0].count(",") + 1) if lines else None
    if out is None:
        numbered = _csv_rows(text)
        if not numbered:
            raise InputError(f"{path}: empty file, expected a square numeric matrix")
        out = _numeric_rows(path, numbered, len(numbered[0][1]), lambda c: c + 1, " (ragged matrix)")
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
    """Deterministic JSON: sorted keys, full-precision floats, newline-terminated.
    JSON has no NaN or infinity, so a document that holds one is an InputError."""
    try:
        return json.dumps(doc, sort_keys=True, default=_plain, allow_nan=False) + "\n"
    except ValueError:
        raise InputError(_NOT_FINITE) from None

"""Deterministic CSV and JSON writers for experiment outputs.

Floats are rendered with ``repr``, the shortest round-trip form, so a rerun
with the same seed produces byte-identical files.  CSV files carry their
run metadata as leading ``#`` comment lines followed by one header row.
JSON files are ``json.dumps(payload, indent=2)`` byte for byte.

A non-empty 2-D integer array goes through a digit kernel, which builds
the decimal digits of the whole array in numpy, one digit per pass, in
both writers.  Every other CSV cell goes through :func:`format_value`.
JSON writes a 2-D float array of finite values as one ``%s`` format of
the table (``str`` equals ``repr`` for ``float``); other arrays and values
go through ``json`` (see :func:`write_json`).

Both writers replace their target atomically: the text goes to a temporary
file in the target's directory, which is renamed over the target only once
it is complete.  A failed or interrupted write leaves the previous file, or
none, and no temporary file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["format_value", "write_csv", "write_json"]


def format_value(value: Any) -> str:
    """Render one CSV cell deterministically."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# (row, cell separator, row separator) templates of the table renderer:
# a table as ``json.dumps(indent=2)`` lays out a top-level entry's rows.
_JSON_TABLE = ("    [\n      {}\n    ]", ",\n      ", ",\n")
_JSON_ROWS_KEY = '\n  "rows": '


def _table(
    values: Sequence[Any], n_rows: int, width: int, row: str, cell: str, sep: str
) -> str:
    """``n_rows`` rows of ``width`` cells from one ``%``-format: ``cell``
    joins a row's cells, ``row`` wraps them at ``{}``, ``sep`` joins rows."""
    return sep.join([row.format(cell.join(["%s"] * width))] * n_rows) % tuple(values)


def _int_cells(rows: np.ndarray, cell: str, end: str) -> str:
    """The decimal text of a non-empty 2-D integer array, one digit per
    numpy pass: ``cell`` follows each cell but a row's last, ``end`` that."""
    flat = np.ravel(rows)
    negative = flat < 0
    q = flat.astype(np.uint64)  # |v|, exact at int64's minimum
    np.negative(q, out=q, where=negative)
    top = int(q.max())
    q = q.astype(np.uint32) if top < 2**32 else q  # halves each pass's cost
    digits = len(str(top))
    # Sign, digits and separator per cell; NUL marks a slot left empty.
    buf = np.zeros((q.size, digits + 2), np.uint8)
    buf[:, 0] = negative * ord("-")
    for column in range(digits, 0, -1):
        rest = q // 10
        digit = q - 10 * rest + ord("0")
        buf[:, column] = digit if column == digits else digit * (q != 0)
        q = rest
    buf[:, -1] = ord(cell)
    buf.reshape(*rows.shape, -1)[:, -1, -1] = ord(end)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _csv_table(rows: np.ndarray | Iterable[Sequence[Any]]) -> str:
    """One newline-terminated CSV line per row."""
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind in "iu" and rows.size:
            return _int_cells(rows, ",", "\n")
        rows = np.asarray(rows)  # a matrix's rows iterate as matrices
    lines = [[*map(format_value, row)] for row in rows]
    if len(set(map(len, lines))) > 1:
        raise ValueError("CSV rows must all have the same length")
    return "".join(",".join(line) + "\n" for line in lines)


def _json_table(rows: np.ndarray) -> str | None:
    """The ``json.dumps`` text of ``rows.tolist()`` as a top-level entry,
    between its outer brackets, or None where neither the digit kernel nor
    ``%s`` spells it (bool, empty or non-finite arrays)."""
    if rows.ndim != 2 or not rows.size or rows.dtype.kind not in "iuf":
        return None
    if rows.dtype.kind in "iu":
        row, cell, sep = _JSON_TABLE
        head, tail = row.split("{}")
        # Digits and "-" hold neither "," nor "]", so each maps in one replace.
        text = _int_cells(rows, ",", "]")[:-1].replace(",", cell)
        return row.format(text.replace("]", tail + sep + head))
    if not np.isfinite(rows).all():
        return None
    return _table(np.ravel(rows).tolist(), *rows.shape, *_JSON_TABLE)


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary sibling and a rename."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_csv(
    path: Path,
    metadata: Mapping[str, Any],
    columns: Sequence[str],
    rows: np.ndarray | Iterable[Sequence[Any]],
) -> None:
    """Write metadata comments, a header and ``rows`` (a 2-D array or rows
    of equal length) as CSV."""
    lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    _write_atomic(path, "\n".join(lines) + "\n" + _csv_table(rows))


def write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload``, which must hold Python values, as indented JSON.

    ``payload["rows"]`` may also be an array, written as its ``tolist()``;
    a 2-D integer array, or a float array of finite values, is spliced in
    as text.  ``np.float64`` passes as a ``float`` subclass; other numpy
    scalars, and arrays anywhere else, raise TypeError.
    """
    rows = payload.get("rows")
    if isinstance(rows, np.ndarray):
        table = _json_table(rows)
        if table is not None:
            # Strings hold no raw newline and nested keys sit deeper, so
            # only the top-level entry starts a line with this text.
            skeleton = json.dumps({**payload, "rows": None}, indent=2)
            head, _, tail = skeleton.partition(_JSON_ROWS_KEY + "null")
            parts = (head, _JSON_ROWS_KEY, "[\n", table, "\n  ]", tail, "\n")
            _write_atomic(path, "".join(parts))
            return
        payload = {**payload, "rows": rows.tolist()}
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")

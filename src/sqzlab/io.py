"""Deterministic CSV and JSON writers for experiment outputs.

Floats are rendered with ``repr``, the shortest round-trip form, so a rerun
with the same seed produces byte-identical files.  CSV files carry their
run metadata as leading ``#`` comment lines followed by one header row.
JSON files are ``json.dumps(payload, indent=2)`` byte for byte; a
``rows`` entry may be a 2-D array, written as its ``tolist()``.

Both writers render their table through one renderer, parametrised by a
row and a cell template, as one ``%``-format of the whole table: ``%s``
applies ``str``, which equals ``repr`` for exact Python ``int`` and
``float`` values.  CSV cells are typed once per column, or once per 2-D
array by its dtype; exact ``int`` and ``float`` columns and integer or
float arrays take ``%s`` directly, and any other column (bool, numpy
scalars, strings) goes through :func:`format_value`.  JSON renders a
non-empty 2-D integer or float array of finite values this way, spliced
into the ``json.dumps`` text of the rest of the payload; other rows, and
float arrays holding nan or infinity (JSON spells them ``NaN`` and
``Infinity``), go through ``json``.

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

# Cell types whose ``str`` is already their CSV form; bool is excluded.
_PLAIN_TYPES = {int, float}


def format_value(value: Any) -> str:
    """Render one CSV cell deterministically."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cells(column: Sequence[Any]) -> Sequence[Any]:
    """The column itself if ``%s`` already renders it, else its cell texts."""
    if set(map(type, column)) <= _PLAIN_TYPES:
        return column
    return list(map(format_value, column))


# (row, cell separator, row separator) templates of the table renderer.
_CSV_TABLE = ("{}\n", ",", "")
# A table as ``json.dumps(indent=2)`` lays out a top-level entry's rows.
_JSON_TABLE = ("    [\n      {}\n    ]", ",\n      ", ",\n")
_JSON_ROWS_KEY = '\n  "rows": '


def _table(
    values: Sequence[Any], n_rows: int, width: int, row: str, cell: str, sep: str
) -> str:
    """``n_rows`` rows of ``width`` cells from one ``%``-format: ``cell``
    joins a row's cells, ``row`` wraps them at ``{}``, ``sep`` joins rows."""
    return sep.join([row.format(cell.join(["%s"] * width))] * n_rows) % tuple(values)


def _csv_table(rows: np.ndarray | Iterable[Sequence[Any]]) -> str:
    """One newline-terminated CSV line per row."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf":
        return _table(np.ravel(rows).tolist(), *rows.shape, *_CSV_TABLE)
    rows = list(rows)
    columns = [_cells(column) for column in zip(*rows, strict=True)]
    values = [value for row in zip(*columns) for value in row]
    return _table(values, len(rows), len(columns), *_CSV_TABLE)


def _json_table(rows: np.ndarray) -> str | None:
    """The ``json.dumps`` text of ``rows.tolist()`` as a top-level entry,
    between its outer brackets, or None where ``%s`` does not spell it
    (bool, empty or non-finite arrays)."""
    if rows.ndim != 2 or not rows.size or rows.dtype.kind not in "iuf":
        return None
    if rows.dtype.kind == "f" and not np.isfinite(rows).all():
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
    a 2-D integer or float array of finite values goes through the table
    renderer, and any other array through ``json``.  ``np.float64`` passes
    as a ``float`` subclass; other numpy scalars, and arrays anywhere else,
    raise TypeError.
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

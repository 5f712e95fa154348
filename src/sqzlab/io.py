"""Deterministic CSV and JSON writers for experiment outputs.

Floats are rendered with ``repr``, the shortest round-trip form, so a rerun
with the same seed produces byte-identical files.  CSV files carry their
run metadata as leading ``#`` comment lines followed by one header row.
CSV cells are typed once per column, or once per 2-D array by its dtype.
Exact Python ``int`` and ``float`` cells, and all cells of an integer or
float array, are rendered by one ``%``-format of the whole table: ``%s``
applies ``str``, which equals ``repr`` for both types.  Any other column
(bool, numpy scalars, strings) goes through :func:`format_value`.

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


def _data_text(rows: np.ndarray | Iterable[Sequence[Any]]) -> str:
    """One newline-terminated CSV line per row, from one ``%``-format."""
    if isinstance(rows, np.ndarray) and rows.dtype.kind in "iuf":
        n_rows, width = rows.shape
        values = rows.ravel().tolist()
    else:
        rows = list(rows)
        columns = [_cells(column) for column in zip(*rows, strict=True)]
        n_rows, width = len(rows), len(columns)
        values = [value for row in zip(*columns) for value in row]
    return (",".join(["%s"] * width) + "\n") * n_rows % tuple(values)


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
    _write_atomic(path, "\n".join(lines) + "\n" + _data_text(rows))


def write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload``, which must hold Python values, as indented JSON.

    ``np.float64`` passes as a ``float`` subclass; other numpy scalars and
    arrays raise TypeError.
    """
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")

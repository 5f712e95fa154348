"""Deterministic CSV and JSON writers for experiment outputs.

Floats are rendered with ``repr``, the shortest round-trip form, so a rerun
with the same seed produces byte-identical files.  CSV files carry their
run metadata as leading ``#`` comment lines followed by one header row.
"""

from __future__ import annotations

import json
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


def write_csv(
    path: Path,
    metadata: Mapping[str, Any],
    columns: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> None:
    lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(value) for value in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload``, which must hold Python values, as indented JSON.

    ``np.float64`` passes as a ``float`` subclass; other numpy scalars and
    arrays raise TypeError.
    """
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

"""The CSV and JSON writers: bytes equal to the per-cell reference, and
atomic replacement of the target file."""

import errno
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sqzlab.io
from sqzlab.cli import main
from sqzlab.io import format_value, write_csv, write_json

METADATA = {"experiment": "table", "seed": 7, "scale": 0.1, "flag": True}

INT64 = st.integers(-(2**63), 2**63 - 1)
# Full exponent range, subnormals, -0.0, nan and both infinities.
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
CELLS = {
    "int": st.integers(-(10**30), 10**30),
    "float": FLOATS,
    "bool": st.booleans(),
    "np.float64": FLOATS.map(np.float64),
    "np.int64": INT64.map(np.int64),
    "str": st.text(st.characters(codec="utf-8"), max_size=8),
}
MIXED = st.one_of(*CELLS.values())


def _reference(metadata, columns, rows) -> bytes:
    """The writer's output as formatted one cell at a time."""
    lines = [f"# {key} = {format_value(value)}" for key, value in metadata.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format_value(value) for value in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _check(directory, rows, width):
    columns = [f"c{i}" for i in range(width)]
    path = directory / "table.csv"
    write_csv(path, METADATA, columns, rows)
    assert path.read_bytes() == _reference(METADATA, columns, rows)


def _shapes():
    return st.tuples(st.integers(0, 12), st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(
    array=st.one_of(
        hnp.arrays(np.int64, _shapes(), elements=INT64),
        hnp.arrays(np.float64, _shapes(), elements=FLOATS),
        hnp.arrays(np.bool_, _shapes()),
    )
)
def test_array_tables_match_the_per_cell_reference(tmp_path_factory, array):
    _check(tmp_path_factory.getbasetemp(), array, array.shape[1])


@st.composite
def _tuple_tables(draw):
    """Rows of tuples; each column either mixes every cell type or holds
    one type throughout, so plain int and float columns occur often."""
    n_rows, width = draw(_shapes())
    kind = st.sampled_from([None, *CELLS])
    kinds = draw(st.lists(kind, min_size=width, max_size=width))
    columns = [
        draw(st.lists(CELLS.get(kind, MIXED), min_size=n_rows, max_size=n_rows))
        for kind in kinds
    ]
    return [tuple(row) for row in zip(*columns)], width


@settings(max_examples=200, deadline=None)
@given(table=_tuple_tables())
def test_tuple_tables_match_the_per_cell_reference(tmp_path_factory, table):
    rows, width = table
    _check(tmp_path_factory.getbasetemp(), rows, width)


def test_edge_values_match_the_per_cell_reference(tmp_path):
    floats = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308, 0.1]
    ints = [0, -1, 2**63 - 1, -(2**63), 10**40, -(10**40), 7, 3]
    _check(tmp_path, list(zip(floats, ints)), 2)
    _check(tmp_path, np.column_stack((floats, floats)), 2)
    _check(tmp_path, np.array([[2**63 - 1, -(2**63)]], dtype=np.int64), 2)
    _check(tmp_path, np.array([[2**64 - 1]], dtype=np.uint64), 1)
    _check(tmp_path, np.array([[0.1, 1e-7]], dtype=np.float32), 2)
    _check(tmp_path, [], 3)
    _check(tmp_path, np.empty((0, 2)), 2)


def test_rows_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", {}, ["a", "b"], [(1, 2), (3,)])


class _FullDisk:
    """A file handle that writes half of its text, then fails."""

    def __init__(self, path, mode, **kwargs):
        self.handle = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


WRITERS = {
    "csv": lambda path: write_csv(path, METADATA, ["a", "b"], np.ones((1000, 2))),
    "json": lambda path: write_json(path, {"rows": [[1.5, 2]] * 1000}),
}


@pytest.mark.parametrize("previous", [None, "previous contents\n"])
@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_a_write_failing_midway_leaves_no_partial_file(
    tmp_path, monkeypatch, fmt, previous
):
    path = tmp_path / f"table.{fmt}"
    if previous is not None:
        path.write_text(previous)
    monkeypatch.setattr(sqzlab.io, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[fmt](path)
    if previous is None:
        assert os.listdir(tmp_path) == []
    else:
        assert os.listdir(tmp_path) == [path.name]
        assert path.read_text() == previous


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_a_failing_rename_leaves_no_temporary_file(tmp_path, monkeypatch, fmt):
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "rename refused")

    monkeypatch.setattr(sqzlab.io.os, "replace", refuse)
    with pytest.raises(PermissionError):
        WRITERS[fmt](tmp_path / f"table.{fmt}")
    assert os.listdir(tmp_path) == []


def test_writers_replace_the_target_with_the_usual_permissions(tmp_path):
    umask = os.umask(0o022)
    os.umask(umask)
    for fmt, write in WRITERS.items():
        path = tmp_path / f"table.{fmt}"
        path.write_text("stale")
        write(path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert sorted(os.listdir(tmp_path)) == ["table.csv", "table.json"]
    assert json.loads((tmp_path / "table.json").read_text())["rows"][0] == [1.5, 2]


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_a_run_whose_write_fails_leaves_no_partial_output(
    tmp_path, monkeypatch, capsys, fmt
):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "experiment": "photon-record",
                "seed": 3,
                "output_format": fmt,
                # 1000 photons per 0.1 ms window at 1064 nm.
                "parameters": {"power_w": 1.8669603920572637e-12, "n_windows": 5000},
            }
        )
    )
    monkeypatch.setattr(sqzlab.io, "open", _FullDisk, raising=False)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 4
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(out) == []

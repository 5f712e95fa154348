"""The CSV and JSON writers: bytes equal to the per-cell reference and to
``json.dumps``, and atomic replacement of the target file."""

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


ROW_DTYPES = [np.float64, np.float32, np.bool_, np.int64]


@st.composite
def _array_rows(draw):
    """Rows as 1-D arrays, each of one dtype drawn from ROW_DTYPES."""
    n_rows, width = draw(_shapes())
    kind = st.sampled_from(ROW_DTYPES)
    dtypes = draw(st.lists(kind, min_size=n_rows, max_size=n_rows))
    return [draw(hnp.arrays(dtype, width)) for dtype in dtypes], width


@settings(max_examples=150, deadline=None)
@given(table=_array_rows())
def test_generator_and_array_rows_match_the_per_cell_reference(tmp_path_factory, table):
    rows, width = table
    columns = [f"c{i}" for i in range(width)]
    path = tmp_path_factory.getbasetemp() / "table.csv"
    for given_rows in ((row for row in rows), rows, (tuple(row) for row in rows)):
        write_csv(path, METADATA, columns, given_rows)
        assert path.read_bytes() == _reference(METADATA, columns, rows)


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


PAYLOAD = {
    "experiment": "table",
    "seed": 7,
    "parameters": {"gain": 10.0, "labels": ["a", "b"], "empty": {}},
    "rows": None,
    "result": None,
}
UINT64 = st.integers(0, 2**64 - 1)
FLOAT32 = st.floats(width=32, allow_nan=True, allow_infinity=True, allow_subnormal=True)


def _json_shapes():
    return st.tuples(st.integers(0, 12), st.integers(0, 5))


def _check_json(directory, payload, rows):
    """``write_json`` with array rows writes what strict ``json.dumps`` writes
    for the same rows as lists; where that raises on a non-finite number,
    ``write_json`` raises the same ValueError and writes nothing."""
    path = directory / "table.json"
    path.unlink(missing_ok=True)
    try:
        table = {**payload, "rows": rows.tolist()}
        reference = json.dumps(table, indent=2, allow_nan=False)
    except ValueError as error:
        with pytest.raises(ValueError, match=str(error)):
            write_json(path, {**payload, "rows": rows})
        assert not path.exists()
        return
    write_json(path, {**payload, "rows": rows})
    assert path.read_bytes() == (reference + "\n").encode("utf-8")


@settings(max_examples=250, deadline=None)
@given(
    array=st.one_of(
        hnp.arrays(np.int64, _json_shapes(), elements=INT64),
        hnp.arrays(np.uint64, _json_shapes(), elements=UINT64),
        hnp.arrays(np.float32, _json_shapes(), elements=FLOAT32),
        hnp.arrays(np.float64, _json_shapes(), elements=FLOATS),
        hnp.arrays(np.float64, _json_shapes(), elements=FLOATS.filter(np.isfinite)),
        hnp.arrays(np.bool_, _json_shapes()),
    ),
    position=st.integers(0, len(PAYLOAD) - 1),
)
def test_json_array_rows_match_json_dumps(tmp_path_factory, array, position):
    keys = [key for key in PAYLOAD if key != "rows"]
    keys.insert(position, "rows")
    payload = {key: PAYLOAD[key] for key in keys}
    _check_json(tmp_path_factory.getbasetemp(), payload, array)


def test_json_edge_values_and_shapes_match_json_dumps(tmp_path):
    finite = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 0.1]
    for rows in (
        np.array([[2**63 - 1, -(2**63)], [-1, 0]], dtype=np.int64),
        np.array([[2**64 - 1, 0]], dtype=np.uint64),
        np.array([[0.0, -0.0, 1e-45, -1.1754944e-38, 3.4028235e38, 0.1]], np.float32),
        np.array([finite, finite[::-1]]),
        np.array([[1.5, np.nan]]),
        np.array([[np.inf], [-np.inf]]),
        np.array([[True, False]]),
        np.array([[7]]),
        np.empty((0, 3)),
        np.empty((4, 0)),
        np.empty((0, 0), dtype=np.int64),
        np.arange(6),
    ):
        _check_json(tmp_path, PAYLOAD, rows)


def test_tall_json_tables_match_json_dumps(tmp_path):
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.integers(-300, 300, (4000, 1))
    _check_json(tmp_path, PAYLOAD, rng.standard_normal((4000, 3)) * scale)
    _check_json(tmp_path, PAYLOAD, rng.standard_normal((4000, 2)).astype(np.float32))
    ints = rng.integers(-(2**63), 2**63 - 1, (5000, 2), endpoint=True)
    _check_json(tmp_path, PAYLOAD, np.column_stack((np.arange(5000), ints)))


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64]
INT_DTYPES += [np.uint8, np.uint16, np.uint32, np.uint64]


def _int_edges(dtype):
    """The values among iinfo's min and max, 0, ±1, ±(10**k ± 1) and
    ±(2**32 ± 1) that ``dtype`` holds; at 2**32 the writer's digits go from
    32 to 64 bits."""
    info = np.iinfo(dtype)
    powers = [10**k for k in range(1, 20)] + [2**32]
    near_powers = [power + d for power in powers for d in (-1, 0, 1)]
    values = {info.min, info.max, 0, 1, -1, *near_powers, *(-v for v in near_powers)}
    return sorted(v for v in values if info.min <= v <= info.max)


@st.composite
def _int_arrays(draw):
    """Integer arrays of any dtype whose cells mix small values, edge
    values and the dtype's full range, so cell widths differ within one."""
    dtype = draw(st.sampled_from(INT_DTYPES))
    info = np.iinfo(dtype)
    elements = st.one_of(
        st.integers(max(info.min, -99), 99),
        st.sampled_from(_int_edges(dtype)),
        st.integers(info.min, info.max),
    )
    return draw(hnp.arrays(dtype, _json_shapes(), elements=elements))


def _check_int_csv(directory, rows):
    """``write_csv`` writes an integer array as ``%s`` renders its cells."""
    path = directory / "ints.csv"
    write_csv(path, {}, ["c"], rows)
    lines = [",".join(["%s"] * len(row)) % tuple(row) for row in rows.tolist()]
    assert path.read_bytes() == "".join(f"{line}\n" for line in ["c", *lines]).encode()


@settings(max_examples=300, deadline=None)
@given(rows=_int_arrays())
def test_integer_tables_match_percent_s_and_json_dumps(tmp_path_factory, rows):
    _check_int_csv(tmp_path_factory.getbasetemp(), rows)
    _check_json(tmp_path_factory.getbasetemp(), PAYLOAD, rows)


@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda dtype: dtype.__name__)
def test_integer_edge_values_and_shapes_match_percent_s_and_json_dumps(
    tmp_path, dtype
):
    edges = np.array(_int_edges(dtype), dtype)
    wide = np.ones((7, 3), dtype)
    wide[5, 1] = np.iinfo(dtype).max
    tables = [edges[:, None], edges[None, :], edges[:0].reshape(0, 2), wide]
    tables.append(edges[: len(edges) // 2 * 2].reshape(-1, 2))
    # Each edge as the widest cell of a table, which sets the digit count.
    tables += [np.array([[edge, 1], [0, 7]], dtype) for edge in edges]
    for rows in tables:
        _check_int_csv(tmp_path, rows)
        _check_json(tmp_path, PAYLOAD, rows)


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
def test_matrix_rows_are_written_like_their_array(tmp_path):
    matrix = np.matrix([[1.5, 2.0], [3.0, -0.0]])
    _check_json(tmp_path, PAYLOAD, matrix)
    write_csv(tmp_path / "matrix.csv", METADATA, ["c0", "c1"], matrix)
    _check(tmp_path, np.asarray(matrix), 2)
    matrix_csv = (tmp_path / "matrix.csv").read_bytes()
    assert matrix_csv == (tmp_path / "table.csv").read_bytes()


ROWS_LINE = '\n  "rows": null'


@pytest.mark.parametrize(
    "payload",
    [
        {"parameters": {"a": ROWS_LINE, "b": "null"}, "rows": None},
        {"rows": None, "metadata": {"rows": None}, "result": {"rows": [[1]]}},
        {"metadata": {"rows": None, "note": '"rows": null'}, "rows": None},
        {"result": None, "rows": None, ROWS_LINE: ROWS_LINE},
        {"rows": None, "parameters": [ROWS_LINE, {"rows": None}]},
        {"rows": None},
    ],
    ids=["string", "nested-key", "nested-note", "key", "list", "alone"],
)
def test_the_rows_splice_skips_lookalike_text(tmp_path, payload):
    _check_json(tmp_path, payload, np.array([[1.5, 2.0], [3.0, -0.0]]))
    _check_json(tmp_path, payload, np.arange(12).reshape(4, 3))


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


@pytest.mark.parametrize("previous", [None, "previous contents\n"])
def test_a_json_array_write_failing_midway_leaves_no_partial_file(
    tmp_path, monkeypatch, previous
):
    def write(path):
        write_json(path, {"rows": np.full((1000, 2), 1.5)})

    monkeypatch.setitem(WRITERS, "json", write)
    test_a_write_failing_midway_leaves_no_partial_file(
        tmp_path, monkeypatch, "json", previous
    )


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

"""Deterministic table rendering and error emission."""

from __future__ import annotations

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlspurify import output
from tlspurify.config import RunConfig
from tlspurify.output import Table, emit_error, fmt_float, write_table

from oracles import reference_text


def _demo_table() -> Table:
    return Table("demo", {"name": ["first", "divergent"],
                          "flag": [True, False], "count": [3, -1],
                          "value": np.array([0.1, 2.5e-17])},
                 metadata={"b_key": 2, "a_key": "note"})


def test_fmt_float():
    assert fmt_float(0.1) == "1.0000000000000001e-01"
    assert fmt_float(-2.0) == "-2.0000000000000000e+00"
    assert float(fmt_float(1 / 3)) == 1 / 3     # exact round trip
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fmt_float(bad)


def test_column_lengths_checked():
    """Columns of unequal length, or a float column that is not 1-D, are
    refused when the table is built."""
    for columns in ({"a": [1.0], "b": np.zeros(2)},
                    {"a": np.zeros(3), "b": ["x", "y"]},
                    {"a": np.zeros((2, 2))}, {"a": 1.0}):
        with pytest.raises(ValueError):
            Table("demo", columns)
    assert len(Table("demo", {}).rows) == 0


def test_rows_are_a_read_only_view_of_the_columns():
    """The rows are built from the columns when read: a row is a tuple,
    a float cell a Python float; the view has a length, takes indices and
    slices, iterates past a chunk, and refuses assignment."""
    n = output.CHUNK_ROWS + 5
    table = Table("demo", {"x": np.arange(n) / 4.0,
                           "label": ["A", 0.5] * (n // 2) + ["B"]})
    rows = table.rows
    assert len(rows) == n
    assert rows[1] == (0.25, 0.5) and type(rows[1][0]) is float
    assert rows[-1] == ((n - 1) / 4.0, "B")
    assert rows[2:4] == [(0.5, "A"), (0.75, 0.5)]
    assert list(rows) == rows[:] == [(k / 4.0, table.values[1][k])
                                     for k in range(n)]
    with pytest.raises(IndexError):
        rows[n]
    with pytest.raises(TypeError):
        rows[0] = (1.0, "A")


def test_csv_layout(capsys):
    cfg = RunConfig.from_dict({})
    write_table(_demo_table(), cfg)
    text = capsys.readouterr().out
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "# demo"
    echo = cfg.echo_lines()
    assert lines[1:1 + len(echo)] == [f"# {e}" for e in echo]
    # metadata block, sorted, after the echo
    k = 1 + len(echo)
    assert lines[k] == "# meta a_key = note"
    assert lines[k + 1] == "# meta b_key = 2"
    assert lines[k + 2] == "name,flag,count,value"
    assert lines[k + 3] == "first,true,3,1.0000000000000001e-01"
    assert lines[k + 4] == "divergent,false,-1,2.4999999999999999e-17"
    assert len(lines) == k + 5


def test_json_layout(capsys):
    cfg = RunConfig.from_dict({})
    write_table(_demo_table(), cfg, fmt="json")
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert set(doc) == {"command", "config", "metadata", "columns", "rows"}
    assert doc["command"] == "demo"
    assert doc["columns"] == ["name", "flag", "count", "value"]
    assert doc["rows"] == [["first", True, 3, 0.1],
                           ["divergent", False, -1, 2.5e-17]]
    assert doc["metadata"] == {"a_key": "note", "b_key": 2}
    assert doc["config"]["model"]["J"] == 0.1


def test_non_finite_rejected():
    cfg = RunConfig.from_dict({})
    for column in ([math.nan], np.array([0.0, math.inf])):
        t = Table("demo", {"v": column})
        with pytest.raises(ValueError):
            write_table(t, cfg)
        with pytest.raises(ValueError):
            write_table(t, cfg, fmt="json")


def test_write_to_file_and_format_override(tmp_path):
    cfg = RunConfig.from_dict({"run": {"format": "csv"}})
    f = tmp_path / "out.json"
    write_table(_demo_table(), cfg, fmt="json", out=f)
    doc = json.loads(f.read_text())
    assert doc["command"] == "demo"
    # config-held output path is honoured when none is passed explicitly
    f2 = tmp_path / "out.csv"
    cfg2 = cfg.override(out=str(f2))
    write_table(_demo_table(), cfg2)
    assert f2.read_text().startswith("# demo\n")


def test_render_determinism(capsys):
    cfg = RunConfig.from_dict({})
    write_table(_demo_table(), cfg)
    first = capsys.readouterr().out
    write_table(_demo_table(), cfg)
    second = capsys.readouterr().out
    assert first == second


def test_emit_error(capsys):
    emit_error("bad-value", "broken knob", "run.samples")
    err = capsys.readouterr().err
    assert json.loads(err) == {"code": "bad-value", "message": "broken knob",
                               "parameter": "run.samples"}


# ====================================================================
# Column-wise writers against the row-by-row reference
# ====================================================================

_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e-310, 1.7976931348623157e308, -1.7976931348623157e308,
                1e-300, 0.1, 1 / 3]
_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))
#: a float cell is a Python float or a numpy float64
_FLOAT_CELLS = st.one_of(_FLOATS, _FLOATS.map(np.float64))
_LABELS = st.sampled_from(["divergent", "unphysical", "A", "B", "C", "U"])
_INTS = st.integers(-10 ** 20, 10 ** 20)
#: what one column holds: a float array (a "pool" array repeats a few
#: floats, as a sweep's grid columns do), or a list of the kinds of cells
#: the drivers emit, or of anything at all
_ARRAYS = {"float", "pool"}
_COLUMNS = st.sampled_from(["float", "pool", "float-list", "float+label",
                            "label", "bool", "int", "mixed"])
_CELLS = {
    "float": _FLOAT_CELLS,
    "float-list": _FLOAT_CELLS,
    "float+label": st.one_of(_FLOAT_CELLS, _LABELS),
    "label": _LABELS,
    "bool": st.booleans(),
    "int": _INTS,
    "mixed": st.one_of(_FLOAT_CELLS, _LABELS, st.booleans(), _INTS,
                       st.floats(width=32, allow_nan=False,
                                 allow_infinity=False).map(np.float32)),
}


@st.composite
def _drawn(draw) -> tuple[list[str], list[list], dict]:
    """(kinds, rows, metadata) of a table: each row a list of cells, one
    per column of the given kind."""
    kinds = draw(st.lists(_COLUMNS, min_size=1, max_size=5))
    metadata = draw(st.dictionaries(
        st.text("abcdefgh_", min_size=1, max_size=6),
        st.one_of(_FLOAT_CELLS, _LABELS, st.booleans(), _INTS), max_size=4))
    cells = [st.sampled_from(draw(st.lists(_FLOAT_CELLS, min_size=1,
                                           max_size=3)))
             if kind == "pool" else _CELLS[kind] for kind in kinds]
    rows = [[draw(column) for column in cells]
            for _ in range(draw(st.integers(0, 12)))]
    return kinds, rows, metadata


def _table(kinds, rows, metadata) -> Table:
    """The table of drawn rows: a float array or a list per column."""
    columns = {}
    for k, kind in enumerate(kinds):
        cells = [row[k] for row in rows]
        columns[f"c{k}"] = (np.array(cells, dtype=float) if kind in _ARRAYS
                            else cells)
    return Table("demo", columns, metadata=metadata)


def _reference(table: Table, rows, fmt: str) -> tuple[str | None, bool]:
    """(text, raised) of the reference writer on the drawn rows."""
    try:
        return reference_text(table, rows, RunConfig.from_dict({}), fmt), False
    except (ValueError, TypeError):
        return None, True


def _written(table: Table, chunk_rows: int,
             fmt: str = "csv") -> tuple[str | None, bool]:
    """(text, raised) of write_table on a fresh file, with the body cut
    into chunks of chunk_rows rows; text is None when no file is left."""
    saved = output.CHUNK_ROWS
    output.CHUNK_ROWS = chunk_rows
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"out.{fmt}"
            try:
                write_table(table, RunConfig.from_dict({}), fmt=fmt, out=path)
                raised = False
            except (ValueError, TypeError):
                raised = True
            return (path.read_text() if path.exists() else None), raised
    finally:
        output.CHUNK_ROWS = saved


@settings(max_examples=200, deadline=None)
@given(drawn=_drawn(), chunk_rows=st.integers(1, 5))
def test_csv_matches_per_cell_reference(drawn, chunk_rows):
    """Float arrays and lists of float and float64 cells, -0.0,
    subnormals and extreme exponents, labels inside float columns, bools,
    ints and metadata, from no rows to several chunks: the column-wise
    writer gives the bytes of the row-by-row reference, in any
    chunking."""
    kinds, rows, metadata = drawn
    table = _table(kinds, rows, metadata)
    text, raised = _reference(table, rows, "csv")
    assert not raised
    assert _written(table, chunk_rows) == (text, False)


@settings(max_examples=200, deadline=None)
@given(drawn=_drawn(), chunk_rows=st.integers(1, 5))
def test_json_matches_one_document(drawn, chunk_rows):
    """The head, the rows in chunks and the tail are the bytes of one
    json.dumps of the whole document, in any chunking and for no rows; a
    table the encoder refuses (a float32 cell) raises and leaves no
    file."""
    kinds, rows, metadata = drawn
    table = _table(kinds, rows, metadata)
    assert _written(table, chunk_rows, "json") == _reference(table, rows,
                                                              "json")


@settings(max_examples=100, deadline=None)
@given(drawn=_drawn(), bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       as_numpy=st.booleans(), where=st.floats(0.0, 1.0),
       in_metadata=st.booleans(), fmt=st.sampled_from(["csv", "json"]))
def test_non_finite_cell_raises_before_any_byte(drawn, bad, as_numpy, where,
                                                in_metadata, fmt):
    """A NaN or infinity anywhere, in a float array or among the cells of
    a list or in the metadata, raises and leaves no file, in either
    format."""
    kinds, rows, metadata = drawn
    value = np.float64(bad) if as_numpy else bad
    if in_metadata or not rows:
        metadata["zz_bad"] = value
    else:
        k = int(where * (len(rows) * len(kinds) - 1))
        rows[k // len(kinds)][k % len(kinds)] = value
    table = _table(kinds, rows, metadata)
    assert _reference(table, rows, fmt) == (None, True)
    assert _written(table, 2, fmt) == (None, True)


def test_repeated_zeros_and_subnormals_keep_their_sign():
    """The writer formats each distinct float of a column once, telling
    values apart by bit pattern: 0.0 and -0.0, and 5e-324 and -5e-324,
    compare equal in pairs or not at all, yet each repeat keeps its own
    text."""
    values = [0.0, -0.0, 5e-324, -5e-324]
    rows = [(values[k % 4], values[k // 4]) for k in range(16)]
    table = Table("demo", {"x": np.array([r[0] for r in rows]),
                           "y": np.array([r[1] for r in rows])})
    cfg = RunConfig.from_dict({})
    text = "".join(output._csv_chunks(table, cfg))
    assert text == reference_text(table, rows, cfg)
    body = text.splitlines()[-16:]
    assert body[:4] == ["0.0000000000000000e+00,0.0000000000000000e+00",
                        "-0.0000000000000000e+00,0.0000000000000000e+00",
                        "4.9406564584124654e-324,0.0000000000000000e+00",
                        "-4.9406564584124654e-324,0.0000000000000000e+00"]


def test_csv_writes_in_chunks(tmp_path):
    """A body longer than one chunk goes out in several writes of at most
    CHUNK_ROWS rows each, and their bytes are the reference's."""
    rows = [(k / 7.0, "divergent" if k % 5 else 0.5, k % 2 == 0)
            for k in range(2 * output.CHUNK_ROWS + 3)]
    t, label, flag = zip(*rows)
    table = Table("demo", {"t": np.array(t), "label": list(label),
                           "flag": list(flag)})
    cfg = RunConfig.from_dict({})
    chunks = list(output._csv_chunks(table, cfg))
    assert len(chunks) == 1 + 3
    assert all(c.count("\n") <= output.CHUNK_ROWS for c in chunks[1:])
    assert "".join(chunks) == reference_text(table, rows, cfg)


def test_json_writes_in_chunks(tmp_path):
    """A long table goes out as its head, chunks of at most CHUNK_ROWS
    rows and its tail, and peaks no higher in memory than the CSV
    writer on the same table."""
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(2 * output.CHUNK_ROWS + 3, 19))
    table = Table("demo", {f"c{k}": column for k, column in enumerate(rows.T)})
    cfg = RunConfig.from_dict({})
    chunks = list(output._json_chunks(table, cfg))
    assert len(chunks) == 1 + 3 + 1
    assert "".join(chunks) == reference_text(table, rows.tolist(), cfg, "json")

    peaks = {}
    for fmt in ("csv", "json"):
        tracemalloc.start()
        write_table(table, cfg, fmt=fmt, out=tmp_path / f"out.{fmt}")
        peaks[fmt] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks["json"] <= peaks["csv"]

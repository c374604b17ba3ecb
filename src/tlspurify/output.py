"""Deterministic table emission: CSV with a commented config echo, or a
single JSON document.

Floats are printed with 17 significant digits in lowercase scientific
notation, which round-trips exactly and pins the output bytes.  Cells may
also be labels ("divergent", "unphysical", region letters); NaN or infinity
reaching a writer is a bug and raises instead of leaking into a file.

A Table holds named columns: float arrays, and lists of cells (labels, a
float column with labels in it, bools, ints); its rows are a read-only
view of them.  A CSV body is formatted column by column: in each chunk of
an array every distinct float, told apart by its bit pattern so that -0.0
and 0.0 stay apart, is formatted once; a list is rendered cell by cell.
A JSON document is its sorted-key head up to "rows":[, the rows, then ]}:
"rows" sorts after every other key, so the bytes are those of json.dumps
on the whole document.  Both check every cell before the first byte, then
write the body in chunks of CHUNK_ROWS rows, so the text of a whole table
is never held at once.  json is imported only for a JSON document or an
error object.
"""

from __future__ import annotations

import functools
import math
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig

__all__ = ["Table", "fmt_float", "write_table", "emit_error"]

#: rows of text formatted and written at a time
CHUNK_ROWS = 4096

#: cell types a JSON document takes as they are (a bool is an int)
_JSON_TYPES = (str, int, float, type(None))


@functools.cache
def _encoder():
    """The JSON encoder of every document, built on first use: sorted
    keys, no NaN, no spaces."""
    import json
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",", ":")).encode


def fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value reached the writer: {x!r}")
    return f"{x:.16e}"


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return fmt_float(float(v))


def _check_finite(floats) -> None:
    """Raise on the first of floats (an array or a list) _cell refuses."""
    finite = np.isfinite(np.asarray(floats, dtype=float))
    if not finite.all():
        _cell(floats[int(finite.argmin())])         # raises


def _check_json(values: list) -> None:
    """Raise unless the JSON encoder takes every one of values and each
    float among them is finite."""
    for kind in set(map(type, values)):
        if not issubclass(kind, _JSON_TYPES):
            raise TypeError(f"Object of type {kind.__name__} "
                            "is not JSON serializable")
    _check_finite([v for v in values if isinstance(v, float)])


class _RowView:
    """The rows of a table's columns, read-only: a row is the tuple of its
    cells, built when read, with a float as a Python float."""

    def __init__(self, columns: list):
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    def __getitem__(self, k):
        cells = [c[k].tolist() if isinstance(c, np.ndarray) else c[k]
                 for c in self._columns]
        return list(zip(*cells)) if isinstance(k, slice) else tuple(cells)

    def __iter__(self):
        for start in range(0, len(self), CHUNK_ROWS):
            yield from self[start:start + CHUNK_ROWS]


class Table:
    """A command's output: named columns of one length, and metadata.  A
    list is a column of cells; any other column is taken as floats."""

    def __init__(self, command: str, columns: dict,
                 metadata: dict | None = None):
        self.command = command
        self.columns = list(columns)
        self.values = [v if isinstance(v, list) else np.asarray(v, float)
                       for v in columns.values()]
        if (any(getattr(v, "ndim", 1) != 1 for v in self.values)
                or len(set(map(len, self.values))) > 1):
            raise ValueError("the columns of a table must be 1-D and of "
                             "one length")
        self.rows = _RowView(self.values)
        self.metadata = {} if metadata is None else metadata


def _texts(column: np.ndarray | list, rows: slice) -> list[str]:
    """The cell texts of some rows of a column.  Each distinct float of
    an array among them, told apart by its bit pattern, is formatted
    once."""
    if isinstance(column, list):
        return list(map(_cell, column[rows]))
    distinct, where = np.unique(column[rows].view(np.int64),
                                return_inverse=True)
    text = list(map("{:.16e}".format, distinct.view(float).tolist()))
    return list(map(text.__getitem__, where.tolist()))


def _csv_chunks(table: Table, cfg: RunConfig):
    """The CSV text of the table, as an iterator of chunks of CHUNK_ROWS
    rows after the header.  Every cell is checked before this returns, so
    a bad cell raises before the first chunk is written."""
    head = [f"# {table.command}"]
    head += [f"# {line}" for line in cfg.echo_lines()]
    head += [f"# meta {key} = {_cell(table.metadata[key])}"
             for key in sorted(table.metadata)]
    head.append(",".join(table.columns))
    for column in table.values:
        _check_finite(column if isinstance(column, np.ndarray) else
                      [v for v in column if not isinstance(v, (str, int))])

    def chunks():
        yield "\n".join(head) + "\n"
        for start in range(0, len(table.rows), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            cells = zip(*(_texts(column, rows) for column in table.values))
            yield "\n".join(map(",".join, cells)) + "\n"

    return chunks()


def _json_chunks(table: Table, cfg: RunConfig):
    """The JSON text of the table, as an iterator of chunks: the head up to
    "rows":[, then CHUNK_ROWS rows at a time, then ]}.  Every cell is
    checked before this returns, so a bad cell raises before the first
    chunk is written."""
    _check_json(list(table.metadata.values()))
    for column in table.values:
        (_check_finite if isinstance(column, np.ndarray) else
         _check_json)(column)
    encode = _encoder()
    head = encode({"command": table.command, "config": cfg.to_dict(),
                    "metadata": table.metadata, "columns": table.columns})
    rows = table.rows

    def chunks():
        yield head[:-1] + ',"rows":['
        for start in range(0, len(rows), CHUNK_ROWS):
            yield ("," if start else "") + encode(
                rows[start:start + CHUNK_ROWS])[1:-1]
        yield "]}\n"

    return chunks()


def write_table(table: Table, cfg: RunConfig, *, fmt: str | None = None,
                out: str | None | Path = "use-config") -> None:
    """Render the table and write it to the configured destination; a
    table with a bad cell raises before anything is written."""
    fmt = fmt or cfg.format
    if out == "use-config":
        out = cfg.out
    chunks = (_json_chunks if fmt == "json" else _csv_chunks)(table, cfg)
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with Path(out).open("w") as stream:
            stream.writelines(chunks)


def emit_error(code: str, message: str, parameter: str = "") -> None:
    """Machine-readable error object on stderr."""
    import json
    sys.stderr.write(json.dumps({"code": code, "message": message,
                                 "parameter": parameter}) + "\n")

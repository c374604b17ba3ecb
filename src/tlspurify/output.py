"""Deterministic table emission: CSV with a commented config echo, or a
single JSON document.

Floats are printed with 17 significant digits in lowercase scientific
notation, which round-trips exactly and pins the output bytes.  Cells may
also be labels ("divergent", "unphysical", region letters); NaN or infinity
reaching a writer is a bug and raises instead of leaking into a file.

A CSV body is formatted column by column.  A column of plain floats is
held as an array, and in each chunk every distinct value, told apart by
its bit pattern so that -0.0 and 0.0 stay apart, is formatted once and
its text repeated wherever it occurs; only the other columns (labels, a
float column with labels in it, bools, ints) are rendered cell by cell.
A JSON document is written as its sorted-key head up to "rows":[, then
the rows, then ]}: "rows" sorts after every other key, so the bytes are
those of json.dumps on the whole document.  In both formats every cell is
checked before the first byte is written, and the body then goes out in
chunks of CHUNK_ROWS rows, so the text of a whole table is never held at
once.  json is imported only for a JSON document or an error object.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import islice
from pathlib import Path

import numpy as np

from .config import RunConfig

__all__ = ["Table", "fmt_float", "write_table", "emit_error"]

#: rows of text formatted and written at a time
CHUNK_ROWS = 4096

#: cell types a column may hold to be formatted by one row format string
_FLOAT_TYPES = {float, np.float64}

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


def _check_finite(floats) -> np.ndarray:
    """floats as an array; raise on the first non-finite value."""
    array = np.array(floats, dtype=float)
    finite = np.isfinite(array)
    if not finite.all():
        fmt_float(float(floats[int(finite.argmin())]))      # raises
    return array


def _check_json(values) -> None:
    """Raise unless the JSON encoder takes every one of values and each
    float among them is finite."""
    kinds = set(map(type, values))
    for kind in kinds:
        if not issubclass(kind, _JSON_TYPES):
            raise TypeError(f"Object of type {kind.__name__} "
                            "is not JSON serializable")
    _check_finite(values if kinds <= _FLOAT_TYPES
                  else [v for v in values if isinstance(v, float)])


class Table:
    def __init__(self, command: str, columns: list[str],
                 metadata: dict | None = None):
        self.command = command
        self.columns = columns
        self.rows = []
        self.metadata = {} if metadata is None else metadata

    def add(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"row width {len(cells)} != header width "
                             f"{len(self.columns)}")
        self.rows.append(cells)


def _column(values: tuple) -> np.ndarray | list[str]:
    """One CSV column, ready to be cut into chunks: a column of plain
    floats as an array, once every one is checked to be finite; any other
    column as the text of each cell."""
    if set(map(type, values)) <= _FLOAT_TYPES:
        return _check_finite(values)
    return [_cell(v) for v in values]


def _texts(column: np.ndarray | list[str], rows: slice) -> list[str]:
    """The cell texts of some rows of a column from _column.  Each
    distinct float among them, told apart by its bit pattern, is
    formatted once."""
    if isinstance(column, list):
        return column[rows]
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
    planned = [_column(values) for values in zip(*table.rows)]

    def chunks():
        yield "\n".join(head) + "\n"
        for start in range(0, len(table.rows), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            cells = zip(*(_texts(column, rows) for column in planned))
            yield "\n".join(map(",".join, cells)) + "\n"

    return chunks()


def _json_chunks(table: Table, cfg: RunConfig):
    """The JSON text of the table, as an iterator of chunks: the head up to
    "rows":[, then CHUNK_ROWS rows at a time, then ]}.  Every cell is
    checked before this returns, so a bad cell raises before the first
    chunk is written."""
    _check_json(list(table.metadata.values()))
    for values in zip(*table.rows):
        _check_json(values)
    encode = _encoder()
    head = encode({"command": table.command, "config": cfg.to_dict(),
                    "metadata": table.metadata, "columns": table.columns})
    rows = iter(table.rows)

    def chunks():
        yield head[:-1] + ',"rows":['
        sep = ""
        while body := list(islice(rows, CHUNK_ROWS)):
            yield sep + encode(body)[1:-1]
            sep = ","
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

"""Deterministic table emission: CSV with a commented config echo, or a
single JSON document.

Floats are printed with 17 significant digits in lowercase scientific
notation, which round-trips exactly and pins the output bytes.  Cells may
also be labels ("divergent", "unphysical", region letters); NaN or infinity
reaching a writer is a bug and raises instead of leaking into a file.

A CSV body is formatted column by column: a column of plain floats goes
through one row format string, and only the other columns (labels, a
float column with labels in it, bools, ints) are rendered cell by cell.
Every cell is checked before the first byte is written, and the body then
goes out in chunks of CHUNK_ROWS rows, so the text of a whole table is
never held at once.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import islice, starmap
from pathlib import Path

import numpy as np

from .config import RunConfig

__all__ = ["Table", "fmt_float", "write_table", "emit_error"]

#: rows of CSV text formatted and written at a time
CHUNK_ROWS = 4096

#: cell types a column may hold to be formatted by one row format string
_FLOAT_TYPES = {float, np.float64}


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


def _json_value(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite value reached the writer: {v!r}")
        return v
    return v


@dataclass
class Table:
    command: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(f"row width {len(cells)} != header width "
                             f"{len(self.columns)}")
        self.rows.append(cells)


def _column(values: tuple) -> tuple[str, list | tuple]:
    """The format field of one CSV column and the values it formats.  A
    column of plain floats keeps its values, once every one is checked to
    be finite; any other column is rendered cell by cell."""
    if set(map(type, values)) <= _FLOAT_TYPES:
        finite = np.isfinite(np.array(values, dtype=float))
        if not finite.all():
            fmt_float(float(values[int(finite.argmin())]))    # raises
        return "{:.16e}", values
    return "{}", [_cell(v) for v in values]


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
    row = ",".join(fmt for fmt, _ in planned) + "\n"
    rows = zip(*(values for _, values in planned))

    def chunks():
        yield "\n".join(head) + "\n"
        while body := "".join(starmap(row.format, islice(rows, CHUNK_ROWS))):
            yield body

    return chunks()


def _render_json(table: Table, cfg: RunConfig) -> str:
    doc = {
        "command": table.command,
        "config": cfg.to_dict(),
        "metadata": {k: _json_value(v) for k, v in
                     sorted(table.metadata.items())},
        "columns": table.columns,
        "rows": [[_json_value(v) for v in row] for row in table.rows],
    }
    return json.dumps(doc, sort_keys=True, allow_nan=False,
                      separators=(",", ":")) + "\n"


def write_table(table: Table, cfg: RunConfig, *, fmt: str | None = None,
                out: str | None | Path = "use-config") -> None:
    """Render the table and write it to the configured destination; a
    table with a bad cell raises before anything is written."""
    fmt = fmt or cfg.format
    if out == "use-config":
        out = cfg.out
    chunks = ([_render_json(table, cfg)] if fmt == "json"
              else _csv_chunks(table, cfg))
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with Path(out).open("w") as stream:
            stream.writelines(chunks)


def emit_error(code: str, message: str, parameter: str = "") -> None:
    """Machine-readable error object on stderr."""
    sys.stderr.write(json.dumps({"code": code, "message": message,
                                 "parameter": parameter}) + "\n")

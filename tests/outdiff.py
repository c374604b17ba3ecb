"""Whether two source trees give the same CLI output, case by case.

    python tests/outdiff.py OLD NEW [--only GLOB ...]

OLD and NEW are directories that hold src/tlspurify: a checkout, or an
old revision unpacked with ``git archive <rev> src | tar -x -C <dir>``.
Each tree runs the whole case matrix in one subprocess, which calls
``tlspurify.cli.main`` once per case.  The tool prints one line per case,
saying whether its exit code, stderr and stdout are identical in the two
trees.  Where two tables (CSV or JSON) differ, the line names the rows
added or removed, the metadata and config keys that changed, and each
column with changed cells: how many, the largest absolute and relative
change between numbers, and the label flips counted by (from, to), a
number standing as "<number>".  Tables are compared row by row over the
shorter one, and only when their headers match.  A summary follows, one
line per changed column of each command over all cases, with the largest
change of each row where the rows are keyed by a label (verify's check
names), then a count of identical cases.  The tool exits 0 if every case
is identical and 1 otherwise.  --only keeps the cases whose name matches
one of the glob patterns, for example 'default/*/csv'.

The matrix: every command, simulate in both frames, in CSV and in JSON,
under ten configs (the default, a detuned drive, a cold and a colder
bath, J = 0, a hot bath with a larger loss and coupling, the README's
flat config and its quoted twin, and a log beta axis); CI's bad-config
and usage-error cases; and, at two seeds, the benchmark's invocations
(perfbench/workloads.py) and every command under each config file of
each workload, in CSV and in JSON (a config whose text an earlier seed
or workload already wrote runs once, under that first name).  This is
not a test module: pytest does not collect it, and test_outdiff.py runs
a few of its cases.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]

#: the README's example config, in the flat layout read without PyYAML
README_FLAT = ("# run.yaml\nmodel:\n  J: 0.1\n  kappa: 0.05\nsweep:\n"
               "  axes:\n    - {name: gamma_over_j, start: 0.0, stop: 4.4, "
               "count: 45}\nrun:\n  samples: 301\n")

#: config name -> YAML text (None runs without --config)
CONFIGS = {
    "default": None,
    "detuned": "drive:\n  epsilon: 2.05\n",
    "beta10": "model:\n  beta: 10.0\n",
    "beta40": "model:\n  beta: 40.0\n",
    "uncoupled": "model:\n  J: 0.0\n",
    "hot-lossy": "model:\n  beta: 0.3\n  kappa: 0.2\n  J: 0.12\n",
    "readme-flat": README_FLAT,
    # quoting one value sends the file to PyYAML
    "readme-quoted": README_FLAT.replace("name: gamma_over_j",
                                         "name: 'gamma_over_j'"),
    "log-axis": ("sweep:\n  axes:\n    - {name: beta, start: 0.05, "
                 "stop: 4.0, count: 80, scale: log}\n"),
}

#: invocation name -> argv
COMMANDS = {
    "simulate-rwa": ["simulate", "--frame", "rwa"],
    "simulate-lab": ["simulate", "--frame", "lab"],
    **{command: [command] for command in (
        "scan-gamma", "scan-beta", "region-map", "coherence-map",
        "purity-trace", "verify")},
}

_HOT = "model:\n  beta: {}\n  omega_q: 0.05\n  omega_tls: 0.1\n"
_BETA_AXIS = ("sweep:\n  axes:\n    - {{name: beta, start: {}, stop: {}, "
              "count: 3}}\n")

#: CI's bad configs: name -> YAML text
BAD_CONFIGS = {
    "samples": "run:\n  samples: 1\n",
    "axis": _BETA_AXIS.format(0, 2),
    "hot0": _HOT.format("5.0e-324"),
    "hot1": _HOT.format("1.0e-310"),
    "hot-start": _BETA_AXIS.format("1.0e-320", "2.0"),
    "hot-stop": _BETA_AXIS.format("2.0", "1.0e-320"),
}

#: CI's bad-config cases, (command, bad config name); "directory" passes
#: a directory as the config, which cannot be read
BAD_CONFIG_CASES = [
    ("simulate", "samples"), ("scan-beta", "axis"),
    ("scan-gamma", "directory"),
    ("simulate", "hot0"), ("scan-gamma", "hot0"),
    ("simulate", "hot1"), ("scan-gamma", "hot1"),
    ("scan-beta", "hot-start"), ("scan-beta", "hot-stop"),
]

#: CI's usage-error cases: name -> argv
USAGE_CASES = {"horizon-abc": ["scan-gamma", "--horizon", "abc"]}

#: seeds of the benchmark's workload configs
BENCH_SEEDS = (0, 3)

#: the program of one tree's subprocess: it reads [[name, argv], ...]
#: from the file argv[1] and writes [[exit code, stdout, stderr], ...] to
#: the file argv[2]; a traceback counts as the exit code "exception"
_RUNNER = """
import io, json, sys, traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tlspurify.cli import main
results = []
for name, argv in json.loads(Path(sys.argv[1]).read_text()):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue()])
Path(sys.argv[2]).write_text(json.dumps(results))
"""


# ====================================================================
# Tables and their differences
# ====================================================================

class Parsed(NamedTuple):
    """One table as text: its command, its metadata and config echo
    (key -> value text), its header and its cells."""

    command: str
    meta: dict[str, str]
    columns: list[str]
    rows: list[list[str]]


def parse(text: str) -> Parsed | None:
    """The table of a CSV or JSON stdout; None for any other text."""
    if text.startswith("{"):
        doc = json.loads(text)
        meta = {f"meta {key}": json.dumps(value)
                for key, value in doc["metadata"].items()}
        meta.update({f"{section}.{key}": json.dumps(value)
                     for section, values in doc["config"].items()
                     for key, value in values.items()})
        rows = [[cell if isinstance(cell, str) else json.dumps(cell)
                 for cell in row] for row in doc["rows"]]
        return Parsed(doc["command"], meta, doc["columns"], rows)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        return None
    meta, body = {}, []
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    table = list(csv.reader(body))
    if not table:
        return None
    return Parsed(lines[0][2:], meta, table[0], table[1:])


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


class ColumnDiff(NamedTuple):
    """The changed cells of one column.  by_row maps the label that keys
    a row (its first cell) to the largest (absolute, relative) change in
    that row; it is empty where the first column holds numbers."""

    name: str
    cells: int
    max_abs: float
    max_rel: float
    flips: Counter
    by_row: dict[str, tuple[float, float]]

    def text(self) -> str:
        words = [f"{self.name}: {self.cells} cells"]
        if self.cells > sum(self.flips.values()):
            words.append(f"max abs {self.max_abs:.3g}, "
                         f"max rel {self.max_rel:.3g}")
        if self.flips:
            words.append("flips " + ", ".join(
                f"{a}->{b} x{n}" for (a, b), n in sorted(self.flips.items())))
        return ", ".join(words)


def column_diff(name: str, changed: list[tuple[str, str, str]]) -> ColumnDiff:
    """The summary of one column's changed cells, each given as
    (row key, old text, new text)."""
    flips: Counter = Counter()
    by_row: dict[str, tuple[float, float]] = {}
    max_abs = max_rel = 0.0
    for key, a, b in changed:
        x, y = _number(a), _number(b)
        if x is None or y is None:
            flips[(a if x is None else "<number>",
                   b if y is None else "<number>")] += 1
            continue
        gap = abs(y - x)
        rel = gap / max(abs(x), abs(y)) if gap else 0.0
        max_abs, max_rel = max(max_abs, gap), max(max_rel, rel)
        if _number(key) is None:
            old = by_row.get(key, (0.0, 0.0))
            by_row[key] = (max(old[0], gap), max(old[1], rel))
    return ColumnDiff(name, len(changed), max_abs, max_rel, flips, by_row)


class TableDiff(NamedTuple):
    """How two tables of one command differ: rows added (negative where
    removed), changed metadata and config keys, and the changed columns
    (None where the headers differ)."""

    command: str
    rows_added: int
    meta: list[str]
    columns: list[ColumnDiff] | None

    def text(self) -> str:
        words = []
        if self.rows_added:
            verb = "added" if self.rows_added > 0 else "removed"
            words.append(f"{abs(self.rows_added)} rows {verb}")
        if self.meta:
            words.append("metadata " + ", ".join(self.meta))
        if self.columns is None:
            words.append("header differs")
        else:
            words.extend(column.text() for column in self.columns)
        return "; ".join(words)


def diff_tables(old: Parsed, new: Parsed) -> TableDiff:
    meta = sorted(key for key in old.meta.keys() | new.meta.keys()
                  if old.meta.get(key) != new.meta.get(key))
    added = len(new.rows) - len(old.rows)
    if old.columns != new.columns:
        return TableDiff(old.command, added, meta, None)
    columns = []
    for k, name in enumerate(old.columns):
        changed = [(a[0], a[k], b[k]) for a, b in zip(old.rows, new.rows)
                   if a[k:k + 1] != b[k:k + 1]]
        if changed:
            columns.append(column_diff(name, changed))
    return TableDiff(old.command, added, meta, columns)


class CaseResult(NamedTuple):
    """The comparison of one case; table tells how two tables differ,
    and is None unless both stdouts are tables that differ."""

    name: str
    exit_same: bool
    stderr_same: bool
    stdout_same: bool
    table: TableDiff | None = None

    @property
    def same(self) -> bool:
        return self.exit_same and self.stderr_same and self.stdout_same

    def line(self) -> str:
        words = ["same" if self.same else "DIFF", self.name]
        for stream, same in (("exit", self.exit_same),
                             ("stderr", self.stderr_same),
                             ("stdout", self.stdout_same)):
            if not same:
                words.append(f"{stream} differs")
        line = " ".join(words)
        return line if self.table is None else f"{line}: {self.table.text()}"


def summary(results: list[CaseResult]) -> list[str]:
    """One line per changed column of each command, over every case: the
    changed cells, the cases they are in, the largest changes and flips,
    and the largest change of each labelled row."""
    merged: dict[tuple[str, str], list[ColumnDiff]] = {}
    for result in results:
        if result.table is not None and result.table.columns:
            for column in result.table.columns:
                merged.setdefault((result.table.command, column.name),
                                  []).append(column)
    lines = []
    for (command, name), columns in merged.items():
        by_row: dict[str, tuple[float, float]] = {}
        for column in columns:
            for key, (gap, rel) in column.by_row.items():
                old = by_row.get(key, (0.0, 0.0))
                by_row[key] = (max(old[0], gap), max(old[1], rel))
        total = ColumnDiff(f"{command}.{name}",
                           sum(c.cells for c in columns),
                           max(c.max_abs for c in columns),
                           max(c.max_rel for c in columns),
                           sum((c.flips for c in columns), Counter()), by_row)
        line = f"{total.text()}, in {len(columns)} cases"
        if by_row:
            line += "; by row: " + ", ".join(
                f"{key} {gap:.3g} ({rel:.3g} rel)"
                for key, (gap, rel) in by_row.items())
        lines.append(line)
    return lines


# ====================================================================
# The case matrix
# ====================================================================

def cases(workdir: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of every case, its config files written to workdir."""
    found = []
    for config, text in CONFIGS.items():
        flags = []
        if text is not None:
            path = workdir / f"{config}.yaml"
            path.write_text(text)
            flags = ["--config", str(path)]
        for name, argv in COMMANDS.items():
            for fmt in ("csv", "json"):
                found.append((f"{config}/{name}/{fmt}",
                              [*argv, *flags, "--format", fmt]))
    for command, config in BAD_CONFIG_CASES:
        path = workdir
        if config != "directory":
            path = workdir / f"bad-{config}.yaml"
            path.write_text(BAD_CONFIGS[config])
        found.append((f"error/{config}/{command}",
                      [command, "--config", str(path)]))
    for name, argv in USAGE_CASES.items():
        found.append((f"error/{name}/{argv[0]}", argv))
    if str(REPO / "perfbench") not in sys.path:
        sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import WORKLOADS, draw, invocations, write_configs
    seen = set()
    for seed in BENCH_SEEDS:
        seed_dir = workdir / f"seed{seed}"
        for workload in WORKLOADS:
            write_configs(workload, seed, seed_dir)
            for inv in invocations(workload):
                found.append((f"seed{seed}/{inv.name}", [
                    inv.command, "--config", str(seed_dir / inv.config),
                    *inv.flags]))
            for file, text in draw(workload, seed).items():
                if text in seen:
                    continue
                seen.add(text)
                flags = ["--config", str(seed_dir / file)]
                found += [(f"seed{seed}/{Path(file).stem}/{name}/{fmt}",
                           [*argv, *flags, "--format", fmt])
                          for name, argv in COMMANDS.items()
                          for fmt in ("csv", "json")]
    return found


def _run_tree(tree: Path, cases_file: Path, results_file: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-c", _RUNNER, str(cases_file),
                    str(results_file)], env=env, cwd=results_file.parent,
                   check=True)
    return json.loads(results_file.read_text())


def compare(old: Path, new: Path,
            only: list[str] | None = None) -> list[CaseResult]:
    """Run the cases (those matching a pattern of only, if given) in both
    trees and compare each."""
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        selected = [case for case in cases(workdir) if only is None
                    or any(fnmatch.fnmatchcase(case[0], p) for p in only)]
        cases_file = workdir / "cases.json"
        cases_file.write_text(json.dumps(selected))
        runs = [_run_tree(tree, cases_file, workdir / f"results-{k}.json")
                for k, tree in enumerate((old, new))]
    results = []
    for (name, _), (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(
            selected, *runs):
        table = None
        if out_a != out_b:
            tables = parse(out_a), parse(out_b)
            if None not in tables:
                table = diff_tables(*tables)
        results.append(CaseResult(name, code_a == code_b, err_a == err_b,
                                  out_a == out_b, table))
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--only", action="append", metavar="GLOB")
    args = parser.parse_args(argv)
    results = compare(args.old, args.new, args.only)
    for result in results:
        print(result.line())
    for line in summary(results):
        print(line)
    n_same = sum(result.same for result in results)
    print(f"{n_same}/{len(results)} cases identical in exit code, stderr "
          f"and stdout")
    return 0 if n_same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Whether two source trees give the same CLI output, case by case.

    python tests/outdiff.py OLD NEW [--only GLOB ...]

OLD and NEW are directories that hold src/tlspurify: a checkout, or an
old revision unpacked with ``git archive <rev> src | tar -x -C <dir>``.
Each tree runs the whole case matrix in one subprocess, which calls
``tlspurify.cli.main`` once per case.  The tool prints one line per case,
saying whether its exit code, stderr and stdout are identical in the two
trees (for two CSV tables of the same shape that differ, it names the
columns that hold the changed cells), then a summary line.  It exits 0 if
every case is identical and 1 otherwise.  --only keeps the cases whose
name matches one of the glob patterns, for example 'default/*/csv'.

The matrix: every command, simulate in both frames, in CSV and in JSON,
under five configs (the default, a detuned drive, a cold bath, J = 0,
and a hot bath with a larger loss and coupling), plus the benchmark's
invocations (perfbench/workloads.py) at two seeds.  This is not a test
module: pytest does not collect it, and test_outdiff.py runs a few of
its cases.
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
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]

#: config name -> YAML text (None runs without --config)
CONFIGS = {
    "default": None,
    "detuned": "drive:\n  epsilon: 2.05\n",
    "beta10": "model:\n  beta: 10.0\n",
    "uncoupled": "model:\n  J: 0.0\n",
    "hot-lossy": "model:\n  beta: 0.3\n  kappa: 0.2\n  J: 0.12\n",
}

#: invocation name -> argv
COMMANDS = {
    "simulate-rwa": ["simulate", "--frame", "rwa"],
    "simulate-lab": ["simulate", "--frame", "lab"],
    **{command: [command] for command in (
        "scan-gamma", "scan-beta", "region-map", "coherence-map",
        "purity-trace", "verify")},
}

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


class CaseResult(NamedTuple):
    """The comparison of one case; columns names the CSV columns with
    changed cells, or is None where that is not known."""

    name: str
    exit_same: bool
    stderr_same: bool
    stdout_same: bool
    columns: list[str] | None = None

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
        if self.columns is not None:
            words.append(f"in columns {', '.join(self.columns) or '(none)'}")
        return " ".join(words)


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
    if str(REPO / "perfbench") not in sys.path:
        sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import WORKLOADS, invocations, write_configs
    for seed in BENCH_SEEDS:
        seed_dir = workdir / f"seed{seed}"
        for workload in WORKLOADS:
            write_configs(workload, seed, seed_dir)
            for inv in invocations(workload):
                found.append((f"seed{seed}/{inv.name}", [
                    inv.command, "--config", str(seed_dir / inv.config),
                    *inv.flags]))
    return found


def _run_tree(tree: Path, cases_file: Path, results_file: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-c", _RUNNER, str(cases_file),
                    str(results_file)], env=env, cwd=results_file.parent,
                   check=True)
    return json.loads(results_file.read_text())


def _table(text: str) -> list[list[str]]:
    return list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))


def changed_columns(old: str, new: str) -> list[str] | None:
    """The header names of the columns whose cells differ between two CSV
    tables; None unless both have the same header and number of rows."""
    a, b = _table(old), _table(new)
    if not a or len(a) != len(b) or a[0] != b[0]:
        return None
    return [name for k, name in enumerate(a[0])
            if any(ra[k:k + 1] != rb[k:k + 1] for ra, rb in zip(a, b))]


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
    for (name, argv), (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(
            selected, *runs):
        columns = None
        if out_a != out_b and "json" not in argv:
            columns = changed_columns(out_a, out_b)
        results.append(CaseResult(name, code_a == code_b, err_a == err_b,
                                  out_a == out_b, columns))
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
    n_same = sum(result.same for result in results)
    print(f"{n_same}/{len(results)} cases identical in exit code, stderr "
          f"and stdout")
    return 0 if n_same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark on tiny grids (about a minute).

    python3 perfbench/selftest.py

1. BENCHMARK.json declares exactly the metrics run.py emits, with the
   same units.
2. run.py --tiny, timed and traced, on every workload: the last line is
   the result object with exactly its four keys, every declared metric is
   there with its unit, and nothing failed.
3. Bad outputs injected into a checked round each count as a failed
   invocation, so they raise the error rate.
4. Without the program source, run.py exits nonzero and prints no result.

Exits 0 when every check passes; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from workloads import WORKLOADS, grid_rows, invocations, write_configs  # noqa: E402

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        PROBLEMS.append(what)


def declared() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layer


def check_spec() -> None:
    e2e, layer = declared()
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    names = list(e2e) + list(layer)
    expect(len(names) == len(set(names)), "metric names are unique")
    expect(all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names),
           "metric names are well formed")


def check_runs() -> None:
    e2e, layer = declared()
    for workload in WORKLOADS:
        for trace, want in ((0, e2e), (1, layer)):
            t = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=170)
            what = f"tiny {workload} --trace {trace} ({perf_counter() - t:.1f} s)"
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{what}: prints a result line "
                              f"(exit {proc.returncode}: {proc.stderr[-400:]})")
                continue
            expect(proc.returncode == 0, f"{what}: exits 0")
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly its four keys")
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == want, f"{what}: every declared metric, with its unit")
            expect(all(isinstance(v.get("value"), (int, float))
                       for v in res["metrics"].values()),
                   f"{what}: every value is a number")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: nothing failed ({res['failed']}/{res['attempted']})")


def _replace_row(text: str, match, edit) -> str:
    """Apply edit to the first table row for which match holds."""
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    for i in range(header + 1, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        if match(cells):
            lines[i] = ",".join(edit(cells)) + "\n"
            return "".join(lines)
    raise AssertionError("no row to tamper with")


def _is_num(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _bump(cell: str, by: float) -> str:
    return repr(float(cell) + by)


TAMPERS = {
    # name: (invocation, edit of (text, rc, stderr))
    "dropped row": ("scan-gamma", lambda t, rc, e: (t[:t.rstrip("\n").rfind("\n") + 1], rc, e)),
    "bare cell divergent where the closed form is finite": (
        "scan-gamma", lambda t, rc, e: (_replace_row(
            t, lambda c: _is_num(c[2]), lambda c: c[:2] + ["divergent"] + c[3:]), rc, e)),
    "correlated above bare": (
        "scan-beta", lambda t, rc, e: (_replace_row(
            t, lambda c: _is_num(c[3]) and _is_num(c[4]),
            lambda c: c[:4] + [_bump(c[3], 1.0)]), rc, e)),
    "label outside A/B/C/U": (
        "region-map", lambda t, rc, e: (_replace_row(
            t, lambda c: True, lambda c: c[:4] + ["X"]), rc, e)),
    "A label where the stall condition fails": (
        "region-map", lambda t, rc, e: (_replace_row(
            t, lambda c: c[4] == "C", lambda c: c[:4] + ["A"]), rc, e)),
    "verify not all passed": (
        "verify", lambda t, rc, e: (t.replace("all_passed = true", "all_passed = false"), rc, e)),
    "lab purity off the rwa trace": (
        "simulate-lab", lambda t, rc, e: (_replace_row(
            t, lambda c: _is_num(c[1]) and float(c[0]) > 0.0,
            lambda c: c[:1] + [_bump(c[1], 0.05)] + c[2:]), rc, e)),
    "nonzero exit": ("purity-trace", lambda t, rc, e: (t, 1, e)),
    "error object on stderr": (
        "coherence-map", lambda t, rc, e: (t, rc, e + '{"code": "runtime-error", '
                                           '"message": "x", "parameter": ""}\n')),
    "missing output": ("simulate-rwa", lambda t, rc, e: (None, rc, e)),
}


def check_injected() -> None:
    work = run.STATE / "selftest" / "inject"
    shutil.rmtree(work, ignore_errors=True)
    rows = grid_rows(tiny=True)
    deadline = perf_counter() + 150.0
    rounds = {}
    for workload in WORKLOADS:
        write_configs(workload, 3, work, tiny=True)
        invs = invocations(workload)
        r = run.fresh_round(invs, work, deadline)
        bad = run.check_round(invs, r["texts"], r["rcs"], r["errs"], work, rows, None)
        expect(run.failed_count(bad) == 0, f"clean tiny {workload} round passes its checks")
        rounds[workload] = (invs, r)
    for name, (target, edit) in TAMPERS.items():
        workload = next(w for w in WORKLOADS if any(i.name == target for i in invocations(w)))
        invs, r = rounds[workload]
        texts, rcs, errs = dict(r["texts"]), dict(r["rcs"]), dict(r["errs"])
        texts[target], rcs[target], errs[target] = edit(texts[target], rcs[target],
                                                        errs[target])
        bad = run.check_round(invs, texts, rcs, errs, work, rows, None)
        expect(run.failed_count(bad) >= 1 and bad[target],
               f"injected '{name}' in {target} counts as a failure")
    invs, r = rounds["pole-scan"]
    texts = dict(r["texts"])
    texts["scan-beta"] = texts["scan-beta"].replace("e-01", "e-02", 1)
    bad = run.check_round(invs, texts, r["rcs"], r["errs"], work, rows, r["texts"])
    expect(bool(bad["scan-beta"]), "an output that differs from the first round's fails")
    shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_source() -> None:
    bare = run.STATE / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "without the program source: nonzero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    run.preflight()
    check_spec()
    check_injected()
    check_refuses_without_source()
    check_runs()
    print(f"{len(PROBLEMS)} failed check(s)" if PROBLEMS else "all checks passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())

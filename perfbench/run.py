#!/usr/bin/env python3
"""The tlspurify benchmark.

    python3 perfbench/run.py --workload {pole-scan,stall-map,trajectories}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/
directory, nothing is installed.  The workloads are described in
perfbench/README.md.

--trace 0 is the timed run.  It repeats the workload's CLI invocations,
each in a fresh process, one after another (a closed loop with one
client), for about S seconds and at least three rounds, and reports the
end-to-end metrics as medians, scaled to the speed of a fixed reference
program timed next to them (README.md, "Reference speed").

--trace 1 is the traced run.  It runs one timed round of all three
workloads, then every invocation again inside this process, traced, at
--workers 1, then the trajectories invocations untraced in this process
(for the tracing overhead), then the microbenchmark probes, and reports
every per-layer metric, unscaled.  Totals (work counters, bytes, the
slowest-cell share, the pole error, the render cost) are those of the
named workload.  Metrics named after one cell, invocation or flow come
from the workload that runs it.

Both runs check every output.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full report
(machine facts, reference times, probe samples, counters, failures) goes to
.perfbench/reports/ and spans to .perfbench/spans/, both under the
checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, grid_rows, invocations, write_configs  # noqa: E402

#: the whole run must end well inside 180 s
DEADLINE_S = 160.0
MIN_ROUNDS = 3
#: fresh-process set-up probes per run (median reported), and how many
#: run between two reference runs
SETUP_PROBES = 9
SETUP_PER_REFERENCE = 3
#: median time of reference.py on the development host: measured times are
#: scaled by REFERENCE_S / (time of reference.py next to them), taken as the
#: mean of REFERENCE_RUNS runs, since one run alone varies by 15 %
REFERENCE_S = 0.17
REFERENCE_RUNS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _per_layer() -> dict[str, str]:
    names = {"cli.import_s": "s", "config.load_ms": "ms"}
    names.update({f"cli.{inv.name}.wall_s": "s"
                  for w in WORKLOADS for inv in invocations(w)})
    names.update({f"sweeps.{d}.self_ms": "ms" for d in sorted(set(tracing.DRIVERS.values()))})
    names.update({"sweeps.fanout_start_ms": "ms", "sweeps.slowest_cell_share": "1"})
    for label in tracing.CELL_RATIOS:
        names[f"optimal.cell_ms.{label}"] = "ms"
        names.update({f"optimal.cell_ms.{label}.{k}": "count"
                      for k in ("n_eval", "accepted", "rejected")})
    names.update({f"optimal.t_min_numeric.{k}": "count"
                  for k in ("n_eval", "accepted", "rejected")})
    names["optimal.classify_region.us_per_cell"] = "us"
    names.update({f"optimal.region.{k}": "count" for k in "ABCU"})
    names.update({"optimal.delta_p.ms_per_cell": "ms",
                  "optimal.delta_p.sample_ms": "ms",
                  "optimal.pole_rel_err": "1", "optimal.pole_missed": "count"})
    names.update({f"integrator.self_us_per_eval.{f}": "us" for f in tracing.FLOW_PROBES})
    names["integrator.self_share.coherence-map"] = "1"
    names["integrator.step_us"] = "us"
    names.update({f"integrator.{k}": "count" for k in ("n_eval", "accepted", "rejected")})
    names.update({"reduced.rhs_z_us": "us", "reduced.rhs_rct_us": "us",
                  "liouville.rhs_rwa_us": "us",
                  "liouville.rhs_rwa_detuned_us": "us",
                  "liouville.rhs_lab_us": "us"})
    names.update({f"liouville.simulate_ms.{f}-{d}": "ms"
                  for f in ("rwa", "lab") for d in ("resonant", "detuned")})
    names.update({"model.mu_max_ms": "ms",
                  "output.render_csv_us_per_row": "us",
                  "output.render_json_us_per_row": "us",
                  "output.bytes": "bytes",
                  "verify.run_suite_ms": "ms", "tracing.overhead_share": "1"})
    return names


PER_LAYER = _per_layer()


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ====================================================================
# Processes
# ====================================================================

#: a fixed hash seed removes one source of process-to-process variance
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import tlspurify.cli
t1 = time.perf_counter()
from tlspurify.config import load_config
load_config(sys.argv[1])
print(t1 - t0, time.perf_counter() - t1)
"""


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def spawn(cmd: list[str], err_path: Path, deadline: float, *,
          capture: bool = False) -> tuple[float, int, float, str]:
    """Run one fresh process to its exit: (wall s, exit code, max RSS MB
    of it and its reaped children, stdout).  The process leads its own
    process group, so a deadline or an interrupt kills its workers too."""
    with open(err_path, "wb") as err:
        t = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                                stderr=err, env=ENV, cwd=ROOT,
                                start_new_session=True)
        killer = threading.Timer(max(1.0, deadline - perf_counter()),
                                 _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        _kill_group(proc.pid)       # stray workers, if the process left any
        wall = perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read().decode() if capture else ""
        if capture:
            proc.stdout.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, out


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "tlspurify.cli", *argv]


def reference_time(work: Path, deadline: float) -> float:
    """Mean wall time of REFERENCE_RUNS fresh runs of reference.py."""
    walls = []
    for _ in range(REFERENCE_RUNS):
        wall, rc, _, _ = spawn([sys.executable, str(HERE / "reference.py")],
                               work / "reference.err", deadline)
        if rc != 0:
            raise BenchError("reference.py failed: "
                             + (work / "reference.err").read_text()[-2000:])
        walls.append(wall)
    return statistics.fmean(walls)


def setup_probes(invs, work: Path, deadline: float) -> dict[str, list[float]]:
    """Fresh processes that import tlspurify.cli and load the config of
    each invocation in turn: their wall time, that time scaled to the
    reference speed, and the import and load times measured inside."""
    walls, scaled, imports, loads = [], [], [], []
    refs = [reference_time(work, deadline)]
    for start in range(0, SETUP_PROBES, SETUP_PER_REFERENCE):
        batch = []
        for k in range(start, min(start + SETUP_PER_REFERENCE, SETUP_PROBES)):
            inv = invs[k % len(invs)]
            wall, rc, _, out = spawn(
                [sys.executable, "-c", SETUP_CODE, str(work / inv.config)],
                work / "setup.err", deadline, capture=True)
            if rc != 0:
                raise BenchError("the package does not import: "
                                 + (work / "setup.err").read_text()[-2000:])
            t_import, t_load = map(float, out.split())
            batch.append(wall)
            imports.append(t_import)
            loads.append(t_load)
        refs.append(reference_time(work, deadline))
        walls += batch
        scaled += [w * REFERENCE_S / statistics.fmean(refs[-2:]) for w in batch]
    return {"wall_s": walls, "scaled_s": scaled, "import_s": imports,
            "load_s": loads, "reference_s": refs}


def run_inprocess(cli, argv: list[str]) -> tuple[float, object, str]:
    """cli.main in this process: (wall s, return code, stderr)."""
    err = io.StringIO()
    t = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:           # a crash is a failed invocation, not a crash of the run
        rc = "exception"
        err.write(traceback.format_exc())
    return perf_counter() - t, rc, err.getvalue()


# ====================================================================
# Checks and accounting
# ====================================================================

def check_round(invs, texts: dict, rcs: dict, errs: dict, work: Path,
                rows: dict[str, int], first: dict | None) -> dict[str, list[str]]:
    """Failures of one round of invocations, by invocation.  Given the
    outputs of the run's first round, outputs must repeat them byte for
    byte (so every counter in them repeats exactly); without, every output
    is checked in full."""
    bad: dict[str, list[str]] = {}
    for inv in invs:
        text = texts.get(inv.name)
        if first is not None:
            found = [f"exit code {rcs[inv.name]!r}"] if rcs[inv.name] != 0 else []
            found += checks.stderr_errors(errs[inv.name])
            if text != first.get(inv.name):
                found.append("output differs from the first round's")
        else:
            found = checks.check_invocation(inv, text, rcs[inv.name],
                                            errs[inv.name], rows,
                                            work / inv.config)
        bad[inv.name] = found
    if first is None and {"simulate-rwa", "simulate-lab"} <= set(texts):
        if texts["simulate-rwa"] is not None and texts["simulate-lab"] is not None:
            bad["simulate-lab"] += checks.check_frames(texts["simulate-rwa"],
                                                       texts["simulate-lab"])
    return bad


def failed_count(bad: dict[str, list[str]]) -> int:
    """Invocations with at least one failure."""
    return sum(1 for found in bad.values() if found)


def read_output(path: Path) -> str | None:
    return path.read_text() if path.is_file() else None


# ====================================================================
# Timed run
# ====================================================================

def fresh_round(invs, work: Path, deadline: float) -> dict:
    """Each invocation once, in a fresh process."""
    r = {"walls": {}, "texts": {}, "rcs": {}, "errs": {}, "peak_rss_mb": 0.0}
    for inv in invs:
        out = work / f"{inv.name}.csv"
        out.unlink(missing_ok=True)
        err = work / f"{inv.name}.err"
        wall, r["rcs"][inv.name], rss, _ = spawn(cli_cmd(inv.argv(work, out)),
                                                 err, deadline)
        r["walls"][inv.name] = wall
        r["peak_rss_mb"] = max(r["peak_rss_mb"], rss)
        r["texts"][inv.name] = read_output(out)
        r["errs"][inv.name] = err.read_text()
    return r


def timed_run(workload: str, seed: int, seconds: float, work: Path,
              deadline: float, *, tiny: bool = False, min_rounds: int = MIN_ROUNDS):
    invs = invocations(workload)
    rows = grid_rows(tiny)
    write_configs(workload, seed, work, tiny=tiny)
    setup = setup_probes(invs, work, deadline)

    rounds, failures = [], []
    attempted = failed = 0
    first = None
    counters = {}
    started = perf_counter()
    ref_before = reference_time(work, deadline)
    while True:
        r = fresh_round(invs, work, deadline)
        ref_after = reference_time(work, deadline)
        wall = sum(r["walls"].values())
        rounds.append({"wall_s": wall,
                       "scaled_s": wall * REFERENCE_S / (0.5 * (ref_before + ref_after)),
                       "reference_s": [ref_before, ref_after],
                       "peak_rss_mb": r["peak_rss_mb"],
                       "invocations_s": r["walls"]})
        ref_before = ref_after
        bad = check_round(invs, r["texts"], r["rcs"], r["errs"], work, rows,
                          first)
        attempted += len(invs)
        failed += failed_count(bad)
        failures += [f"round {len(rounds)}: {name}: {msg}"
                     for name, found in bad.items() for msg in found]
        if first is None:
            first = r["texts"]
            counters = output_counters(invs, r["texts"])

        elapsed = perf_counter() - started
        per_round = elapsed / len(rounds)
        if len(rounds) >= min_rounds and elapsed + 0.5 * per_round > seconds:
            break
        if perf_counter() + per_round > deadline:
            break

    metrics = {
        "wall_s": statistics.median(r["scaled_s"] for r in rounds),
        "setup_s": statistics.median(setup["scaled_s"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    report = {"rounds": rounds, "setup": setup, "counters": counters,
              "unscaled": {"wall_s": statistics.median(r["wall_s"] for r in rounds),
                           "setup_s": statistics.median(setup["wall_s"])},
              "failures": failures}
    return metrics, attempted, failed, report


def output_counters(invs, texts: dict) -> dict:
    """Rows and bytes of each output, and the region label counts."""
    out = {}
    for inv in invs:
        text = texts.get(inv.name)
        if text is None:
            continue
        try:
            n_rows = len(checks.parse_csv(text).rows)
        except ValueError:
            n_rows = -1
        out[inv.name] = {"rows": n_rows, "bytes": len(text.encode())}
        if inv.command == "region-map" and n_rows >= 0:
            out[inv.name]["regions"] = checks.region_counts(text)
    return out


# ====================================================================
# Traced run
# ====================================================================

def traced_run(workload: str, seed: int, work: Path, deadline: float, *,
               tiny: bool = False):
    from tlspurify import cli
    from tlspurify.config import load_config

    everything = [(w, inv) for w in WORKLOADS for inv in invocations(w)]
    for w in WORKLOADS:
        write_configs(w, seed, work, tiny=tiny)
    own = invocations(workload)
    setup = setup_probes(own, work, deadline)
    rows = grid_rows(tiny)

    # one timed round of every workload: per-invocation times and the
    # outputs the traced pass must match, checked in full
    walls, texts = {}, {}
    failures: list[str] = []
    attempted = failed = 0
    for w in WORKLOADS:
        invs = invocations(w)
        r = fresh_round(invs, work, deadline)
        bad = check_round(invs, r["texts"], r["rcs"], r["errs"], work, rows, None)
        attempted += len(invs)
        failed += failed_count(bad)
        failures += [f"timed {n}: {msg}" for n, found in bad.items() for msg in found]
        walls.update(r["walls"])
        texts.update(r["texts"])

    # traced pass at workers 1, in this process: outputs must match
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for w, inv in everything:
            out = work / f"traced-{inv.name}.csv"
            with tracer.request(w, inv.name) as root:
                _, rc, err = run_inprocess(cli, inv.argv(work, out, workers=1))
            root["attrs"] = {"rc": rc}
            found = [f"exit code {rc!r}"] if rc != 0 else []
            found += checks.stderr_errors(err)
            if read_output(out) != texts[inv.name]:
                found.append("traced workers-1 output differs from the "
                             "timed output")
            attempted += 1
            failed += bool(found)
            failures += [f"traced {inv.name}: {msg}" for msg in found]
    finally:
        tracer.remove()
    spans = tracer.spans

    # the same trajectories calls untraced, after the traced pass warmed
    # the process: the difference is the tracing overhead
    traced_s = sum(tracing.dur(s) for s in spans if s["name"] == "cli.main"
                   and s["workload"] == "trajectories")
    plain_s = 0.0
    for inv in invocations("trajectories"):
        wall, _, _ = run_inprocess(cli, inv.argv(work, work / "plain.csv"))
        plain_s += wall

    traj = load_config(work / "trajectories.yaml")
    traj_det = load_config(work / "trajectories-detuned.yaml")
    own_cfg = load_config(work / own[0].config)
    samples = probes.rhs_probes(traj, traj_det)
    samples["integrator.step_us"] = probes.step_probe(traj)
    table, table_cfg = tracing.largest_table(spans, workload)
    samples["output.render_csv_us_per_row"] = probes.render_probe(
        table, table_cfg, "csv", work / "render.out")
    samples["output.render_json_us_per_row"] = probes.render_probe(
        table, table_cfg, "json", work / "render.out")
    (work / "fanout.yaml").write_text(
        "sweep:\n  axes:\n    - {name: gamma_over_j, start: 1.0, stop: 2.0, count: 2}\n")
    fan1, fan2 = probes.fanout_probe(work / "fanout.yaml")
    samples["sweeps.fanout_start_ms.workers1"] = fan1
    samples["sweeps.fanout_start_ms.workers2"] = fan2
    pole_err, pole_err_at, pole_missed = probes.pole_rel_err(
        tracing.pole_cells(spans, workload), own_cfg)

    m = {f"cli.{inv.name}.wall_s": (walls[inv.name], "s") for _, inv in everything}
    m["cli.import_s"] = (statistics.median(setup["import_s"]), "s")
    m["config.load_ms"] = (1e3 * statistics.median(setup["load_s"]), "ms")
    medians = {k: s.median for k, s in samples.items()}
    m.update(tracing.layer_metrics(spans, workload, medians))
    m["sweeps.fanout_start_ms"] = (fan2.median - fan1.median, "ms")
    for name in ("integrator.step_us", "reduced.rhs_z_us", "reduced.rhs_rct_us",
                 "liouville.rhs_rwa_us", "liouville.rhs_rwa_detuned_us",
                 "liouville.rhs_lab_us", "output.render_csv_us_per_row",
                 "output.render_json_us_per_row"):
        m[name] = (medians[name], "us")
    m["optimal.pole_rel_err"] = (pole_err, "1")
    m["optimal.pole_missed"] = (len(pole_missed), "count")
    counters = output_counters(own, texts)
    m["output.bytes"] = (sum(c["bytes"] for c in counters.values()), "bytes")
    m["tracing.overhead_share"] = (traced_s / plain_s - 1.0, "1")

    exact = {k: v for k, (v, unit) in sorted(m.items()) if unit in ("count", "bytes")}
    repeat = repeat_check(workload, seed, tiny, exact)
    if repeat is not None:
        attempted += 1
        if repeat:
            failed += 1
            failures.append("work counters differ from an earlier run of this "
                            f"seed on the same source: {repeat}")

    ix = tracing.SpanIndex(spans)
    cells = ix.cells(workload)
    slowest = max(cells, key=tracing.dur) if cells else None
    evals = sum(c["attrs"].get("n_eval", 0) for c in cells)
    report = {
        "setup": setup,
        "probes": {k: vars(s) for k, s in samples.items()},
        "counters": {"outputs": counters, "exact": exact},
        "slowest_cell": None if slowest is None else {
            "name": slowest["name"], "invocation": slowest["invocation"],
            "attrs": {k: v for k, v in slowest["attrs"].items() if not k.startswith("_")},
            "ms": 1e3 * tracing.dur(slowest),
            "share_of_cell_n_eval": slowest["attrs"].get("n_eval", 0) / evals if evals else None},
        "pole_rel_err_at_gamma_over_j": pole_err_at,
        "pole_missed_at_gamma_over_j": pole_missed,
        "tracing_overhead_s": traced_s - plain_s,
        "unwrapped": tracer.missing,
        "failures": failures,
    }
    STATE.joinpath("spans").mkdir(parents=True, exist_ok=True)
    tracer.dump(STATE / "spans" / f"{workload}-s{seed}{'-tiny' if tiny else ''}.json")
    return m, attempted, failed, report


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def repeat_check(workload: str, seed: int, tiny: bool, exact: dict) -> str | None:
    """Compare the exact counters with those an earlier run of the same
    seed on the same source stored.  None when there is no earlier run,
    '' when they repeat, else the first difference."""
    path = STATE / "counters" / f"{workload}-s{seed}{'-tiny' if tiny else ''}-{source_hash()}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, sort_keys=True))
        return None
    before = json.loads(path.read_text())
    for key in sorted(set(before) | set(exact)):
        if before.get(key) != exact.get(key):
            return f"{key}: {before.get(key)} then {exact.get(key)}"
    return ""


# ====================================================================
# Entry point
# ====================================================================

def machine_facts() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "pyyaml": version("pyyaml"),
            "machine": platform.machine(), "loadavg_at_start": os.getloadavg()}


def preflight() -> None:
    if not (SRC / "tlspurify" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'tlspurify'}; run from "
                         "the root of a tlspurify checkout")
    sys.path.insert(0, str(SRC))
    import tlspurify

    if Path(tlspurify.__file__).resolve().parent != (SRC / "tlspurify").resolve():
        raise BenchError(f"imported tlspurify from {tlspurify.__file__}, "
                         f"not from {SRC}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny grids, for the benchmark's self-test only")
    return ap.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    start = perf_counter()
    deadline = start + DEADLINE_S
    try:
        preflight()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    facts = machine_facts()
    facts["reference_s_nominal"] = REFERENCE_S
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    try:
        if args.trace:
            m, attempted, failed, report = traced_run(
                args.workload, args.seed, work, deadline, tiny=args.tiny)
            declared = PER_LAYER
        else:
            values, attempted, failed, report = timed_run(
                args.workload, args.seed, args.seconds, work, deadline,
                tiny=args.tiny, min_rounds=1 if args.tiny else MIN_ROUNDS)
            m = {k: (values[k], unit) for k, unit in END_TO_END.items()}
            declared = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(declared) - set(m))
    metrics = {name: {"value": m[name][0] if name in m else 0.0, "unit": unit}
               for name, unit in declared.items()}
    report.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "tiny": args.tiny, "facts": facts,
                   "run_s": perf_counter() - start,
                   "error_rate": failed / attempted if attempted else 1.0,
                   "missing_metrics": missing, "metrics": metrics})
    STATE.joinpath("reports").mkdir(parents=True, exist_ok=True)
    report_path = STATE / "reports" / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))

    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for name, v in metrics.items():
        print(f"{name:45s} {v['value']:.6g} {v['unit']}")
    print(f"error_rate {report['error_rate']:.6g} ({failed}/{attempted}); "
          f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not missing,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

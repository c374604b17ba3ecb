"""In-memory spans around calls into the program's layers, recorded from
the benchmark's own files: nothing under src/ changes.

A span is a dict: id, name, parent id, start, end (perf_counter seconds),
workload and invocation of the CLI call it belongs to (the request id),
and attrs, the cell's parameters and the call's work counters.  Attrs
whose key starts with "_" hold live objects (parameters, tables) for the
probes; they are dropped when the spans are written out.

The tracer wraps module attributes, so it sees exactly the calls made
through that binding.  Work inside forked workers is invisible to it,
which is why the traced pass runs every command with --workers 1.
"""

from __future__ import annotations

import inspect
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

#: span names whose direct calls from a command driver count as its cells
CELLS = ("optimal.t_min_numeric", "optimal.classify_region", "optimal.delta_p",
         "reduced.simulate_z", "liouville.simulate")

#: pole-scan cells traced one by one, by gamma/J
CELL_RATIOS = {"g2_0": 2.0, "g3_9": 3.9, "g4_0": 4.0, "g4_1": 4.1}

#: command driver behind each invocation (simulate runs four times)
DRIVERS = {"scan-gamma": "scan_gamma", "scan-beta": "scan_beta",
           "region-map": "region_map", "coherence-map": "coherence_map",
           "purity-trace": "purity_trace", "verify": "verify_table",
           "simulate-rwa": "simulate_trace",
           "simulate-rwa-detuned": "simulate_trace",
           "simulate-lab": "simulate_trace",
           "simulate-lab-detuned": "simulate_trace"}

#: integration flows and the RHS probe that prices one evaluation of each;
#: the lab RHS does the same work for any constant drive
FLOW_PROBES = {"rwa": "liouville.rhs_rwa_us",
               "rwa-detuned": "liouville.rhs_rwa_detuned_us",
               "lab": "liouville.rhs_lab_us",
               "lab-detuned": "liouville.rhs_lab_us",
               "z": "reduced.rhs_z_us", "rct": "reduced.rhs_rct_us"}


def _stats(stats) -> dict:
    return {"n_eval": stats.n_eval, "accepted": stats.accepted,
            "rejected": stats.rejected}


def _params(p) -> dict:
    return {"J": p.J, "gamma": p.gamma, "beta": p.beta, "kappa": p.kappa,
            "g": p.gamma / p.J if p.J > 0.0 else None, "_params": p}


def _drive_detuning(drive) -> float | None:
    if drive is None:
        return 0.0
    return getattr(drive, "detuning", None)


_DESCRIBE = {
    "optimal.t_min_numeric": lambda a, r: {
        **_params(a["params"]), "xi": a.get("xi", 0.0), "status": r.status,
        **_stats(r.stats)},
    "optimal.classify_region": lambda a, r: {
        **_params(a["params"]), "xi": a["xi"], "label": r},
    "optimal.delta_p": lambda a, r: {
        "xi": a["xi"], "mu": a["mu"], "status": r.status},
    "liouville.simulate": lambda a, r: {
        "frame": a.get("frame", "rwa"),
        "detuning": _drive_detuning(a.get("drive")), **_stats(r.stats)},
    "reduced.simulate_z": lambda a, r: _stats(r.stats),
    "integrator.integrate": lambda a, r: {
        "dim": len(a["y0"]), **_stats(r.stats)},
    "output.write_table": lambda a, r: {
        "command": a["table"].command, "rows": len(a["table"].rows),
        "_table": a["table"], "_cfg": a["cfg"]},
}


def targets():
    """(module, attribute, span name) of every wrapped entry point."""
    from tlspurify import cli, liouville, optimal, output, reduced, sweeps, verify

    return [
        (sweeps, "t_min_numeric", "optimal.t_min_numeric"),
        (sweeps, "classify_region", "optimal.classify_region"),
        (sweeps, "delta_p", "optimal.delta_p"),
        (sweeps, "simulate", "liouville.simulate"),
        (verify, "simulate", "liouville.simulate"),
        (sweeps, "simulate_z", "reduced.simulate_z"),
        (optimal, "simulate_z", "reduced.simulate_z"),
        (sweeps, "mu_max", "model.mu_max"),
        (sweeps, "run_suite", "verify.run_suite"),
        (cli, "load_config", "config.load_config"),
        (cli, "write_table", "output.write_table"),
        (output, "write_table", "output.write_table"),
        (reduced, "integrate", "integrator.integrate"),
        (liouville, "integrate", "integrator.integrate"),
        (verify, "integrate", "integrator.integrate"),
        (optimal, "integrate", "integrator.integrate"),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._request = (None, None)

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({
            "id": sid, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self._request[0], "invocation": self._request[1],
            "start": perf_counter(), "end": None, "attrs": {}})
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, workload: str, invocation: str):
        """Root span of one CLI call; every span inside carries its ids."""
        self._request = (workload, invocation)
        sid = self._open("cli.main")
        try:
            yield self.spans[sid]
        finally:
            self._close(sid)
            self._request = (None, None)

    def install(self) -> None:
        for module, attr, name in targets():
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self._wrap(orig, name))
            self._patched.append((module, attr, orig))

    def remove(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _wrap(self, orig, name: str):
        sig = inspect.signature(orig)
        describe = _DESCRIBE.get(name)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(sid)
            if describe is not None:
                bound = sig.bind(*args, **kwargs)
                self.spans[sid]["attrs"] = describe(bound.arguments, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        plain = [{**s, "attrs": {k: v for k, v in s["attrs"].items()
                                 if not k.startswith("_")}}
                 for s in self.spans]
        path.write_text(json.dumps(plain, separators=(",", ":")))


# ====================================================================
# Per-layer numbers from the spans
# ====================================================================

def dur(span: dict) -> float:
    return span["end"] - span["start"]


def _mean(xs: list[float]) -> float:
    return statistics.fmean(xs) if xs else 0.0


class SpanIndex:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def named(self, name: str, **match) -> list[dict]:
        return [s for s in self.spans if s["name"] == name
                and all(s[k] == v for k, v in match.items())]

    def self_time(self, span: dict) -> float:
        return dur(span) - sum(dur(c) for c in self.children.get(span["id"], ()))

    def cells(self, workload: str) -> list[dict]:
        return [c for root in self.named("cli.main", workload=workload)
                for c in self.children.get(root["id"], ()) if c["name"] in CELLS]

    def flow(self, span: dict) -> str:
        """Which right-hand side an integrate span ran."""
        dim = span["attrs"].get("dim")
        if dim == 3:
            return "rct"
        if dim == 8:
            return "z"
        sid = span["parent"]
        while sid is not None:
            up = self.spans[sid]
            if up["name"] == "liouville.simulate":
                det = up["attrs"].get("detuning")
                return up["attrs"]["frame"] + ("" if det == 0.0 else "-detuned")
            sid = up["parent"]
        return "unknown"


def layer_metrics(spans: list[dict], workload: str, probes: dict[str, float]
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics that come from the traced pass.  Totals are for the
    run's own workload; metrics named after one cell, invocation or flow
    come from the workload that runs it."""
    ix = SpanIndex(spans)
    m: dict[str, tuple[float, str]] = {}

    drivers: dict[str, list[float]] = {}
    for root in ix.named("cli.main"):
        drivers.setdefault(DRIVERS[root["invocation"]], []).append(
            ix.self_time(root))
    for driver in sorted(set(DRIVERS.values())):
        m[f"sweeps.{driver}.self_ms"] = (1e3 * _mean(drivers.get(driver, [])), "ms")
    cells = [dur(c) for c in ix.cells(workload)]
    m["sweeps.slowest_cell_share"] = (max(cells) / sum(cells) if cells else 0.0, "1")

    tmin = ix.named("optimal.t_min_numeric")
    for label, ratio in CELL_RATIOS.items():
        hit = [s for s in tmin if s["invocation"] == "scan-gamma"
               and s["attrs"]["g"] is not None
               and abs(s["attrs"]["g"] - ratio) < 1e-9]
        m[f"optimal.cell_ms.{label}"] = (1e3 * sum(map(dur, hit)), "ms")
        for key in ("n_eval", "accepted", "rejected"):
            m[f"optimal.cell_ms.{label}.{key}"] = (
                sum(s["attrs"][key] for s in hit), "count")
    for key in ("n_eval", "accepted", "rejected"):
        m[f"optimal.t_min_numeric.{key}"] = (
            sum(s["attrs"][key] for s in tmin if s["workload"] == workload), "count")

    regions = ix.named("optimal.classify_region")
    m["optimal.classify_region.us_per_cell"] = (1e6 * _mean([dur(s) for s in regions]), "us")
    for label in "ABCU":
        m[f"optimal.region.{label}"] = (
            sum(s["attrs"]["label"] == label for s in regions), "count")

    dps = ix.named("optimal.delta_p")
    m["optimal.delta_p.ms_per_cell"] = (1e3 * _mean([dur(s) for s in dps]), "ms")
    m["optimal.delta_p.sample_ms"] = (1e3 * _mean([
        dur(s) - sum(dur(c) for c in ix.children.get(s["id"], ())
                     if c["name"] == "reduced.simulate_z") for s in dps]), "ms")

    ints = ix.named("integrator.integrate")
    for flow, probe in FLOW_PROBES.items():
        mine = [s for s in ints if ix.flow(s) == flow]
        evals = sum(s["attrs"]["n_eval"] for s in mine)
        per_eval = 1e6 * sum(map(dur, mine)) / evals if evals else 0.0
        m[f"integrator.self_us_per_eval.{flow}"] = (
            per_eval - probes[probe] if evals else 0.0, "us")
    for key in ("n_eval", "accepted", "rejected"):
        m[f"integrator.{key}"] = (
            sum(s["attrs"][key] for s in ints if s["workload"] == workload), "count")
    cmap = [s for s in ints if s["invocation"] == "coherence-map"]
    busy = sum(map(dur, cmap))
    rhs = 1e-6 * probes["reduced.rhs_z_us"] * sum(s["attrs"]["n_eval"] for s in cmap)
    m["integrator.self_share.coherence-map"] = (1.0 - rhs / busy if busy else 0.0, "1")

    for s in ix.named("liouville.simulate"):
        if s["parent"] is not None and ix.spans[s["parent"]]["name"] == "cli.main":
            kind = "resonant" if s["attrs"]["detuning"] == 0.0 else "detuned"
            m[f"liouville.simulate_ms.{s['attrs']['frame']}-{kind}"] = (1e3 * dur(s), "ms")
    m["model.mu_max_ms"] = (1e3 * _mean([dur(s) for s in ix.named("model.mu_max")]), "ms")
    m["verify.run_suite_ms"] = (1e3 * sum(map(dur, ix.named("verify.run_suite"))), "ms")
    return m


def largest_table(spans: list[dict], workload: str):
    """(table, cfg) of the biggest table the workload rendered."""
    tables = [s for s in spans if s["name"] == "output.write_table"
              and s["workload"] == workload]
    best = max(tables, key=lambda s: s["attrs"]["rows"])
    return best["attrs"]["_table"], best["attrs"]["_cfg"]


def pole_cells(spans: list[dict], workload: str) -> list:
    """Distinct model parameters of the workload's pole-time and region
    cells, in first-seen order."""
    seen = {}
    for s in spans:
        if s["workload"] == workload and s["name"] in (
                "optimal.t_min_numeric", "optimal.classify_region"):
            p = s["attrs"]["_params"]
            seen.setdefault(p, p)
    return list(seen)

"""Output checks.  Each returns a list of failure messages; an invocation
with any failure counts as failed in the run's error rate.

The checks recompute what they can from the program's public functions
(is_divergent, initial_spherical, stall_cosine) rather than from stored
answers, so they hold for every seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

#: the README's bound on the rwa-vs-lab purity gap at weak coupling
FRAME_GAP = 0.01
REGION_LABELS = frozenset("ABCU")


@dataclass
class Output:
    """One parsed CSV table."""

    meta: dict[str, str] = field(default_factory=dict)
    columns: list[str] = field(default_factory=list)
    rows: list[list[str]] = field(default_factory=list)

    def col(self, name: str) -> list[str]:
        k = self.columns.index(name)
        return [row[k] for row in self.rows]


def parse_csv(text: str) -> Output:
    """Split the commented header from the table; raises ValueError on a
    table that is not rectangular."""
    out = Output()
    body = []
    for line in text.splitlines():
        if line.startswith("# meta "):
            key, _, value = line[len("# meta "):].partition(" = ")
            out.meta[key] = value
        elif not line.startswith("#"):
            body.append(line)
    table = list(csv.reader(body))
    if not table:
        raise ValueError("no header line")
    out.columns, out.rows = table[0], table[1:]
    for i, row in enumerate(out.rows):
        if len(row) != len(out.columns):
            raise ValueError(f"row {i} has {len(row)} cells, header has "
                             f"{len(out.columns)}")
    return out


def stderr_errors(text: str) -> list[str]:
    """Error objects the CLI wrote to stderr."""
    found = []
    for line in text.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "code" in obj:
            found.append(f"error object on stderr: {line.strip()}")
    return found


def _num(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _pole_scan(out: Output, J: float) -> list[str]:
    from tlspurify.optimal import is_divergent

    bad = []
    gammas = out.col("gamma")
    bare = out.col("t_over_t0_uncorrelated")
    corr = out.col("t_over_t0_correlated")
    for i, (g, b, c) in enumerate(zip(gammas, bare, corr)):
        gamma = float(g)
        if (b == "divergent") != is_divergent(J, gamma):
            bad.append(f"row {i}: bare cell {b!r} but is_divergent = "
                       f"{is_divergent(J, gamma)} at gamma = {gamma!r}")
        elif b != "divergent" and _num(b) is None:
            bad.append(f"row {i}: bare cell {b!r} is not a number")
        if c != "divergent" and _num(c) is None:
            bad.append(f"row {i}: correlated cell {c!r} is not a number")
        elif _num(b) is not None and _num(c) is not None and _num(c) > _num(b):
            bad.append(f"row {i}: correlated {c} above bare {b}")
    return bad


def _region_map(out: Output, cfg) -> list[str]:
    from tlspurify.model import ModelParams
    from tlspurify.optimal import initial_spherical, stall_cosine

    bad = []
    beta, kappa = float(out.meta["beta"]), float(out.meta["kappa"])
    for i, (j, xi, label) in enumerate(zip(out.col("J"), out.col("xi"),
                                           out.col("region"))):
        if label not in REGION_LABELS:
            bad.append(f"row {i}: label {label!r} not in A/B/C/U")
            continue
        p = ModelParams(omega_q=cfg.omega_q, omega_tls=cfg.omega_tls,
                        beta=beta, J=float(j), kappa=kappa)
        r0, c0, _ = initial_spherical(p, float(xi))
        blocked = stall_cosine(p, r0, c0) <= 1.0
        if (label == "A") != blocked:
            bad.append(f"row {i}: label {label} but stall_cosine(t=0) <= 1 "
                       f"is {blocked}")
    return bad


def _verify(out: Output) -> list[str]:
    bad = []
    if out.meta.get("all_passed") != "true":
        bad.append(f"verify all_passed = {out.meta.get('all_passed')!r}")
    if not out.rows:
        bad.append("verify reported no checks")
    failed = [n for n, p in zip(out.col("check"), out.col("passed"))
              if p != "true"]
    if failed:
        bad.append(f"verify checks failed: {failed}")
    return bad


def check_invocation(inv, out_text: str | None, rc, stderr: str,
                     rows: dict[str, int], config_path: Path) -> list[str]:
    """All single-output checks of one invocation."""
    from tlspurify.config import load_config

    bad = []
    if rc != 0:
        bad.append(f"exit code {rc!r}")
    bad += stderr_errors(stderr)
    if out_text is None:
        return bad + ["no output file"]
    try:
        out = parse_csv(out_text)
    except ValueError as exc:
        return bad + [f"output does not parse: {exc}"]
    want = rows.get(inv.command)
    if want is not None and len(out.rows) != want:
        bad.append(f"{len(out.rows)} rows, grid has {want}")
    cfg = load_config(config_path)
    try:
        if inv.command in ("scan-gamma", "scan-beta"):
            bad += _pole_scan(out, cfg.J)
        elif inv.command == "region-map":
            bad += _region_map(out, cfg)
        elif inv.command == "verify":
            bad += _verify(out)
    except (KeyError, ValueError) as exc:
        bad.append(f"output lacks an expected field: {exc!r}")
    return bad


def check_frames(rwa_text: str, lab_text: str) -> list[str]:
    """The resonant rwa and lab purity traces agree to FRAME_GAP."""
    try:
        rwa, lab = parse_csv(rwa_text), parse_csv(lab_text)
        a = [float(v) for v in rwa.col("purity_qubit")]
        b = [float(v) for v in lab.col("purity_qubit")]
    except (ValueError, KeyError) as exc:
        return [f"frame check cannot read the traces: {exc!r}"]
    if len(a) != len(b):
        return [f"rwa has {len(a)} samples, lab has {len(b)}"]
    gap = max(abs(x - y) for x, y in zip(a, b))
    return [] if gap < FRAME_GAP else [f"rwa/lab purity gap {gap:.3g} >= {FRAME_GAP}"]


def region_counts(text: str) -> dict[str, int]:
    labels = parse_csv(text).col("region")
    return {k: labels.count(k) for k in sorted(REGION_LABELS)}

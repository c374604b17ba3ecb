"""Workload definitions: seed -> YAML configs -> CLI invocations.

The program only ever sees the generated YAML files and the argv below.
Seed 0 writes configs without a model key, so every command runs at the
README defaults (the detuned runs add drive.epsilon = 1.02).  Other seeds
draw the model parameters from narrow bands around those defaults.  The
bands keep each workload's character:

* pole-scan: J within 2 %, beta and kappa within 3 %.  The gamma/J axis is
  never drawn, so the grid always holds 3.9, exactly 4.0, and 4.1, and the
  4.0 cell keeps running to the horizon (it starts to arrive only near
  beta = 0.8).
* stall-map: the README defaults at every seed (a hot bath, beta = 0.1,
  region-map's default).  Its cost is set by the few cells next to the
  critical line gamma = 4J that end undecided ("U") at the horizon, each
  about 0.7 s of a 2.5 s map.  Whether a cell there ends "U" or "B" flips
  under a 0.5 % change of kappa or beta: over kappa in [0.097, 0.103]
  the count ran from 2 to 5 and the in-process time from 2.5 to 4.8 s.
  A drawn parameter would make the seed, not the program, set the time.
* trajectories: J within 1 %, beta and kappa within 3 %; the detuned runs
  draw drive.epsilon from [1.01, 1.03] (1.02 at seed 0).  The detuned runs
  end at a horizon proportional to 1/J, hence J's narrower band.

The bands are narrow on purpose: every seed must do nearly the same amount
of work, or the run-to-run spread of the wall times would measure the
seed rather than the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("pole-scan", "stall-map", "trajectories")

#: Keys added by the tiny variant that the self-test runs: every grid
#: shrinks, and the horizon drops so that the gamma/J = 4.0 cell, still on
#: the grid, ends early.
_TINY = {"run": {"horizon": 2.0, "samples": 21}, "sweep": {"mu_count": 2}}
_TINY_AXES = {
    "pole-scan": [("gamma_over_j", 3.9, 4.1, 3), ("beta", 0.5, 2.0, 4)],
    "stall-map": [("j_frac", 0.6, 1.05, 4), ("xi_frac", 0.0, 1.0, 4)],
    "trajectories": [("xi_frac", 0.0, 1.0, 3), ("mu_frac", 0.0, 1.0, 3)],
}


def grid_rows(tiny: bool = False) -> dict[str, int]:
    """Rows each command's table must have (verify has no fixed grid)."""
    if tiny:
        return {"scan-gamma": 3, "scan-beta": 4, "region-map": 16,
                "coherence-map": 9, "simulate": 21, "purity-trace": 2 * 2 * 21}
    return {"scan-gamma": 45, "scan-beta": 80, "region-map": 50 * 50,
            "coherence-map": 21 * 21, "simulate": 601,
            "purity-trace": 2 * 5 * 601}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: a name unique among all workloads, the command, the
    config file it reads, and its other flags."""

    name: str
    command: str
    config: str
    flags: tuple[str, ...]

    def argv(self, workdir: Path, out: Path, *,
             workers: int | None = None) -> list[str]:
        flags = list(self.flags)
        if workers is not None:
            flags[flags.index("--workers") + 1] = str(workers)
        return [self.command, "--config", str(workdir / self.config),
                *flags, "--out", str(out)]


def _band(rng: random.Random, centre: float, rel: float) -> float:
    return rng.uniform(centre * (1.0 - rel), centre * (1.0 + rel))


def _yaml(sections: dict) -> str:
    lines = ["# generated by perfbench/workloads.py"]
    for section, keys in sections.items():
        lines.append(f"{section}:")
        for k, v in keys.items():
            if k == "axes":
                lines.append("  axes:")
                lines += [f"    - {{name: {n}, start: {a!r}, stop: {b!r}, "
                          f"count: {c}}}" for n, a, b, c in v]
            else:
                lines.append(f"  {k}: {v!r}")
    return "\n".join(lines) + "\n"


def draw(workload: str, seed: int, *, tiny: bool = False) -> dict[str, str]:
    """YAML text of each config file the workload reads, by file name."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    j_band = 0.02 if workload == "pole-scan" else 0.01
    model = {"J": _band(rng, 0.1, j_band), "beta": _band(rng, 1.0, 0.03),
             "kappa": _band(rng, 0.1, 0.03)}
    base: dict = {} if seed == 0 or workload == "stall-map" else {"model": model}
    if tiny:
        base.update(_TINY)
        base["sweep"] = {**_TINY["sweep"], "axes": _TINY_AXES[workload]}
    if workload != "trajectories":
        return {f"{workload}.yaml": _yaml(base)}
    epsilon = 1.02 if seed == 0 else rng.uniform(1.01, 1.03)
    return {"trajectories.yaml": _yaml(base),
            "trajectories-detuned.yaml":
                _yaml({**base, "drive": {"epsilon": epsilon}})}


def invocations(workload: str) -> list[Invocation]:
    """The workload's CLI calls, in the order they run."""
    if workload == "pole-scan":
        w2 = ("--workers", "2")
        return [Invocation("scan-gamma", "scan-gamma", "pole-scan.yaml", w2),
                Invocation("scan-beta", "scan-beta", "pole-scan.yaml", w2)]
    if workload == "stall-map":
        return [Invocation("region-map", "region-map", "stall-map.yaml",
                           ("--workers", "2"))]
    if workload != "trajectories":
        raise ValueError(f"unknown workload {workload!r}")
    base, det = "trajectories.yaml", "trajectories-detuned.yaml"
    w1 = ("--workers", "1")
    return [
        Invocation("simulate-rwa", "simulate", base, ("--frame", "rwa", *w1)),
        Invocation("simulate-rwa-detuned", "simulate", det, ("--frame", "rwa", *w1)),
        Invocation("simulate-lab", "simulate", base, ("--frame", "lab", *w1)),
        Invocation("simulate-lab-detuned", "simulate", det, ("--frame", "lab", *w1)),
        Invocation("coherence-map", "coherence-map", base, w1),
        Invocation("purity-trace", "purity-trace", base, w1),
        Invocation("verify", "verify", base, w1),
    ]


def write_configs(workload: str, seed: int, workdir: Path, *,
                  tiny: bool = False) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in draw(workload, seed, tiny=tiny).items():
        (workdir / name).write_text(text)

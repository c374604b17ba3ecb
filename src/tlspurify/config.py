"""Run configuration: YAML schema, validation, and CLI-override plumbing.

Schema (all keys optional; defaults shown):

    model:
      omega_q: 1.0        # qubit splitting (sets the unit system)
      omega_tls: 3.0      # defect splitting; must exceed omega_q
      beta: 1.0           # inverse bath temperature
      J: 0.1              # qubit-defect coupling
      kappa: 0.1          # bare defect-bath rate
    state:
      mu_q: 0.0           # real qubit coherence
      nu_q: 0.0           # imaginary qubit coherence
      xi_re: 0.0          # in-phase cross coherence
      xi_im: 0.0          # quadrature cross coherence
    drive:
      epsilon: null       # null = resonant; number = constant drive amplitude
    run:
      frame: rwa          # rwa | lab
      abs_tol: 1.0e-10
      rel_tol: 1.0e-10
      horizon: 20.0       # give-up time in units of the lossless pole time,
                          # at most 1000
      samples: 601        # sample count for trace outputs, at most 100000
      workers: 1
      out: null           # null = stdout
      format: csv         # csv | json
    sweep:
      mu_count: 5         # coherence-grid size for trace commands
      axes: []            # [{name, start, stop, count, scale}]

Axis names are the sweep-domain coordinates: gamma_over_j and beta are
absolute; xi_frac, mu_frac, and j_frac are fractions of the physical
ceilings (xi_max, mu_max at zero cross coherence, and the smallest
pole-reaching coupling, respectively).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .drive import ConstantDrive, Drive, resonant
from .model import InitialStateSpec, ModelParams

__all__ = ["ConfigError", "SweepAxis", "RunConfig", "load_config",
           "AXIS_NAMES"]

AXIS_NAMES = ("gamma_over_j", "beta", "xi_frac", "mu_frac", "j_frac")

#: upper bound on run.samples.  A trace holds one row per sample (19
#: floats for simulate, 2 x mu_count traces for purity-trace), and the
#: samples are evaluated as one array, so an unbounded count turns into an
#: allocation of many GiB; 100000 rows is far past any plot
MAX_SAMPLES = 100_000

#: upper bound on run.horizon.  Below gamma = 4J the pole-time scan keeps
#: its grid spacing, so its work grows linearly with the horizon: at 1000
#: one gamma = 4J cell scans 25,600 intervals (26,001 closed-form
#: evaluations, about 45 ms alone or 1.7 ms in a batch of 100 on a 2-core
#: x86_64 host), against 512 at the default 20
MAX_HORIZON = 1000.0

_DEFAULTS = {
    "model": {"omega_q": 1.0, "omega_tls": 3.0, "beta": 1.0,
              "J": 0.1, "kappa": 0.1},
    "state": {"mu_q": 0.0, "nu_q": 0.0, "xi_re": 0.0, "xi_im": 0.0},
    "drive": {"epsilon": None},
    "run": {"frame": "rwa", "abs_tol": 1e-10, "rel_tol": 1e-10,
            "horizon": 20.0, "samples": 601, "workers": 1,
            "out": None, "format": "csv"},
    "sweep": {"mu_count": 5, "axes": []},
}


class ConfigError(Exception):
    """Invalid configuration; carries the machine-readable error fields."""

    def __init__(self, code: str, message: str, parameter: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message
        self.parameter = parameter

    def to_json(self) -> str:
        return json.dumps({"code": self.code, "message": self.message,
                           "parameter": self.parameter})


def _want_number(value, key: str, *, minimum: float | None = None,
                 maximum: float | None = None,
                 allow_none: bool = False) -> float | None:
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("bad-value", f"{key} must be a number, got {value!r}",
                          key)
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError("bad-value", f"{key} must be finite, got {value!r}",
                          key)
    if minimum is not None and v < minimum:
        raise ConfigError("bad-value", f"{key} must be >= {minimum}, got {v}",
                          key)
    if maximum is not None and v > maximum:
        raise ConfigError("bad-value", f"{key} must be <= {maximum}, got {v}",
                          key)
    return v


def _want_horizon(value) -> float:
    return _want_number(value, "run.horizon", minimum=1.0,
                        maximum=MAX_HORIZON)


def _want_int(value, key: str, *, minimum: int,
              maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("bad-value", f"{key} must be an integer, got {value!r}",
                          key)
    if value < minimum:
        raise ConfigError("bad-value", f"{key} must be >= {minimum}, got {value}",
                          key)
    if maximum is not None and value > maximum:
        raise ConfigError("bad-value", f"{key} must be <= {maximum}, got {value}",
                          key)
    return value


def _want_choice(value, key: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError("bad-value",
                          f"{key} must be one of {', '.join(choices)}, "
                          f"got {value!r}", key)
    return value


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int
    scale: str = "linear"               # linear | log

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)

    @staticmethod
    def from_dict(raw: dict, where: str) -> "SweepAxis":
        if not isinstance(raw, dict):
            raise ConfigError("bad-value", f"{where} must be a mapping", where)
        extra = set(raw) - {"name", "start", "stop", "count", "scale"}
        if extra:
            raise ConfigError("unknown-key",
                              f"unknown axis key(s) {sorted(extra)}", where)
        name = raw.get("name")
        if name not in AXIS_NAMES:
            raise ConfigError("bad-value",
                              f"{where}.name must be one of "
                              f"{', '.join(AXIS_NAMES)}, got {name!r}",
                              f"{where}.name")
        start = _want_number(raw.get("start"), f"{where}.start")
        stop = _want_number(raw.get("stop"), f"{where}.stop")
        count = _want_int(raw.get("count", 2), f"{where}.count", minimum=2)
        scale = _want_choice(raw.get("scale", "linear"), f"{where}.scale",
                             ("linear", "log"))
        if scale == "log" and (start <= 0.0 or stop <= 0.0):
            raise ConfigError("bad-value",
                              f"{where}: log scale needs positive endpoints",
                              f"{where}.scale")
        return SweepAxis(name, start, stop, count, scale)


@dataclass
class RunConfig:
    # model
    omega_q: float = 1.0
    omega_tls: float = 3.0
    beta: float = 1.0
    J: float = 0.1
    kappa: float = 0.1
    # state
    mu_q: float = 0.0
    nu_q: float = 0.0
    xi_re: float = 0.0
    xi_im: float = 0.0
    # drive
    epsilon: float | None = None
    # run
    frame: str = "rwa"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    horizon: float = 20.0
    samples: int = 601
    workers: int = 1
    out: str | None = None
    format: str = "csv"
    # sweep
    mu_count: int = 5
    axes: tuple[SweepAxis, ...] = ()
    # keys the user set explicitly (dotted), for per-command defaulting
    explicit: frozenset = field(default_factory=frozenset)

    # ----------------------------------------------------------------
    def params(self) -> ModelParams:
        return ModelParams(omega_q=self.omega_q, omega_tls=self.omega_tls,
                           beta=self.beta, J=self.J, kappa=self.kappa)

    def state_spec(self) -> InitialStateSpec:
        return InitialStateSpec(mu_q=self.mu_q, nu_q=self.nu_q,
                                xi_re=self.xi_re, xi_im=self.xi_im)

    def drive(self) -> Drive:
        if self.epsilon is None:
            return resonant()
        return ConstantDrive(self.epsilon - (self.omega_tls - self.omega_q))

    def axis(self, name: str) -> SweepAxis | None:
        """The user-supplied axis with this name, if any."""
        for ax in self.axes:
            if ax.name == name:
                return ax
        return None

    def was_set(self, dotted: str) -> bool:
        return dotted in self.explicit

    def echo_lines(self) -> list[str]:
        """Sorted ``key = value`` lines describing the full configuration.

        Execution plumbing (worker count, output path) is excluded: it
        cannot change the computed content, and identical configs must
        yield byte-identical files whatever the fan-out.
        """
        flat: dict[str, object] = {
            "model.omega_q": self.omega_q, "model.omega_tls": self.omega_tls,
            "model.beta": self.beta, "model.J": self.J,
            "model.kappa": self.kappa,
            "state.mu_q": self.mu_q, "state.nu_q": self.nu_q,
            "state.xi_re": self.xi_re, "state.xi_im": self.xi_im,
            "drive.epsilon": self.epsilon,
            "run.frame": self.frame, "run.abs_tol": self.abs_tol,
            "run.rel_tol": self.rel_tol, "run.horizon": self.horizon,
            "run.samples": self.samples, "run.format": self.format,
            "sweep.mu_count": self.mu_count,
        }
        for k, ax in enumerate(self.axes):
            flat[f"sweep.axes[{k}]"] = (f"{ax.name} {ax.start!r}:{ax.stop!r}"
                                        f":{ax.count}:{ax.scale}")
        return [f"{key} = {flat[key]!r}" for key in sorted(flat)]

    def to_dict(self) -> dict:
        """Nested plain-data form (for the JSON document header)."""
        return {
            "model": {"omega_q": self.omega_q, "omega_tls": self.omega_tls,
                      "beta": self.beta, "J": self.J, "kappa": self.kappa},
            "state": {"mu_q": self.mu_q, "nu_q": self.nu_q,
                      "xi_re": self.xi_re, "xi_im": self.xi_im},
            "drive": {"epsilon": self.epsilon},
            "run": {"frame": self.frame, "abs_tol": self.abs_tol,
                    "rel_tol": self.rel_tol, "horizon": self.horizon,
                    "samples": self.samples, "format": self.format},
            "sweep": {"mu_count": self.mu_count,
                      "axes": [{"name": a.name, "start": a.start,
                                "stop": a.stop, "count": a.count,
                                "scale": a.scale} for a in self.axes]},
        }

    # ----------------------------------------------------------------
    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("bad-value", "config root must be a mapping", "")
        extra = set(raw) - set(_DEFAULTS)
        if extra:
            raise ConfigError("unknown-key",
                              f"unknown section(s) {sorted(extra)}",
                              sorted(extra)[0])
        explicit: set[str] = set()
        merged: dict[str, dict] = {}
        for section, defaults in _DEFAULTS.items():
            given = raw.get(section, {})
            if given is None:
                given = {}
            if not isinstance(given, dict):
                raise ConfigError("bad-value",
                                  f"section {section} must be a mapping",
                                  section)
            bad = set(given) - set(defaults)
            if bad:
                key = f"{section}.{sorted(bad)[0]}"
                raise ConfigError("unknown-key", f"unknown key {key}", key)
            merged[section] = {**defaults, **given}
            explicit |= {f"{section}.{k}" for k in given}

        m, s, d, r, w = (merged["model"], merged["state"], merged["drive"],
                         merged["run"], merged["sweep"])
        omega_q = _want_number(m["omega_q"], "model.omega_q")
        omega_tls = _want_number(m["omega_tls"], "model.omega_tls")
        if not 0.0 < omega_q < omega_tls:
            raise ConfigError("bad-value",
                              "need 0 < model.omega_q < model.omega_tls",
                              "model.omega_q")
        beta = _want_number(m["beta"], "model.beta", minimum=0.0)
        big_j = _want_number(m["J"], "model.J")
        kappa = _want_number(m["kappa"], "model.kappa", minimum=0.0)
        raw_axes = w["axes"] or []
        if not isinstance(raw_axes, list):
            raise ConfigError("bad-value", "sweep.axes must be a list",
                              "sweep.axes")
        axes = tuple(SweepAxis.from_dict(a, f"sweep.axes[{i}]")
                     for i, a in enumerate(raw_axes))
        return RunConfig(
            omega_q=omega_q, omega_tls=omega_tls, beta=beta, J=big_j,
            kappa=kappa,
            mu_q=_want_number(s["mu_q"], "state.mu_q"),
            nu_q=_want_number(s["nu_q"], "state.nu_q"),
            xi_re=_want_number(s["xi_re"], "state.xi_re"),
            xi_im=_want_number(s["xi_im"], "state.xi_im"),
            epsilon=_want_number(d["epsilon"], "drive.epsilon",
                                 allow_none=True),
            frame=_want_choice(r["frame"], "run.frame", ("rwa", "lab")),
            abs_tol=_want_number(r["abs_tol"], "run.abs_tol", minimum=0.0),
            rel_tol=_want_number(r["rel_tol"], "run.rel_tol", minimum=0.0),
            horizon=_want_horizon(r["horizon"]),
            samples=_want_int(r["samples"], "run.samples", minimum=2,
                              maximum=MAX_SAMPLES),
            workers=_want_int(r["workers"], "run.workers", minimum=1),
            out=r["out"] if r["out"] is None or isinstance(r["out"], str)
                else str(r["out"]),
            format=_want_choice(r["format"], "run.format", ("csv", "json")),
            mu_count=_want_int(w["mu_count"], "sweep.mu_count", minimum=2),
            axes=axes,
            explicit=frozenset(explicit),
        )

    def override(self, **kw) -> "RunConfig":
        """CLI-flag overrides; None values leave the config untouched."""
        changes = {k: v for k, v in kw.items() if v is not None}
        if not changes:
            return self
        if "horizon" in changes:
            changes["horizon"] = _want_horizon(changes["horizon"])
        cfg = replace(self, **changes)
        section = {"out": "run", "format": "run", "frame": "run",
                   "abs_tol": "run", "rel_tol": "run", "horizon": "run",
                   "workers": "run"}
        extra = {f"{section.get(k, 'run')}.{k}" for k in changes}
        return replace(cfg, explicit=self.explicit | frozenset(extra))


def load_config(path: str | Path | None) -> RunConfig:
    """Parse the YAML file (or return pure defaults for ``None``)."""
    if path is None:
        return RunConfig.from_dict({})
    p = Path(path)
    if not p.exists():
        raise ConfigError("missing-file", f"config file not found: {p}",
                          str(p))
    try:
        raw = yaml.safe_load(p.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError("parse-error", f"config is not valid YAML: {exc}",
                          str(p)) from None
    return RunConfig.from_dict(raw)

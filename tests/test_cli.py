"""End-to-end command-line behaviour: exit codes, flags, error objects."""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import tlspurify
from tlspurify import cli
from tlspurify.cli import build_parser, main
from tlspurify.config import AXIS_NAMES

# filled by the session fixture at the bottom of this module
_small_cfg_path = ""
_beta_cfg_path = ""


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# verify\n")
    assert "generator-trace-free,true," in out
    assert "coherence-gain-uncorrelated,true," in out


def test_simulate_to_file(tmp_path, capsys):
    f = tmp_path / "trace.csv"
    cfg = tmp_path / "run.yaml"
    cfg.write_text("run:\n  samples: 21\n  horizon: 2.0\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(f)]) == 0
    assert capsys.readouterr().out == ""
    lines = f.read_text().splitlines()
    assert lines[0] == "# simulate"
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[:3] == ["t", "purity_qubit", "purity_tls"]
    body = [l for l in lines if not l.startswith("#")]
    assert len(body) == 1 + 21


def test_json_format_flag(capsys):
    cfg_args = ["scan-beta", "--format", "json", "--horizon", "6"]
    assert main(cfg_args + ["--config", _beta_cfg_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "scan-beta"
    assert doc["columns"][0] == "beta"
    assert doc["config"]["run"]["format"] == "json"


def test_lab_frame_flag(capsys):
    assert main(["simulate", "--frame", "lab", "--horizon", "1",
                 "--config", _small_cfg_path]) == 0
    out = capsys.readouterr().out
    assert "# meta frame = lab" in out


def test_tol_flag_round_trip(capsys):
    assert main(["simulate", "--tol", "1e-8:1e-8", "--horizon", "1",
                 "--config", _small_cfg_path]) == 0
    out = capsys.readouterr().out
    assert "# run.abs_tol = 1e-08" in out
    assert "# run.rel_tol = 1e-08" in out


def test_bad_tol(capsys):
    assert main(["simulate", "--tol", "1e-8"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "bad-value"
    assert err["parameter"] == "--tol"
    assert main(["simulate", "--tol", "0:1e-8"]) == 2


def test_missing_config(capsys, tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "gone.yaml")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "missing-file"


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("model:\n  omega: 2.0\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "unknown-key"
    assert err["parameter"] == "model.omega"


def test_runtime_error_exit(capsys, tmp_path):
    cfg = tmp_path / "deep.yaml"
    cfg.write_text("model:\n  J: 0.02\n")       # gamma / J > 4: no pole
    assert main(["purity-trace", "--config", str(cfg)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "runtime-error"
    assert "pole" in err["message"]


_IMPORTS_OF_THE_SCANS = """
import json, os, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("tlspurify"))

import tlspurify.cli as cli
seen = {"import": loaded(), "yaml": "yaml" in sys.modules}
for command in ("scan-gamma", "scan-beta", "region-map"):
    assert cli.main([command, "--out", os.devnull]) == 0
seen["scans"] = loaded()
import tlspurify
seen["unresolved"] = [n for n in tlspurify.__all__
                      if getattr(tlspurify, n, None) is None]
print(json.dumps(seen))
"""


def test_commands_load_only_what_they_run():
    """In a fresh interpreter, importing the CLI loads no driver and no
    YAML parser, and the three pole-engine scans never load the
    integrator stack; every name of the package root still resolves."""
    src = str(Path(tlspurify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_OF_THE_SCANS],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout)
    assert seen["import"] == ["tlspurify", "tlspurify.cli", "tlspurify.config",
                              "tlspurify.model", "tlspurify.output"]
    assert not seen["yaml"]
    stack = {f"tlspurify.{m}" for m in
             ("integrator", "liouville", "reduced", "verify", "drive")}
    assert not stack & set(seen["scans"])
    assert seen["unresolved"] == []


_FLAT_THEN_QUOTED = """
import json, sys
import tlspurify.cli as cli
flat, quoted, out_flat, out_quoted = sys.argv[1:]
seen = {}
assert cli.main(["region-map", "--config", flat, "--out", out_flat]) == 0
seen["flat"] = "yaml" in sys.modules
assert cli.main(["region-map", "--config", quoted, "--out", out_quoted]) == 0
seen["quoted"] = "yaml" in sys.modules
print(json.dumps(seen))
"""


def test_flat_config_needs_no_yaml_parser(tmp_path):
    """In a fresh interpreter, region-map with a config in the flat layout
    leaves PyYAML unloaded; the same config with one value quoted loads
    it and writes the same bytes."""
    text = ("# run.yaml\nmodel:\n  J: 0.1\n  kappa: 0.05\nsweep:\n  axes:\n"
            "    - {name: gamma_over_j, start: 0.0, stop: 4.4, count: 45}\n"
            "run:\n  samples: 301\n")
    flat, quoted = tmp_path / "flat.yaml", tmp_path / "quoted.yaml"
    flat.write_text(text)
    quoted.write_text(text.replace("gamma_over_j", "'gamma_over_j'"))
    outs = tmp_path / "flat.csv", tmp_path / "quoted.csv"
    src = str(Path(tlspurify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FLAT_THEN_QUOTED, str(flat),
                           str(quoted), *map(str, outs)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == {"flat": False, "quoted": True}
    assert outs[0].read_bytes() == outs[1].read_bytes()


_EVERY_COMMAND = """
import os, sys
import tlspurify.cli as cli
for argv in (["scan-gamma"], ["scan-beta"], ["region-map"], ["simulate"],
             ["simulate", "--frame", "lab"], ["coherence-map"],
             ["purity-trace"], ["verify"]):
    assert cli.main([*argv, "--out", os.devnull]) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_no_command_imports_scipy():
    """scipy is a test dependency only: all seven commands, run in one
    fresh interpreter at their defaults, leave it unimported."""
    src = str(Path(tlspurify.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _EVERY_COMMAND],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[]"


# --------------------------------------------------------------------
# the process entry: python -m tlspurify.cli in a fresh interpreter
# --------------------------------------------------------------------

def _fresh(*argv: str) -> subprocess.CompletedProcess:
    """python -m tlspurify.cli argv in a fresh interpreter, which runs
    cli.entry: main, then the collector frozen before a normal exit."""
    src = str(Path(tlspurify.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "tlspurify.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fresh_stdout_matches_out_file(tmp_path, fmt):
    """The process still flushes stdout at exit: the table it prints is
    byte for byte the file --out writes."""
    path = tmp_path / f"scan.{fmt}"
    to_file = _fresh("scan-gamma", "--format", fmt, "--out", str(path))
    to_stdout = _fresh("scan-gamma", "--format", fmt)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert to_stdout.stdout == path.read_bytes()


def test_fresh_bad_config_exits_2_with_one_error_object(tmp_path):
    cfg = tmp_path / "samples.yaml"
    cfg.write_text("run:\n  samples: 1\n")
    proc = _fresh("simulate", "--config", str(cfg), "--out", os.devnull)
    assert proc.returncode == 2
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["parameter"] == "run.samples"


def test_fresh_runtime_error_exits_1(tmp_path):
    """A cold bath leaves purity-trace no pole to reach: exit 1 and a
    runtime-error object, not a traceback."""
    cfg = tmp_path / "cold.yaml"
    cfg.write_text("model: {beta: 100}\n")
    proc = _fresh("purity-trace", "--config", str(cfg), "--out", os.devnull)
    assert proc.returncode == 1
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["code"] == "runtime-error"


def test_fresh_help_exits_0():
    proc = _fresh("--help")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert b"region-map" in proc.stdout


def test_main_never_freezes_the_collector():
    """main is called many times in one process (the tests, in-process
    benchmarks); only the process entry may freeze."""
    assert main(["scan-gamma", "--out", os.devnull]) == 0
    assert main(["verify", "--out", os.devnull]) == 0
    assert gc.get_freeze_count() == 0


def test_entry_freezes_after_main_and_after_argparse_exits(monkeypatch,
                                                          capsys):
    """entry returns main's code, and it also freezes when argparse ends
    the run with SystemExit (--help, a usage error)."""
    try:
        monkeypatch.setattr(sys, "argv", ["tlspurify", "scan-gamma",
                                          "--out", os.devnull])
        assert cli.entry() == 0
        assert gc.get_freeze_count() > 0
        gc.unfreeze()
        monkeypatch.setattr(sys, "argv", ["tlspurify", "no-such-command"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    capsys.readouterr()


@pytest.mark.parametrize("command,frame,epsilon", [
    ("simulate", "rwa", None), ("simulate", "lab", None),
    ("simulate", "rwa", 1.02), ("simulate", "lab", 1.02),
    ("coherence-map", None, None), ("purity-trace", None, None)])
def test_tol_changes_no_exact_output(tmp_path, command, frame, epsilon):
    """Every run but verify's Runge-Kutta side is exact, so --tol changes
    no byte of its output but the two header lines that echo it."""
    cfg = tmp_path / "run.yaml"
    text = ("run:\n  samples: 11\n  horizon: 2.0\n"
            "sweep:\n  mu_count: 2\n  axes:\n"
            "    - {name: xi_frac, start: 0.0, stop: 1.0, count: 3}\n"
            "    - {name: mu_frac, start: 0.0, stop: 1.0, count: 3}\n")
    if epsilon is not None:
        text += f"drive:\n  epsilon: {epsilon}\n"
    cfg.write_text(text)
    frame_flag = ["--frame", frame] if frame else []
    bodies = []
    for tol in ("1e-10:1e-10", "1e-6:1e-6"):
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), "--tol", tol,
                     *frame_flag, "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        kept = [line for line in lines
                if not line.startswith(("# run.abs_tol", "# run.rel_tol"))]
        assert len(lines) - len(kept) == 2
        bodies.append("".join(kept))
    assert bodies[0] == bodies[1]


def test_runtime_error_from_driver(capsys, monkeypatch):
    """A RuntimeError deep in a run (say, step-size underflow in the
    integrator) ends as an error object and exit 1, not a traceback; so
    does an arithmetic fault, be it Python's or a numpy overflow, and an
    allocation numpy refuses outright."""
    def overflow(cfg):
        return np.exp(np.array([1e3]))

    for exc in (RuntimeError("step size underflow at t = 1.5"),
                OverflowError("math range error"),
                MemoryError("Unable to allocate 7.28 TiB"), None):
        def fail(cfg, exc=exc):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "scan-gamma",
                            overflow if exc is None else fail)
        assert main(["scan-gamma"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["code"] == "runtime-error"
        assert err["message"] == (str(exc) if exc is not None else
                                  "overflow encountered in exp")


@pytest.mark.parametrize("command", ["scan-gamma", "scan-beta",
                                     "coherence-map", "purity-trace",
                                     "verify"])
def test_uncoupled_model_is_a_config_error(capsys, tmp_path, command):
    """Without coupling there is no unit pi/(2J) for the pole times these
    commands report: model.J = 0 is refused up front."""
    cfg = tmp_path / "j0.yaml"
    cfg.write_text("model:\n  J: 0\n")
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["code"], err["parameter"]) == ("bad-value", "model.J")


@pytest.mark.parametrize("command", ["simulate", "region-map"])
def test_uncoupled_model_runs(capsys, tmp_path, command):
    """simulate and region-map need no pole-time unit (region-map sets J
    from its own axis), so they run at model.J = 0."""
    cfg = tmp_path / "j0.yaml"
    cfg.write_text("model:\n  J: 0\n"
                   "run:\n  samples: 5\n  horizon: 2.0\n"
                   "sweep:\n  axes:\n"
                   "    - {name: j_frac, start: 0.9, stop: 1.0, count: 2}\n"
                   "    - {name: xi_frac, start: 0.0, stop: 1.0, count: 2}\n")
    assert main([command, "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"# {command}\n")
    assert captured.err == ""


@pytest.mark.parametrize("command,axis,start,stop,key", [
    ("scan-beta", "beta", 0.0, 2.0, "start"),
    ("scan-gamma", "gamma_over_j", -1.0, 2.0, "start"),
    ("region-map", "j_frac", -0.5, 1.0, "start"),
    ("coherence-map", "xi_frac", 0.0, 3.0, "stop"),
    ("coherence-map", "mu_frac", -1.0, 1.0, "start"),
])
def test_out_of_range_axis_is_a_config_error(capsys, tmp_path, command, axis,
                                             start, stop, key):
    """An axis endpoint outside its name's domain is exit 2 naming the
    endpoint; the in-range edges of the domains run."""
    def run(name, lo, hi):
        cfg = tmp_path / "axis.yaml"
        cfg.write_text("run:\n  samples: 5\n  horizon: 2.0\n"
                       "sweep:\n  axes:\n"
                       f"    - {{name: {name}, start: {lo}, stop: {hi}, "
                       "count: 2}\n")
        return main([command, "--config", str(cfg)])

    assert run(axis, start, stop) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert (err["code"], err["parameter"]) == ("bad-value",
                                               f"sweep.axes[0].{key}")
    edge = {"beta": (1e-6, 2.0), "j_frac": (0.0, 1.0),
            "xi_frac": (0.0, 1.0)}.get(axis)
    if edge is not None:
        assert run(axis, *edge) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"# {command}\n")
        assert captured.err == ""


def test_flags_are_checked_by_the_table(capsys):
    """Every flag passes the range of the config key it sets, and the
    error names that key."""
    for flags, key in ((["--tol", "0:0"], "run.abs_tol"),
                       (["--tol", "1e-8:0"], "run.rel_tol"),
                       (["--workers", "0"], "run.workers"),
                       (["--horizon", "0.5"], "run.horizon")):
        assert main(["simulate", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert (err["code"], err["parameter"]) == ("bad-value", key)


def test_run_past_the_node_cap_is_a_runtime_error(capsys, tmp_path):
    """drive.epsilon: 1e6 is a number, and a detuning that large needs
    far more exact-propagation nodes than MAX_NODES: the run refuses."""
    cfg = tmp_path / "fast.yaml"
    cfg.write_text("drive:\n  epsilon: 1e6\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["code"] == "runtime-error"
    assert "MAX_NODES" in err["message"]


def test_tolerance_below_roundoff_is_a_runtime_error(capsys):
    """At rtol = atol = 1e-30 the Runge-Kutta steps shrink without end;
    the step budget ends the run with one error object."""
    assert main(["verify", "--tol", "1e-30:1e-30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["code"] == "runtime-error"
    assert "MAX_STEPS" in err["message"]


@pytest.mark.parametrize("kappa", [0.36, 0.362, 1.0])
def test_verify_near_and_past_the_critical_line(capsys, tmp_path, kappa):
    """kappa = 0.36 puts gamma/J at 3.977: every check runs and passes.
    At 0.362 and 1.0 (gamma >= 4J) the bare start never reaches the pole,
    so the coherence-gain check runs at gamma/J = 2 instead: the report
    still holds all 11 checks, and every one passes."""
    cfg = tmp_path / "kappa.yaml"
    cfg.write_text(f"model:\n  kappa: {kappa}\n")
    code = main(["verify", "--config", str(cfg), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["metadata"]["all_passed"] is True
    assert len(doc["rows"]) == 11
    assert doc["rows"][-1][0] == "coherence-gain-uncorrelated"


@pytest.mark.parametrize("beta", [100, 1000])
@pytest.mark.parametrize("command", ["simulate", "scan-gamma",
                                     "coherence-map", "verify"])
def test_cold_bath_never_tracebacks(capsys, tmp_path, beta, command):
    """In the cold limit n_occ -> 0 and the S1 radius vanishes; every
    command ends in a table or a JSON error object.  Only verify may
    refuse: the thermal start is the rest point, so the pole-time check
    has no finite residual, and the error names it."""
    cfg = tmp_path / "cold.yaml"
    cfg.write_text(
        f"model:\n  beta: {beta}\n"
        "run:\n  samples: 11\n  horizon: 2.0\n"
        "sweep:\n  axes:\n"
        "    - {name: gamma_over_j, start: 1.0, stop: 4.4, count: 3}\n"
        "    - {name: xi_frac, start: 0.0, stop: 1.0, count: 2}\n"
        "    - {name: mu_frac, start: 0.0, stop: 1.0, count: 2}\n")
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.startswith(f"# {command}\n")
        assert captured.err == ""
    else:
        assert (command, code) == ("verify", 1)
        err = json.loads(captured.err)
        assert err["code"] == "runtime-error"
        assert "pole-time-closed-form" in err["message"]


def test_command_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_lists_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("simulate", "scan-gamma", "scan-beta", "region-map",
                 "coherence-map", "purity-trace", "verify"):
        assert name in text


# --------------------------------------------------------------------
# shared tiny config files, written once per session
# --------------------------------------------------------------------

@pytest.fixture(scope="session", autouse=True)
def _write_shared_configs(tmp_path_factory):
    global _small_cfg_path, _beta_cfg_path
    d = tmp_path_factory.mktemp("cli-cfgs")
    small = d / "small.yaml"
    small.write_text("run:\n  samples: 11\n")
    _small_cfg_path = str(small)
    beta = d / "beta.yaml"
    beta.write_text(
        "run:\n  samples: 11\n"
        "sweep:\n  axes:\n"
        "    - {name: beta, start: 0.5, stop: 1.0, count: 3}\n")
    _beta_cfg_path = str(beta)
    yield


# --------------------------------------------------------------------
# the error contract under random configs
# --------------------------------------------------------------------

_ODD = st.one_of(
    st.none(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**30, 10**30),
    st.sampled_from([0, -0.0, 5e-324, 1e-308, 1e308, -1e308, 10**400]),
    st.sampled_from(["1e6", "0.1", "-3", ".5", "nan", "1_000", "0x1f", ""]),
    st.lists(st.integers(), max_size=2))


def _or_odd(usual):
    """Mostly usual values, now and then an odd one."""
    return st.integers(0, 7).flatmap(lambda k: _ODD if k == 0 else usual)


def _near(default: float):
    return _or_odd(st.floats(0.0, 4.0 * default))


_MODEL = {"omega_q": _near(1.0), "omega_tls": _near(3.0),
          "beta": _near(1.0), "J": _near(0.1), "kappa": _near(0.1)}
_STATE = {k: _or_odd(st.floats(-0.2, 0.2))
          for k in ("mu_q", "nu_q", "xi_re", "xi_im")}
_RUN = {"frame": _or_odd(st.sampled_from(["rwa", "lab", "dressed"])),
        "abs_tol": _or_odd(st.floats(1e-12, 1e-6)),
        "rel_tol": _or_odd(st.floats(1e-12, 1e-6)),
        "horizon": _or_odd(st.sampled_from([1.0, 2.0])),
        "samples": _or_odd(st.integers(2, 11)),
        # never more than 2 processes, valid or not
        "workers": st.sampled_from([1, 2, 0, -1, 1.5, "2", None, True]),
        "format": _or_odd(st.sampled_from(["csv", "json", "xml"]))}
_AXIS = st.fixed_dictionaries(
    {"name": _or_odd(st.sampled_from(AXIS_NAMES)),
     "start": _or_odd(st.floats(0.0, 1.0)),
     "stop": _or_odd(st.floats(0.5, 4.4))},
    optional={"count": st.sampled_from([2, 3, 1, 2.0, None, "3"]),
              "scale": st.sampled_from(["linear", "log", "cubic"]),
              "bogus": st.just(1)})


def _section(fields: dict):
    return _or_odd(st.fixed_dictionaries({}, optional=fields))


_CONFIG = st.fixed_dictionaries({}, optional={
    "model": _section(_MODEL), "state": _section(_STATE),
    "drive": _section({"epsilon": _or_odd(st.floats(0.5, 3.0))}),
    "run": _section(_RUN),
    "sweep": _section({"mu_count": _or_odd(st.integers(2, 3)),
                       "axes": _or_odd(st.lists(_AXIS, max_size=2))})})


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(["simulate", "scan-gamma", "scan-beta",
                                "region-map", "coherence-map",
                                "purity-trace", "verify"]),
       raw=_or_odd(_CONFIG))
def test_error_contract_holds_for_random_configs(command, raw):
    """Any YAML mapping ends in a table (exit 0), a run-time error (exit
    1) or a config error (exit 2); every failure leaves exactly one JSON
    error object on stderr, and nothing raises or warns.  verify may also
    exit 1 with its table and verify-failed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(raw))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path)])
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
        text = out.getvalue()
        assert text.startswith(f"# {command}\n") \
            or json.loads(text)["command"] == command
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert set(doc) == {"code", "message", "parameter"}
    expected = {1: {"runtime-error"}, 2: {"bad-value", "unknown-key"}}
    if command == "verify":
        expected[1].add("verify-failed")
    assert doc["code"] in expected[code]

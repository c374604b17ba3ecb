"""End-to-end command-line behaviour: exit codes, flags, error objects."""

from __future__ import annotations

import json

import pytest

from tlspurify import cli
from tlspurify.cli import build_parser, main

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


def test_runtime_error_from_driver(capsys, monkeypatch):
    """A RuntimeError deep in a run (say, step-size underflow in the
    integrator) ends as an error object and exit 1, not a traceback."""
    def underflow(cfg):
        raise RuntimeError("step size underflow at t = 1.5")

    monkeypatch.setitem(cli._COMMANDS, "scan-gamma", underflow)
    assert main(["scan-gamma"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["code"] == "runtime-error"
    assert err["message"] == "step size underflow at t = 1.5"


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

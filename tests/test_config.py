"""Configuration parsing, validation codes, and override plumbing."""

from __future__ import annotations

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from tlspurify.config import (AXIS_NAMES, MAX_HORIZON, MAX_SAMPLES,
                              ConfigError, RunConfig, SweepAxis, load_config)
from tlspurify.drive import ConstantDrive, resonant


def _err(raw) -> ConfigError:
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(raw)
    return exc.value


def test_defaults():
    cfg = load_config(None)
    assert cfg.omega_q == 1.0
    assert cfg.omega_tls == 3.0
    assert cfg.beta == 1.0
    assert cfg.J == 0.1
    assert cfg.kappa == 0.1
    assert cfg.epsilon is None
    assert cfg.frame == "rwa"
    assert cfg.samples == 601
    assert cfg.workers == 1
    assert cfg.format == "csv"
    assert cfg.mu_count == 5
    assert cfg.axes == ()
    assert cfg.explicit == frozenset()


def test_yaml_round_trip(tmp_path):
    p = tmp_path / "run.yaml"
    p.write_text(
        "model:\n  beta: 0.1\n  J: 0.05\n"
        "run:\n  samples: 101\n  format: json\n"
        "sweep:\n  axes:\n"
        "    - {name: xi_frac, start: 0.0, stop: 1.0, count: 7}\n"
    )
    cfg = load_config(p)
    assert cfg.beta == 0.1
    assert cfg.J == 0.05
    assert cfg.samples == 101
    assert cfg.format == "json"
    assert cfg.axes == (SweepAxis("xi_frac", 0.0, 1.0, 7, "linear"),)
    # explicit tracking knows exactly what the file touched
    assert cfg.was_set("model.beta")
    assert cfg.was_set("run.samples")
    assert not cfg.was_set("model.kappa")
    assert not cfg.was_set("run.frame")


def test_missing_and_invalid_files(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(tmp_path / "nope.yaml")
    assert exc.value.code == "missing-file"
    bad = tmp_path / "bad.yaml"
    for text in ("model: [unclosed\n",
                 "model: {J: " + "1" * 5000 + "}\n",   # past int()'s limit
                 "[" * 5000 + "]" * 5000 + "\n"):      # past the stack
        bad.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(bad)
        assert exc.value.code == "parse-error"


def test_unknown_keys():
    assert _err({"modle": {}}).code == "unknown-key"
    e = _err({"model": {"omega": 2.0}})
    assert e.code == "unknown-key"
    assert e.parameter == "model.omega"
    e = _err({"sweep": {"axes": [{"name": "beta", "start": 1, "stop": 2,
                                  "xcount": 3}]}})
    assert e.code == "unknown-key"
    # keys YAML reads as numbers, booleans or null are unknown too
    e = _err({1: {}, "model": {}, None: 2})
    assert (e.code, e.parameter) == ("unknown-key", "1")
    e = _err({"model": {True: 1.0, 2.5: 0.0}})
    assert (e.code, e.parameter) == ("unknown-key", "model.2.5")


def test_bad_values():
    assert _err({"model": {"beta": True}}).code == "bad-value"
    assert _err({"model": {"beta": "hot"}}).code == "bad-value"
    assert _err({"model": {"omega_q": 3.0, "omega_tls": 1.0}}).code == "bad-value"
    assert _err({"model": {"beta": -0.5}}).code == "bad-value"
    # every range, the model's included, names its dotted key
    for raw, key in (({"model": {"beta": 0}}, "model.beta"),
                     ({"model": {"J": -0.1}}, "model.J"),
                     ({"model": {"kappa": -1e-3}}, "model.kappa"),
                     ({"model": {"omega_q": 0.0}}, "model.omega_q"),
                     ({"model": {"omega_tls": 1.0}}, "model.omega_tls"),
                     ({"model": {"J": 10**400}}, "model.J"),
                     ({"run": {"abs_tol": 0}}, "run.abs_tol"),
                     ({"run": {"rel_tol": 0.0}}, "run.rel_tol"),
                     ({"run": {"workers": 0}}, "run.workers"),
                     ({"run": {"out": 5}}, "run.out"),
                     ({"state": {"mu_q": float("nan")}}, "state.mu_q")):
        e = _err(raw)
        assert (e.code, e.parameter) == ("bad-value", key), raw
    assert _err({"run": {"frame": "dressed"}}).code == "bad-value"
    assert _err({"run": {"samples": 1}}).code == "bad-value"
    too_many = _err({"run": {"samples": MAX_SAMPLES + 1}})
    assert (too_many.code, too_many.parameter) == ("bad-value", "run.samples")
    assert RunConfig.from_dict(
        {"run": {"samples": MAX_SAMPLES}}).samples == MAX_SAMPLES
    assert _err({"run": {"horizon": 0.5}}).code == "bad-value"
    too_long = _err({"run": {"horizon": MAX_HORIZON * 1.001}})
    assert (too_long.code, too_long.parameter) == ("bad-value", "run.horizon")
    assert RunConfig.from_dict(
        {"run": {"horizon": MAX_HORIZON}}).horizon == MAX_HORIZON
    with pytest.raises(ConfigError) as flag:
        RunConfig.from_dict({}).override(horizon=MAX_HORIZON * 1.001)
    assert (flag.value.code, flag.value.parameter) == ("bad-value",
                                                       "run.horizon")
    assert _err({"sweep": {"mu_count": 1}}).code == "bad-value"
    assert _err({"sweep": {"axes": "beta"}}).code == "bad-value"
    assert _err(
        {"sweep": {"axes": [{"name": "purity", "start": 0, "stop": 1,
                             "count": 3}]}}).code == "bad-value"
    assert _err(
        {"sweep": {"axes": [{"name": "beta", "start": 0.0, "stop": 1.0,
                             "count": 3, "scale": "log"}]}}).code == "bad-value"
    assert _err(
        {"sweep": {"axes": [{"name": "beta", "start": 0.1, "stop": 1.0,
                             "count": 1}]}}).code == "bad-value"
    assert _err([1, 2]).code == "bad-value"


def test_axis_values():
    lin = SweepAxis("beta", 0.0, 1.0, 5)
    assert np.allclose(lin.values(), [0.0, 0.25, 0.5, 0.75, 1.0])
    log = SweepAxis("beta", 0.01, 1.0, 3, "log")
    assert np.allclose(log.values(), [0.01, 0.1, 1.0])
    assert set(AXIS_NAMES) == {"gamma_over_j", "beta", "xi_frac",
                               "mu_frac", "j_frac"}


def test_drive_mapping():
    assert load_config(None).drive() == resonant()
    cfg = RunConfig.from_dict({"drive": {"epsilon": 2.0}})
    # amplitude exactly at the level splitting difference: zero detuning
    assert cfg.drive() == ConstantDrive(0.0)
    cfg = RunConfig.from_dict({"drive": {"epsilon": 2.5}})
    assert cfg.drive() == ConstantDrive(0.5)


def test_params_and_state_spec():
    cfg = RunConfig.from_dict({"model": {"J": 0.2},
                               "state": {"mu_q": 0.1, "xi_re": 0.02}})
    p = cfg.params()
    assert p.J == 0.2
    assert p.kappa == 0.1
    spec = cfg.state_spec()
    assert spec.mu_q == 0.1
    assert spec.xi_re == 0.02
    assert spec.nu_q == 0.0


def test_override():
    cfg = load_config(None)
    same = cfg.override(out=None, workers=None)
    assert same is cfg
    new = cfg.override(workers=4, format="json")
    assert new.workers == 4
    assert new.format == "json"
    assert new.was_set("run.workers")
    assert new.was_set("run.format")
    assert not cfg.was_set("run.workers")   # original untouched
    # every flag passes the same range as its config key
    for kw, key in (({"workers": 0}, "run.workers"),
                    ({"abs_tol": 0.0}, "run.abs_tol"),
                    ({"frame": "dressed"}, "run.frame")):
        with pytest.raises(ConfigError) as exc:
            cfg.override(**kw)
        assert (exc.value.code, exc.value.parameter) == ("bad-value", key)


def test_echo_lines_exclude_plumbing():
    cfg = RunConfig.from_dict(
        {"run": {"workers": 7, "out": "x.csv"},
         "sweep": {"axes": [{"name": "beta", "start": 0.1, "stop": 1.0,
                             "count": 4, "scale": "log"}]}})
    lines = cfg.echo_lines()
    assert lines == sorted(lines)
    text = "\n".join(lines)
    assert "workers" not in text
    assert "run.out" not in text
    assert "sweep.axes[0] = 'beta 0.1:1.0:4:log'" in lines
    assert "model.beta = 1.0" in lines


def test_to_dict_excludes_plumbing():
    doc = RunConfig.from_dict({"run": {"workers": 3}}).to_dict()
    assert "workers" not in doc["run"]
    assert "out" not in doc["run"]
    assert doc["model"]["kappa"] == 0.1
    # round trip through from_dict preserves the physics fields
    again = RunConfig.from_dict(doc)
    assert again.params() == RunConfig().params()


def test_config_error_to_json():
    e = ConfigError("bad-value", "run.samples must be >= 2", "run.samples")
    doc = json.loads(e.to_json())
    assert doc == {"code": "bad-value",
                   "message": "run.samples must be >= 2",
                   "parameter": "run.samples"}


def test_axis_lookup():
    cfg = RunConfig.from_dict(
        {"sweep": {"axes": [{"name": "xi_frac", "start": 0, "stop": 1,
                             "count": 3}]}})
    ax = cfg.axis("xi_frac")
    assert ax is not None and ax.count == 3
    assert cfg.axis("beta") is None


def test_yaml_12_floats(tmp_path):
    """1e6, 1.0e6 and 1e-3 are numbers, as YAML 1.2 reads them; an integer
    stays an integer and a quoted number stays a string."""
    p = tmp_path / "run.yaml"
    p.write_text("drive:\n  epsilon: 1e6\n"
                 "model:\n  J: 1.0e-1\n  kappa: 1e-3\n  beta: 2\n"
                 "run:\n  samples: 101\n  horizon: 1E+2\n")
    cfg = load_config(p)
    assert cfg.epsilon == 1_000_000.0
    assert (cfg.J, cfg.kappa, cfg.beta) == (0.1, 1e-3, 2.0)
    assert cfg.samples == 101 and cfg.horizon == 100.0
    p.write_text("run:\n  samples: 1e2\n")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.parameter == "run.samples"
    p.write_text("drive:\n  epsilon: '1e6'\n")
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    assert exc.value.parameter == "drive.epsilon"


def test_readme_config_block_is_the_table():
    """The README's configuration block sets every key of the table, and
    only those, to its default."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("## Configuration"):]
    block = section[section.index("```yaml\n") + 8:]
    cfg = RunConfig.from_dict(yaml.safe_load(block[:block.index("```")]))
    assert cfg.explicit == {f"{f.metadata['section']}.{f.name}"
                            for f in fields(RunConfig) if f.metadata}
    assert replace(cfg, explicit=frozenset()) == RunConfig()

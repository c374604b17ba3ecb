"""Configuration parsing, validation codes, and override plumbing."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from tlspurify import config
from tlspurify.config import (AXIS_NAMES, MAX_COUNT, MAX_HORIZON,
                              MAX_SAMPLES, ConfigError, RunConfig, SweepAxis, load_config)
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


def test_unreadable_file_is_a_config_error(tmp_path):
    """A config path that names a directory cannot be read: a config
    error naming the path, not a run-time error."""
    with pytest.raises(ConfigError) as exc:
        load_config(tmp_path)
    assert (exc.value.code, exc.value.parameter) == ("unreadable-file",
                                                     str(tmp_path))
    assert "Is a directory" in exc.value.message


def test_records_are_plain_values():
    """SweepAxis and RunConfig are equal by value and shown with every
    slot; RunConfig(**kw) sets the named fields and no unknown one."""
    axis = SweepAxis("beta", 0.5, 1.0, 3)
    assert axis == SweepAxis("beta", 0.5, 1.0, count=3, scale="linear")
    assert axis != SweepAxis("beta", 0.5, 1.0, 4)
    assert repr(axis) == ("SweepAxis(name='beta', start=0.5, stop=1.0, "
                          "count=3, scale='linear')")
    cfg = RunConfig(samples=11, axes=(axis,))
    assert (cfg.samples, cfg.axes, cfg.horizon) == (11, (axis,), 20.0)
    read = RunConfig.from_dict({"run": {"samples": 11}, "sweep": {
        "axes": [{"name": "beta", "start": 0.5, "stop": 1.0, "count": 3}]}})
    assert read.explicit == {"run.samples", "sweep.axes"}
    assert read != cfg
    read.explicit = frozenset()
    assert read == cfg
    assert cfg != RunConfig()
    assert "samples=11" in repr(cfg)
    with pytest.raises(TypeError):
        RunConfig(sample=11)
    with pytest.raises(TypeError):
        hash(cfg)


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
    # grid sizes have a ceiling, named by the dotted key
    for raw, key in (
            ({"sweep": {"mu_count": MAX_COUNT + 1}}, "sweep.mu_count"),
            ({"sweep": {"mu_count": 10**12}}, "sweep.mu_count"),
            ({"sweep": {"axes": [{"name": "beta", "start": 0.1, "stop": 1.0,
                                  "count": 10**12}]}},
             "sweep.axes[0].count"),
            ({"sweep": {"axes": [
                {"name": "j_frac", "start": 0.6, "stop": 1.0, "count": 3},
                {"name": "xi_frac", "start": 0.0, "stop": 1.0,
                 "count": MAX_COUNT + 1}]}}, "sweep.axes[1].count")):
        e = _err(raw)
        assert (e.code, e.parameter) == ("bad-value", key), raw
    at_bound = RunConfig.from_dict({"sweep": {"mu_count": MAX_COUNT, "axes": [
        {"name": "beta", "start": 0.1, "stop": 1.0, "count": MAX_COUNT}]}})
    assert at_bound.mu_count == at_bound.axes[0].count == MAX_COUNT


def test_beta_axis_endpoint_is_checked_by_the_model():
    """A beta axis endpoint must make a model at the config's omega_tls,
    by ModelParams' own rule: beta * omega_tls a normal float."""
    def beta_axis(start, stop, **model):
        return {"model": model, "sweep": {"axes": [
            {"name": "gamma_over_j", "start": 0.0, "stop": 4.0},
            {"name": "beta", "start": start, "stop": stop, "count": 3}]}}

    for start, stop, end in ((1.0e-320, 2.0, "start"),
                             (2.0, 1.0e-320, "stop")):
        e = _err(beta_axis(start, stop))
        assert (e.code, e.parameter) == ("bad-value", f"sweep.axes[1].{end}")
        assert "beta is too small" in e.message
    # 1e-308 * omega_tls is a normal float at omega_tls = 3, not at 0.1
    assert RunConfig.from_dict(beta_axis(1e-308, 2.0)).axes[1].start == 1e-308
    e = _err(beta_axis(1e-308, 2.0, omega_q=0.05, omega_tls=0.1))
    assert (e.code, e.parameter) == ("bad-value", "sweep.axes[1].start")


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
    assert cfg.explicit == set(config._TABLE)
    cfg.explicit = frozenset()
    assert cfg == RunConfig()


# --------------------------------------------------------------------
# the flat-layout reader in front of PyYAML
# --------------------------------------------------------------------

#: the example config of the README's usage section
README_EXAMPLE = """\
# run.yaml
model:
  J: 0.1
  kappa: 0.05
sweep:
  axes:
    - {name: gamma_over_j, start: 0.0, stop: 4.4, count: 45}
run:
  samples: 301
"""


def _pyyaml(text: str):
    return yaml.load(text, Loader=config._loader(yaml))


def _same(a, b) -> bool:
    """a and b equal, with equal types all the way down: bool, int, float,
    str and None kept apart, dict keys in the same order, and the sign of
    a zero kept."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return ([(type(k), k) for k in a] == [(type(k), k) for k in b]
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return (a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
                or a != a and b != b)
    return a == b


def _floats(x: float) -> list[str]:
    return [repr(x), f"{x:e}", f"{x:.3f}", f"{x:.0f}.", f"{x:E}".replace("+", "")]


#: scalar texts in the layout, then near misses that PyYAML reads some
#: other way (or rejects): quotes, YAML 1.1 bools and nulls, octal and
#: underscored ints, leading dots, special floats, sexagesimals, dates,
#: flow collections, anchors, trailing comments and spaces, tabs, \r
_SCALARS = st.one_of(
    st.integers(-10**18 + 1, 10**18 - 1).map(str),
    st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda x: st.sampled_from(_floats(x))),
    st.sampled_from(["-0.0", "-0", "+0", "0.", "1.", "1.e5", "1e400", "-1e400",
                     "1E+2", "+1e5", "null", "rwa", "lab", "log", "csv",
                     "gamma_over_j", "y", "n", "_x", "abc1"]))
_NEAR_SCALARS = st.sampled_from([
    "'0.1'", '"rwa"', "yes", "No", "On", "OFF", "True", "false", "NULL",
    "Null", "~", "010", "00.5", "1_000", ".5", "-.5", ".inf", "-.inf", ".nan",
    "0x1F", "0b101", "1:30", "190:20:30", "2001-12-14", "[]", "[1, 2]", "{}",
    "{a: 1}", "&a 1", "*a", "!!str 1", "1 # c", "1 ", "a b", "<<", "=", "-",
    "1" * 19, "1" * 19 + ".5", "1\t", "1\r", "é", "|", ">"])
_KEYS = st.sampled_from(["J", "kappa", "beta", "samples", "name", "start",
                         "x_1", "_k", "axes", "count"])
_NEAR_KEYS = st.sampled_from(["yes", "null", "On", "5", "a-b", "'J'", "J ",
                              "a b", "?", "-"])
_NEAR_LINES = st.sampled_from([
    "---", "...", "%YAML 1.2", "\tJ: 1", "   J: 1", " J: 1", "J: 1",
    "  J: [1, 2]", "  J: {a: 1}", "    - {}", "    - {a: 1,b: 2}",
    "    - { a: 1 }", "  - {a: 1}", "      - {a: 1}", "    - [1]",
    "    J: 1", "  J:", "model: ", "model: 1", "  # indented comment",
    "# comment", "", "  ", "model:\r", "  ? J", "  J: &a 1", "  K: *a"])


@st.composite
def _flat_documents(draw):
    """Text of a document in the flat layout, or of a near miss: a
    scalar, a key or a whole line swapped for one PyYAML reads another
    way, a list key left with no items, or a repeated line."""
    def scalar():
        return draw(_NEAR_SCALARS if draw(st.integers(0, 39)) == 0
                    else _SCALARS)

    def keys(most):
        return [draw(_NEAR_KEYS) if draw(st.integers(0, 39)) == 0 else k
                for k in draw(st.lists(_KEYS, max_size=most, unique=True))]

    lines = []
    for section in draw(st.lists(st.sampled_from(["model", "run", "sweep",
                                                  "x"]),
                                 max_size=3, unique=True)):
        if draw(st.booleans()):
            lines.append("# " + draw(st.sampled_from(["c", "a: b", "'"])))
        lines.append(f"{section}:")
        for k in keys(3):
            if draw(st.integers(0, 3)):
                lines.append(f"  {k}:{' ' * draw(st.integers(1, 2))}{scalar()}")
                continue
            lines.append(f"  {k}:")
            for _ in range(draw(st.sampled_from([1, 2, 0]))):
                pairs = [f"{j}: {scalar()}" for j in keys(4) or ["name"]]
                lines.append("    - {" + ", ".join(pairs) + "}")
    if lines and draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_NEAR_LINES))
    if lines and draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from(lines)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(text=_flat_documents())
def test_flat_reader_declines_or_matches_pyyaml(text):
    """The flat reader either declines a text or returns exactly what
    PyYAML returns for it, types and the sign of zero included; a text
    PyYAML rejects it always declines."""
    try:
        expected = _pyyaml(text)
    except (yaml.YAMLError, ValueError):
        expected = config._NotFlat
    try:
        got = config._read_flat(text)
    except config._NotFlat:
        return
    assert _same(got, expected), (text, got, expected)


@pytest.mark.parametrize("text", [
    "", "# only a comment\n", "model:\n", "run:\n  frame: lab\n",
    "model:\n  J: -0.0\n  beta: 2\nstate:\ndrive:\n  epsilon: null\n",
    README_EXAMPLE])
def test_flat_reader_reads_the_layout(text):
    assert _same(config._read_flat(text), _pyyaml(text))


@pytest.mark.parametrize("text", [
    "sweep:\n  axes:\n",                       # PyYAML: None, not []
    "sweep:\n  axes:\n# no item\nrun:\n  samples: 3\n",
    "run:\n  samples: 3\n  samples: 4\n", "run:\nrun:\n",
    "run:\n  frame: 'lab'\n", "run:\n  horizon: .5\n",
    "run:\n  samples: 010\n", "run:\n  samples: 1_000\n",
    "run:\n  frame: On\n", "run:\n\tsamples: 3\n", "run:\r\n",
    "---\nrun:\n", "model: {J: 0.1}\n", "sweep:\n  axes: []\n"])
def test_flat_reader_declines_near_misses(text):
    with pytest.raises(config._NotFlat):
        config._read_flat(text)


def _without_pyyaml(monkeypatch):
    def refuse(path, text):
        raise AssertionError(f"PyYAML asked to read {text!r}")
    monkeypatch.setattr(config, "_read_yaml", refuse)


def test_readme_example_takes_the_fast_path(tmp_path, monkeypatch):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    assert README_EXAMPLE in text
    path = tmp_path / "run.yaml"
    path.write_text(README_EXAMPLE)
    slow = RunConfig.from_dict(_pyyaml(README_EXAMPLE))
    _without_pyyaml(monkeypatch)
    assert load_config(path) == slow


def test_readme_reference_block_reads_the_same_on_both_paths(tmp_path,
                                                             monkeypatch):
    """The reference block, with its trailing comments and `axes: []`,
    goes to PyYAML; stripped of those, it takes the fast path; both give
    the RunConfig that PyYAML's reading of the block gives."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("## Configuration"):]
    block = section[section.index("```yaml\n") + 8:]
    block = block[:block.index("```")]
    expected = RunConfig.from_dict(_pyyaml(block))
    path = tmp_path / "reference.yaml"
    path.write_text(block)
    with pytest.raises(config._NotFlat):
        config._read_flat(block)
    assert load_config(path) == expected
    flat = "".join(re.sub(r" *#.*", "", line) for line in
                   block.splitlines(keepends=True)
                   if line.strip() and not line.lstrip().startswith("#")
                   and "axes: []" not in line)
    path.write_text(flat)
    _without_pyyaml(monkeypatch)
    fast = load_config(path)
    fast.explicit = expected.explicit
    assert fast == expected

"""Run configuration: the field table, YAML loading, and CLI overrides.

Every setting is a row of the field table _FIELDS, the one schema of a
run configuration: its name, YAML section, type, default, range (minimum,
above, maximum or choices) and whether it is plumbing.  RunConfig has one
slot per row.  That one table drives validation, the tracking of
explicitly set keys, the config echo of CSV files, the JSON header and the
CLI overrides.  Fields marked plumbing (worker count, output path) cannot
change the computed content and stay out of the echo and the header.  The
model fields carry no range here: ModelParams holds them, and the config
builds one to check them.  The README's configuration block documents the
table, defaults included.  A sweep axis has its own schema, _AXIS_FIELDS.

Axis names are the sweep-domain coordinates: gamma_over_j and beta are
absolute; xi_frac, mu_frac, and j_frac are fractions of the physical
ceilings (xi_max, mu_max at zero cross coherence, and the smallest
pole-reaching coupling, respectively).
"""

import functools
import math
import operator
import re
from pathlib import Path
from typing import TYPE_CHECKING, get_args

import numpy as np

from .model import InitialStateSpec, ModelParams, ParamError

if TYPE_CHECKING:
    from .drive import ConstantDrive

__all__ = ["ConfigError", "SweepAxis", "RunConfig", "load_config",
           "choices", "AXIS_NAMES"]

#: the domain of each sweep axis, as range keys of _BOUNDS that both of
#: its endpoints must meet: past them a grid point has no model (beta,
#: gamma or J out of range) or no positive initial state (xi past its
#: ceiling, a negative fraction of a ceiling)
AXIS_DOMAINS = {
    "gamma_over_j": {"minimum": 0.0},
    "beta": {"above": 0.0},
    "xi_frac": {"minimum": 0.0, "maximum": 1.0},
    "mu_frac": {"minimum": 0.0},
    "j_frac": {"minimum": 0.0},
}
AXIS_NAMES = tuple(AXIS_DOMAINS)

#: upper bound on run.samples.  A trace holds one row per sample (19
#: floats for simulate, 2 x mu_count traces for purity-trace), and the
#: samples are evaluated as one array, so an unbounded count turns into an
#: allocation of many GiB; 100000 rows is far past any plot
MAX_SAMPLES = 100_000

#: upper bound on a sweep axis count and on sweep.mu_count.  A table is
#: held as columns, and region-map's engine runs in blocks: at the bound,
#: fresh on a 2-core x86_64 host, a 500 x 500 region-map takes 1.1-1.4 s
#: and 65 MB RSS, a coherence-map 0.45-0.65 s and 52 MB, and purity-trace's
#: 2 x 500 traces of 250 samples (MAX_ROWS) 0.23-0.27 s and 49 MB.  The
#: default and benchmark grids need at most 80
MAX_COUNT = 500

#: upper bound on purity-trace's 2 x sweep.mu_count x run.samples rows,
#: which the two keys' own bounds allow up to 1e8: MAX_COUNT squared, the
#: largest table region-map and coherence-map can emit.  At the bound,
#: fresh on a 2-core x86_64 host, 125 mu values x 1000 samples take
#: 0.5-0.75 s and 49 MB RSS, 2 x 62,500 samples 0.7-1.2 s and 57 MB
MAX_ROWS = MAX_COUNT ** 2

#: upper bound on run.horizon.  The pole engine solves each cell's events
#: as polynomial roots, so its work does not grow with the horizon: a
#: gamma = 4J cell that meets no event takes 9 closed-form evaluations at
#: 1000 as at the default 20
MAX_HORIZON = 1000.0


class ConfigError(Exception):
    """Invalid configuration; carries the machine-readable error fields."""

    def __init__(self, code: str, message: str, parameter: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message
        self.parameter = parameter


#: the range keys a field's spec may give, with their tests
_BOUNDS = (("minimum", ">=", operator.ge), ("above", ">", operator.gt),
           ("maximum", "<=", operator.le))


def _unknown(mapping: dict, known) -> list[str]:
    """The keys of mapping that are not known, as sorted strings."""
    return sorted(str(k) for k in mapping if k not in known)


class _Field:
    """One row of a schema: a key's YAML section and name, its type (a
    type ``X | None`` allows null), its default, its range (the keys of
    _BOUNDS, or choices) and whether it is plumbing."""

    __slots__ = ("section", "name", "kind", "default", "spec", "plumbing")

    def __init__(self, section: str | None, name: str, kind, default, *,
                 plumbing: bool = False, **spec):
        self.section, self.name, self.kind = section, name, kind
        self.default, self.spec, self.plumbing = default, spec, plumbing


class _Record:
    """A plain record, equal and shown by the values of its slots."""

    __slots__ = ()

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._asdict() == other._asdict()

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, ", ".join(
            f"{name}={value!r}" for name, value in self._asdict().items()))


def _value(f: _Field, value, key: str):
    """value checked against f's type and range; raises ConfigError
    naming key."""
    kind, spec = f.kind, f.spec
    if type(None) in get_args(kind):
        if value is None:
            return None
        kind = get_args(kind)[0]
    if "choices" in spec:
        if value not in spec["choices"]:
            raise ConfigError("bad-value",
                              f"{key} must be one of "
                              f"{', '.join(spec['choices'])}, got {value!r}",
                              key)
    elif kind is str:
        if not isinstance(value, str):
            raise ConfigError("bad-value",
                              f"{key} must be a string, got {value!r}", key)
    elif kind in (int, float):
        value = _in_range(_number(value, kind, key), spec, key)
    elif value is None:                     # the sweep axes
        value = ()
    elif isinstance(value, list):
        value = tuple(SweepAxis.from_dict(a, f"{key}[{i}]")
                      for i, a in enumerate(value))
    else:
        raise ConfigError("bad-value", f"{key} must be a list", key)
    return value


def _in_range(value, spec, key: str):
    """value, once it meets every range key of spec; raises ConfigError
    naming key."""
    for bound, sign, holds in _BOUNDS:
        if bound in spec and not holds(value, spec[bound]):
            raise ConfigError("bad-value",
                              f"{key} must be {sign} {spec[bound]}, "
                              f"got {value}", key)
    return value


def _number(value, kind: type, key: str):
    """value as an int, or as a finite float."""
    if isinstance(value, bool) or not isinstance(
            value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ConfigError("bad-value", f"{key} must be {what}, got {value!r}",
                          key)
    if kind is int:
        return value
    try:
        number = float(value)
    except OverflowError:                   # an integer past 1.8e308
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError("bad-value", f"{key} must be finite, got {value!r}",
                          key)
    return number


#: the schema of an axis mapping; a default of None marks a key the
#: mapping must give
_AXIS_FIELDS = (
    _Field(None, "name", str, None, choices=AXIS_NAMES),
    _Field(None, "start", float, None),
    _Field(None, "stop", float, None),
    _Field(None, "count", int, 2, minimum=2, maximum=MAX_COUNT),
    _Field(None, "scale", str, "linear", choices=("linear", "log")),
)


class SweepAxis(_Record):
    """One sweep axis: a slot per row of _AXIS_FIELDS, with the same
    defaults."""

    __slots__ = tuple(f.name for f in _AXIS_FIELDS)

    def __init__(self, name: str, start: float, stop: float, count: int = 2,
                 scale: str = "linear"):
        self.name, self.start, self.stop = name, start, stop
        self.count, self.scale = count, scale

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)

    @staticmethod
    def from_dict(raw: dict, where: str) -> "SweepAxis":
        if not isinstance(raw, dict):
            raise ConfigError("bad-value", f"{where} must be a mapping", where)
        extra = _unknown(raw, SweepAxis.__slots__)
        if extra:
            raise ConfigError("unknown-key", f"unknown axis key(s) {extra}",
                              where)
        axis = SweepAxis(**{
            f.name: _value(f, raw.get(f.name, f.default), f"{where}.{f.name}")
            for f in _AXIS_FIELDS})
        for end in ("start", "stop"):
            _in_range(getattr(axis, end), AXIS_DOMAINS[axis.name],
                      f"{where}.{end}")
        if axis.scale == "log" and (axis.start <= 0.0 or axis.stop <= 0.0):
            raise ConfigError("bad-value",
                              f"{where}: log scale needs positive endpoints",
                              f"{where}.scale")
        return axis


#: the field table, the one schema of a run configuration, in the order
#: of the README's configuration block
_FIELDS = (
    _Field("model", "omega_q", float, 1.0),
    _Field("model", "omega_tls", float, 3.0),
    _Field("model", "beta", float, 1.0),
    _Field("model", "J", float, 0.1),
    _Field("model", "kappa", float, 0.1),
    _Field("state", "mu_q", float, 0.0),
    _Field("state", "nu_q", float, 0.0),
    _Field("state", "xi_re", float, 0.0),
    _Field("state", "xi_im", float, 0.0),
    _Field("drive", "epsilon", float | None, None),
    _Field("run", "frame", str, "rwa", choices=("rwa", "lab")),
    _Field("run", "abs_tol", float, 1e-10, above=0.0),
    _Field("run", "rel_tol", float, 1e-10, above=0.0),
    _Field("run", "horizon", float, 20.0, minimum=1.0, maximum=MAX_HORIZON),
    _Field("run", "samples", int, 601, minimum=2, maximum=MAX_SAMPLES),
    _Field("run", "workers", int, 1, minimum=1, plumbing=True),
    _Field("run", "out", str | None, None, plumbing=True),
    _Field("run", "format", str, "csv", choices=("csv", "json")),
    _Field("sweep", "mu_count", int, 5, minimum=2, maximum=MAX_COUNT),
    _Field("sweep", "axes", tuple, ()),
)


class RunConfig(_Record):
    """A run configuration: a slot per row of _FIELDS, and explicit, the
    dotted keys the user set (for per-command defaulting).  RunConfig(**kw)
    sets the fields named and leaves the rest at their defaults, unchecked;
    from_dict and override check every key they set."""

    __slots__ = (*(f.name for f in _FIELDS), "explicit")

    def __init__(self, **values):
        for f in _FIELDS:
            setattr(self, f.name, values.pop(f.name, f.default))
        self.explicit = values.pop("explicit", frozenset())
        if values:
            raise TypeError(f"RunConfig has no field {min(values)!r}")

    # ----------------------------------------------------------------
    def _section(self, section: str) -> dict:
        return {f.name: getattr(self, f.name) for f in _FIELDS
                if f.section == section}

    def params(self) -> ModelParams:
        return ModelParams(**self._section("model"))

    def state_spec(self) -> InitialStateSpec:
        return InitialStateSpec(**self._section("state"))

    def drive(self) -> "ConstantDrive":
        # imported here: the pole-time sweeps never build a drive
        from .drive import ConstantDrive, resonant

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

    def _content(self):
        """(dotted key, value) of each field that can change the output."""
        return [(key, getattr(self, f.name)) for key, f in _TABLE.items()
                if not f.plumbing]

    def echo_lines(self) -> list[str]:
        """Sorted ``key = value`` lines describing the full configuration.

        Execution plumbing (worker count, output path) is excluded: it
        cannot change the computed content, and identical configs must
        yield byte-identical files whatever the fan-out.
        """
        flat = dict(self._content())
        for k, ax in enumerate(flat.pop("sweep.axes")):
            flat[f"sweep.axes[{k}]"] = (f"{ax.name} {ax.start!r}:{ax.stop!r}"
                                        f":{ax.count}:{ax.scale}")
        return [f"{key} = {flat[key]!r}" for key in sorted(flat)]

    def to_dict(self) -> dict:
        """Nested plain-data form (for the JSON document header)."""
        doc: dict[str, dict] = {}
        for key, value in self._content():
            section, name = key.split(".")
            if name == "axes":
                value = [ax._asdict() for ax in value]
            doc.setdefault(section, {})[name] = value
        return doc

    # ----------------------------------------------------------------
    def _with(self, given: dict) -> "RunConfig":
        """This config with the dotted keys of given set, each checked
        against the table, and the model checked by ModelParams, at the
        model's beta and at each endpoint of a beta axis."""
        values = self._asdict()
        values.update({_TABLE[key].name: _value(_TABLE[key], value, key)
                       for key, value in given.items()},
                      explicit=self.explicit | frozenset(given))
        cfg = RunConfig(**values)
        try:
            params = cfg.params()
        except ParamError as exc:
            raise ConfigError("bad-value", f"model.{exc}",
                              f"model.{exc.name}") from None
        for k, ax in enumerate(cfg.axes):
            for end in ("start", "stop") if ax.name == "beta" else ():
                key = f"sweep.axes[{k}].{end}"
                try:
                    params.replace(beta=getattr(ax, end))
                except ParamError as exc:
                    raise ConfigError("bad-value", f"{key}: {exc}",
                                      key) from None
        return cfg

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("bad-value", "config root must be a mapping", "")
        sections = {f.section for f in _FIELDS}
        extra = _unknown(raw, sections)
        if extra:
            raise ConfigError("unknown-key", f"unknown section(s) {extra}",
                              extra[0])
        given = {}
        for section, keys in raw.items():
            if keys is None:
                continue
            if not isinstance(keys, dict):
                raise ConfigError("bad-value",
                                  f"section {section} must be a mapping",
                                  section)
            dotted = {f"{section}.{k}": v for k, v in keys.items()}
            extra = _unknown(dotted, _TABLE)
            if extra:
                raise ConfigError("unknown-key", f"unknown key {extra[0]}",
                                  extra[0])
            given.update(dotted)
        return RunConfig()._with(given)

    def override(self, **kw) -> "RunConfig":
        """CLI-flag overrides; None values leave the config untouched."""
        given = {_DOTTED[k]: v for k, v in kw.items() if v is not None}
        return self._with(given) if given else self


#: the field table by dotted key, in its order
_TABLE = {f"{f.section}.{f.name}": f for f in _FIELDS}
_DOTTED = {f.name: key for key, f in _TABLE.items()}


def choices(name: str) -> tuple[str, ...]:
    """The allowed values of a choice field of the table."""
    return _TABLE[_DOTTED[name]].spec["choices"]


@functools.cache
def _loader(yaml):
    """SafeLoader with the YAML 1.2 float syntax, under which 1e6 and
    1.0e6 are numbers (YAML 1.1 wants a dot and a signed exponent)."""

    class Loader(yaml.SafeLoader):
        pass

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
        list("-+.0123456789"))
    return Loader


#: a line of the flat layout: blank or a comment, a section, a key with a
#: scalar or with list items to follow, or a list item (a one-line mapping)
_FLAT_LINE = re.compile(r"(?: *#.*)?|(?P<section>\w+):"
                        r"|  (?P<key>\w+):(?: +(?P<value>[^ ]+))?"
                        r"|    - \{(?P<item>[^{}]*)\}")

#: a scalar of the flat layout: a decimal number with no leading zero (an
#: int of at most 18 digits, or a float of the YAML 1.2 syntax of _loader)
#: or a word
_FLAT_SCALAR = re.compile(r"[-+]?(?:0|[1-9][0-9]{0,17})(?P<float>(?:\.[0-9]*)?"
                          r"(?:[eE][-+]?[0-9]+)?)|(?P<word>[A-Za-z_]\w*)")

#: words YAML 1.1 reads as a bool or null in some spelling
_YAML11_WORDS = {"yes", "no", "true", "false", "on", "off", "null"}


class _NotFlat(Exception):
    """The text is not in the flat layout; PyYAML has to read it."""


def _flat_scalar(text: str):
    """text as PyYAML reads a scalar of the flat layout."""
    m = _FLAT_SCALAR.fullmatch(text)
    if m is None or text.lower() in _YAML11_WORDS and text != "null":
        raise _NotFlat
    if m["word"] is not None:
        return None if text == "null" else text
    return float(text) if m["float"] else int(text)


def _flat_key(text: str, mapping: dict) -> str:
    """text as a new key of mapping: a word PyYAML reads as a string."""
    if not isinstance(_flat_scalar(text), str) or text in mapping:
        raise _NotFlat
    return text


def _flat_item(text: str) -> dict:
    """The one-line mapping {key: scalar, ...} of a list item."""
    item: dict = {}
    for pair in text.split(", "):
        key, colon, value = pair.partition(": ")
        if not colon:
            raise _NotFlat
        item[_flat_key(key, item)] = _flat_scalar(value)
    return item


def _read_flat(text: str):
    """What yaml.load(text, Loader=_loader(yaml)) returns, for a text in
    the flat layout that the README example uses: blank and comment
    lines, sections at column 0, ``key: scalar`` at two spaces, and list
    items ``- {key: scalar, ...}`` at four spaces under a bare ``key:``.
    Raises _NotFlat on anything else, from quotes and tabs to duplicate
    keys and a bare key with no items (which PyYAML reads as null)."""
    if not text.isascii() or not text.replace("\n", "").isprintable():
        raise _NotFlat
    doc: dict = {}
    section = items = None
    for line in text.split("\n"):
        m = _FLAT_LINE.fullmatch(line)
        if m is None:
            raise _NotFlat
        if m["item"] is not None:
            if items is None:
                raise _NotFlat
            items.append(_flat_item(m["item"]))
        elif m["section"] is not None or m["key"] is not None:
            if items == []:
                raise _NotFlat
            items = None
            if m["section"] is not None:
                section = _flat_key(m["section"], doc)
                doc[section] = None
                continue
            if section is None:
                raise _NotFlat
            keys = doc[section] = doc[section] or {}
            key = _flat_key(m["key"], keys)
            if m["value"] is None:
                keys[key] = items = []
            else:
                keys[key] = _flat_scalar(m["value"])
    if items == []:
        raise _NotFlat
    return doc or None


def _parse_error(path: Path, exc: Exception) -> ConfigError:
    return ConfigError("parse-error", f"config is not valid YAML: {exc}",
                       str(path))


def _read_yaml(path: Path, text: str):
    """The YAML document in text, read by PyYAML."""
    import yaml     # only a file outside the flat layout needs the parser

    try:
        return yaml.load(text, Loader=_loader(yaml))
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # ValueError: an integer past Python's digit limit;
        # RecursionError: nesting deeper than the composer can follow
        raise _parse_error(path, exc) from None


def load_config(path: str | Path | None) -> RunConfig:
    """Parse the YAML file (or return pure defaults for ``None``).

    A file in the flat layout of _read_flat is read without PyYAML, to
    the same result; PyYAML, imported only then, reads every other file.
    """
    if path is None:
        return RunConfig.from_dict({})
    p = Path(path)
    if not p.exists():
        raise ConfigError("missing-file", f"config file not found: {p}",
                          str(p))
    try:
        text = p.read_text()
    except ValueError as exc:           # not text in the locale's encoding
        raise _parse_error(p, exc) from None
    except OSError as exc:              # a directory, a file we may not read
        raise ConfigError("unreadable-file",
                          f"config file cannot be read: {exc}",
                          str(p)) from None
    try:
        raw = _read_flat(text)
    except _NotFlat:
        raw = _read_yaml(p, text)
    return RunConfig.from_dict(raw)

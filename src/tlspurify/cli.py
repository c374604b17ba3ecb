"""Command-line harness.

    tlspurify <command> [--config PATH] [--out PATH] [--format csv|json]
                        [--frame rwa|lab] [--tol ABS:REL] [--horizon MULT]
                        [--workers N]

Commands: simulate, scan-gamma, scan-beta, region-map, coherence-map,
purity-trace, verify.  Flags override the corresponding config keys; every
command writes one table to --out (stdout if omitted).  Errors go to
stderr as a JSON object {code, message, parameter} with a nonzero exit.

One table of the seven commands (_COMMANDS) drives parsing, the --help
text and dispatch; one of the seven options (_OPTIONS) drives parsing,
usage errors and the --help text.  A table whose all_passed is false
(verify's report of a failed check) is written, then exits 1 with a
verify-failed error object.

The parser reads arguments as argparse did: an option is
``--name VALUE`` or ``--name=VALUE``, a unique prefix of a name will do
(--conf), the last of a repeated option wins, and a token starting with
"-" is a value only if it is "-", a negative number or holds a space.
A usage error is an error object too: code "usage" and exit 2 (main
raises SystemExit(2)), or "bad-value" naming a flag whose value is not a
number (main returns 2).  -h or --help, at the top or after a command,
prints text to stdout and exits 0.

The process entry of ``python -m tlspurify.cli`` and of the ``tlspurify``
script is entry().  The process runs without the cyclic collector: under
``-m`` it is off from the first statements of this module, before numpy
is imported, and entry() turns it off for the console script.  They
also set OPENBLAS_NUM_THREADS=1 unless it or OMP_NUM_THREADS is set (not
for the console script).  entry() freezes the collector after main(), so
that exit does not sweep the heap; main(argv) never touches the
collector, so one process can call it many times.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()
    # OpenBLAS's worker thread only competes for a core with the main one,
    # which multiplies small matrices; a value the caller set is kept
    import os
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"

import re
import sys

import numpy as np

from .config import ConfigError, choices, load_config
from .output import emit_error, write_table

__all__ = ["main", "entry"]


#: the seven commands, in --help order: name -> (driver module, driver,
#: help line).  The module is imported only when its command runs
_COMMANDS = {
    "simulate": ("sweeps", "simulate_trace",
                 "integrate one full-model trajectory and emit it"),
    "scan-gamma": ("scans", "scan_gamma",
                   "pole time against gamma/J, bare and correlated"),
    "scan-beta": ("scans", "scan_beta",
                  "pole time against inverse temperature"),
    "region-map": ("scans", "region_map", "stall-region labels over the "
                   "(coupling, correlation) plane"),
    "coherence-map": ("sweeps", "coherence_map",
                      "coherence purity gain over the (xi, mu) plane"),
    "purity-trace": ("sweeps", "purity_trace",
                     "purity traces over a coherence grid"),
    "verify": ("sweeps", "verify_table",
               "run the self-check suite and report residuals"),
}

#: the options of every command, in --help order: name -> (metavar, type,
#: help line).  A type is str, float, int, or choices: one of the choices
#: of the config key the option sets, which stand in for its metavar
_OPTIONS = {
    "config": ("PATH", str, "YAML run configuration"),
    "out": ("PATH", str, "output file (default: stdout)"),
    "format": (None, choices, "output format (default: csv)"),
    "frame": (None, choices, "propagation frame for simulate"),
    "tol": ("ABS:REL", str, "Runge-Kutta tolerances of verify, "
                            "e.g. 1e-10:1e-10"),
    "horizon": ("MULT", float,
                "give-up time in units of the lossless pole time "
                "(not read by verify)"),
    "workers": ("N", int, "accepted for compatibility; changes nothing"),
}

#: a negative number: a value, not a flag, though it starts with "-"
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _usage(message: str):
    """A usage error: one error object on stderr, and exit 2."""
    emit_error("usage", message, "")
    raise SystemExit(2)


def _help(command: str | None) -> str:
    """The --help text of the command, or of the program for None."""
    if command is None:
        return "".join([
            "usage: tlspurify <command> [options]\n\n"
            "purification dynamics of a qubit coupled to a lossy two-level "
            "defect\n\ncommands:\n",
            *(f"  {name:<15}{line}\n"
              for name, (_, _, line) in _COMMANDS.items()),
            "\n'tlspurify <command> --help' lists the options of a "
            "command.\n"])
    flags = {"-h, --help": "show this help and exit"}
    for name, (metavar, kind, line) in _OPTIONS.items():
        shown = metavar or "{" + ",".join(choices(name)) + "}"
        flags[f"--{name} {shown}"] = line
    return "".join([
        f"usage: tlspurify {command} [options]\n\n"
        f"{_COMMANDS[command][2]}\n\noptions:\n",
        *(f"  {flag:<21}{line}\n" for flag, line in flags.items()),
        "\nAn option is --name VALUE or --name=VALUE, a unique prefix of "
        "its name will do\n(--conf for --config), and the last of a "
        "repeated option wins.\n"])


def _is_flag(token: str) -> bool:
    """token is a flag, not a value: it starts with "-" and is not "-", a
    negative number or a text with a space in it."""
    return (token.startswith("-") and token != "-" and " " not in token
            and _NEGATIVE.fullmatch(token) is None)


def _resolve(token: str, names) -> tuple[str | None, str | None]:
    """(name, text given with it) of the flag token: -h[VALUE] for help,
    or --name[=VALUE] where name is one of names or a unique prefix of
    one.  The name is None for an unknown flag; a prefix of more than one
    name is a usage error."""
    if token.startswith("-h"):
        rest = token[2:]
        return "help", (rest[rest.startswith("="):] if rest else None)
    if not token.startswith("--") or token == "--":
        return None, None
    given, eq, value = token[2:].partition("=")
    hits = ([given] if given in names
            else [name for name in names if name.startswith(given)])
    if len(hits) > 1:
        _usage(f"ambiguous option: {token} could match "
               + ", ".join(f"--{name}" for name in hits))
    return (hits[0] if hits else None), (value if eq else None)


def _show_help(command: str | None, value: str | None):
    """Print the --help text and exit 0; --help=VALUE is a usage error."""
    if value is not None:
        _usage(f"argument --help: ignored explicit argument {value!r}")
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def _convert(name: str, text: str):
    """text as the value of --name.  A text outside the choices is a usage
    error; one that is not a number is a bad-value config error naming the
    flag, as a malformed --tol is."""
    kind = _OPTIONS[name][1]
    if kind is choices:
        if text not in choices(name):
            _usage(f"argument --{name}: invalid choice: {text!r} (choose "
                   f"from {', '.join(map(repr, choices(name)))})")
        return text
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        noun = {float: "a number", int: "an integer"}[kind]
        raise ConfigError("bad-value", f"--{name} must be {noun}, "
                          f"got {text!r}", f"--{name}") from None


def _options(command: str, tokens: list[str]) -> dict:
    """The option values that tokens, the arguments after the command,
    give.  Every flag is resolved before any value is read, so an
    ambiguous prefix is reported first; then the tokens are read left to
    right, and --help exits where it stands.  The first "--" and every
    token after it are stray values.  An unknown flag or a stray value is
    reported after the last token."""
    names = (*_OPTIONS, "help")
    # None for a value, (name, value) for a flag; "--" is an unknown flag
    cut = tokens.index("--") + 1 if "--" in tokens else len(tokens)
    flags = [_resolve(token, names) if _is_flag(token) else None
             for token in tokens[:cut]]
    flags += [None] * (len(tokens) - cut)
    given, extras = {}, []
    k, n = 0, len(tokens)
    while k < n:
        token, flag = tokens[k], flags[k]
        k += 1
        if flag is None or flag[0] is None:
            extras.append(token)
            continue
        name, value = flag
        if name == "help":
            _show_help(command, value)
        if value is None:
            if k == n or flags[k] is not None:
                _usage(f"argument --{name}: expected one argument")
            value = tokens[k]
            k += 1
        given[name] = _convert(name, value)
    if extras:
        _usage(f"unrecognized arguments: {' '.join(extras)}")
    return given


def _parse(argv: list[str]) -> tuple[str, dict]:
    """(command, option values) of the command line argv.  Before the
    command only -h/--help means anything; an unknown flag there is
    reported once the command's own arguments have been read."""
    extras = []
    for k, token in enumerate(argv):
        if token == "--" or not _is_flag(token):
            break
        name, value = _resolve(token, ("help",))
        if name is None:
            extras.append(token)
        else:
            _show_help(None, value)
    else:
        _usage(f"a command is required: one of {', '.join(_COMMANDS)}")
    command = argv[k]
    if command not in _COMMANDS:
        _usage(f"invalid command {command!r}: choose from "
               f"{', '.join(_COMMANDS)}")
    given = _options(command, argv[k + 1:])
    if extras:
        _usage(f"unrecognized arguments: {' '.join(extras)}")
    return command, given


def _parse_tol(text: str) -> tuple[float, float]:
    """The two numbers of ABS:REL; the config checks their range."""
    try:
        abs_part, rel_part = text.split(":")
        return float(abs_part), float(rel_part)
    except ValueError:
        raise ConfigError("bad-value",
                          f"--tol must look like ABS:REL, got {text!r}",
                          "--tol") from None


def main(argv: list[str] | None = None) -> int:
    try:
        command, flags = _parse(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        emit_error(exc.code, exc.message, exc.parameter)
        return 2
    # a float that overflows or turns NaN ends the run as an error object
    # instead of a warning on stderr and a table built on it
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return _run(command, flags)


def _run(command: str, flags: dict) -> int:
    try:
        cfg = load_config(flags.get("config"))
        overrides = {key: flags.get(key) for key in _OPTIONS
                     if key not in ("config", "tol")}
        if "tol" in flags:
            overrides["abs_tol"], overrides["rel_tol"] = _parse_tol(
                flags["tol"])
        cfg = cfg.override(**overrides)
        module, name, _ = _COMMANDS[command]
        # __import__, so that python -X importtime lists the module too
        found = __import__(f"{__package__}.{module}", fromlist=[name])
        table = getattr(found, name)(cfg)
        write_table(table, cfg)
        if table.metadata.get("all_passed") is False:
            emit_error("verify-failed",
                       "one or more self-checks exceeded tolerance", "")
            return 1
        return 0
    except ConfigError as exc:
        emit_error(exc.code, exc.message, exc.parameter)
        return 2
    except (ValueError, ArithmeticError, MemoryError, OSError,
            RuntimeError) as exc:
        emit_error("runtime-error", str(exc), "")
        return 1


def entry() -> int:
    """main() as the whole life of a process, with the collector off.
    gc.freeze() moves every tracked object to the permanent generation,
    which the collections at shutdown do not scan (they run even with the
    collector disabled); the process still exits normally, so atexit
    handlers run, sys.stdout and sys.stderr are flushed, and a failed
    flush still exits 120.  The finally also covers the SystemExit of
    --help and of a usage error."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())

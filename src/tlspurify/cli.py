"""Command-line harness.

    tlspurify <command> [--config FILE] [--out PATH] [--format csv|json]
                        [--frame rwa|lab] [--tol ABS:REL] [--horizon MULT]
                        [--workers N]

Commands: simulate, scan-gamma, scan-beta, region-map, coherence-map,
purity-trace, verify.  Flags override the corresponding config keys; every
command writes one table to --out (stdout if omitted).  Errors go to
stderr as a JSON object {code, message, parameter} with a nonzero exit.

A usage error is an error object too: code "usage" and exit 2, or
"bad-value" naming a flag whose value is not a number.  --help prints
text and exits 0.

The process entry of ``python -m tlspurify.cli`` and of the ``tlspurify``
script is entry().  The process runs without the cyclic collector: under
``-m`` it is off from the first statements of this module, before numpy
is imported, and entry() turns it off for the console script.  One run
leaves the same cyclic garbage, the parser's, whatever its size.  entry()
freezes the collector after main(), so that exit does not sweep the heap;
main(argv) never touches the collector, so one process can call it many
times.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()

import argparse
import sys

import numpy as np

from .config import ConfigError, choices, load_config
from .output import emit_error, write_table

__all__ = ["main", "entry", "build_parser"]


def _driver(module: str, name: str):
    """The driver `name` of the package module `module`, imported when the
    command runs: a pole-time scan never loads the integrator stack.
    (__import__ rather than importlib.import_module, so that
    ``python -X importtime`` lists the driver module too.)"""
    def run(cfg):
        found = __import__(f"{__package__}.{module}", fromlist=[name])
        return getattr(found, name)(cfg)
    return run


_COMMANDS = {
    "simulate": _driver("sweeps", "simulate_trace"),
    "scan-gamma": _driver("scans", "scan_gamma"),
    "scan-beta": _driver("scans", "scan_beta"),
    "region-map": _driver("scans", "region_map"),
    "coherence-map": _driver("sweeps", "coherence_map"),
    "purity-trace": _driver("sweeps", "purity_trace"),
}
_VERIFY = _driver("sweeps", "verify_table")

_HELP = {
    "simulate": "integrate one full-model trajectory and emit it",
    "scan-gamma": "pole time against gamma/J, bare and correlated",
    "scan-beta": "pole time against inverse temperature",
    "region-map": "stall-region labels over the (coupling, correlation) plane",
    "coherence-map": "coherence purity gain over the (xi, mu) plane",
    "purity-trace": "purity traces over a coherence grid",
    "verify": "run the self-check suite and report residuals",
}


class _Parser(argparse.ArgumentParser):
    """argparse under the error contract: a usage error is one error
    object on stderr and exit 2, not the usage text."""

    def error(self, message: str):
        emit_error("usage", message, "")
        self.exit(2)


def _number(kind: type, flag: str):
    """kind(text) as the type of a flag; a text that is not a number is a
    bad-value config error naming the flag, as --tol's is."""
    noun = {float: "a number", int: "an integer"}[kind]

    def convert(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError("bad-value", f"{flag} must be {noun}, "
                              f"got {text!r}", flag) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML run configuration")
    common.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")
    common.add_argument("--format", choices=choices("format"),
                        help="output format (default: csv)")
    common.add_argument("--frame", choices=choices("frame"),
                        help="propagation frame for simulate")
    common.add_argument("--tol", metavar="ABS:REL",
                        help="Runge-Kutta tolerances of verify's independent "
                             "side, e.g. 1e-10:1e-10")
    common.add_argument("--horizon", metavar="MULT",
                        type=_number(float, "--horizon"),
                        help="give-up time in units of the lossless pole time")
    common.add_argument("--workers", metavar="N",
                        type=_number(int, "--workers"),
                        help="accepted for compatibility; changes nothing")

    parser = _Parser(
        prog="tlspurify",
        description="purification dynamics of a qubit coupled to a lossy "
                    "two-level defect")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "verify"):
        sub.add_parser(name, parents=[common], help=_HELP[name])
    return parser


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
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        emit_error(exc.code, exc.message, exc.parameter)
        return 2
    # a float that overflows or turns NaN ends the run as an error object
    # instead of a warning on stderr and a table built on it
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        overrides = {"out": args.out, "format": args.format,
                     "frame": args.frame, "horizon": args.horizon,
                     "workers": args.workers}
        if args.tol is not None:
            overrides["abs_tol"], overrides["rel_tol"] = _parse_tol(args.tol)
        cfg = cfg.override(**overrides)

        if args.command == "verify":
            table, ok = _VERIFY(cfg)
            write_table(table, cfg)
            if not ok:
                emit_error("verify-failed",
                           "one or more self-checks exceeded tolerance",
                           "")
                return 1
            return 0

        table = _COMMANDS[args.command](cfg)
        write_table(table, cfg)
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
    flush still exits 120.  The finally also covers argparse's SystemExit
    for --help and for usage errors."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())

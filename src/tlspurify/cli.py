"""Command-line harness.

    tlspurify <command> [--config FILE] [--out PATH] [--format csv|json]
                        [--frame rwa|lab] [--tol ABS:REL] [--horizon MULT]
                        [--workers N]

Commands: simulate, scan-gamma, scan-beta, region-map, coherence-map,
purity-trace, verify.  Flags override the corresponding config keys; every
command writes one table to --out (stdout if omitted).  Errors go to
stderr as a JSON object {code, message, parameter} with a nonzero exit.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import sweeps
from .config import ConfigError, choices, load_config
from .output import emit_error, write_table

__all__ = ["main", "build_parser"]

_COMMANDS = {
    "simulate": sweeps.simulate_trace,
    "scan-gamma": sweeps.scan_gamma,
    "scan-beta": sweeps.scan_beta,
    "region-map": sweeps.region_map,
    "coherence-map": sweeps.coherence_map,
    "purity-trace": sweeps.purity_trace,
}

_HELP = {
    "simulate": "integrate one full-model trajectory and emit it",
    "scan-gamma": "pole time against gamma/J, bare and correlated",
    "scan-beta": "pole time against inverse temperature",
    "region-map": "stall-region labels over the (coupling, correlation) plane",
    "coherence-map": "coherence purity gain over the (xi, mu) plane",
    "purity-trace": "purity traces over a coherence grid",
    "verify": "run the self-check suite and report residuals",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML run configuration")
    common.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")
    common.add_argument("--format", choices=choices("format"),
                        help="output format (default: csv)")
    common.add_argument("--frame", choices=choices("frame"),
                        help="propagation frame for simulate")
    common.add_argument("--tol", metavar="ABS:REL",
                        help="integration tolerances, e.g. 1e-10:1e-10")
    common.add_argument("--horizon", metavar="MULT", type=float,
                        help="give-up time in units of the lossless pole time")
    common.add_argument("--workers", metavar="N", type=int,
                        help="worker processes for sweep fan-out")

    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
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
            table, ok = sweeps.verify_table(cfg)
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


if __name__ == "__main__":
    sys.exit(main())

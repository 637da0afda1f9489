"""Command line front end: one subcommand per experiment.

Exit codes: 0 all assertions passed, 1 an assertion was violated,
2 usage or sizing problem. Flags may come from the command line or a JSON
config file (--config); explicit flags win over the file. Each subcommand
takes only the parameters its experiment reads, the keys of its DEFAULTS
entry, plus seed, format and out; chord modes are fixed, not options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .dht import ENTRY_BOUND, FULL
from .errors import SizeLimitError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ExperimentFailure,
    emit,
    run_experiment,
)

DEFAULTS = {
    "trie-exact": {"m": 8, "w": 3, "k": 2},
    "trie-random": {"m": 12, "w": 4, "k": 2, "population": 1024, "trials": 10000},
    "identity-sweep": {"m": 20},
    "position-law": {"m": 10, "w": 3, "trials": 100000},
    "chord-single": {
        "m": 12, "n": 256, "trials": 1000, "entries_factor": 1, "mode": FULL,
    },
    "chord-wildcard": {
        "m": 16, "w": 4, "n": 1024, "trials": 1000, "entries_factor": 4,
        "mode": FULL,
    },
    "chord-decay": {
        "m": 16, "n": 256, "trials": 500, "entries_factor": 8,
        "mode": ENTRY_BOUND,
    },
}

# dest -> (flag, help) of every integer parameter; a subcommand gets the
# flags of the dests in its DEFAULTS entry
_PARAMETER_FLAGS = {
    "m": ("--m", "key length in letters/bits"),
    "w": ("--w", "number of wildcards"),
    "k": ("--k", "trie arity"),
    "n": ("--n", "ring nodes"),
    "population": ("--population", "keys stored per trie"),
    "entries_factor": (
        "--entries-factor",
        "entries = factor * m * n (for chord-decay, the sweep maximum)",
    ),
    "trials": (
        "--trials", "trial count (chord-single: 0 sweeps every target and start)",
    ),
}
_FORMATS = ("csv", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildquery",
        description="Wildcard query cost experiments over tries and a Chord ring",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENT_NAMES:
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        for dest, (flag, help_text) in _PARAMETER_FLAGS.items():
            if dest in DEFAULTS[name]:
                sub.add_argument(flag, dest=dest, type=int, help=help_text)
        sub.add_argument("--seed", type=int, help="master seed (required)")
        sub.add_argument(
            "--format", dest="fmt", choices=_FORMATS, help="report format"
        )
        sub.add_argument("--out", help="report path (default <experiment>.<format>)")
        sub.add_argument("--config", help="JSON file supplying any of the flags")
    return parser


def _check_types(merged: dict) -> None:
    """Reject config values the flags' own types would never produce."""
    for dest in _PARAMETER_FLAGS:
        if dest in merged and type(merged[dest]) is not int:
            raise SizeLimitError(f"{dest} must be an integer, got {merged[dest]!r}")
    seed = merged["seed"]
    if not (type(seed) is int or isinstance(seed, str)):
        raise SizeLimitError(f"seed must be an integer or a string, got {seed!r}")
    if "fmt" in merged and merged["fmt"] not in _FORMATS:
        raise SizeLimitError(
            f"fmt must be one of {', '.join(_FORMATS)}, got {merged['fmt']!r}"
        )
    if merged.get("out") is not None and not isinstance(merged["out"], str):
        raise SizeLimitError(f"out must be a path string, got {merged['out']!r}")


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # the subcommand's own flags: its parameters plus seed, fmt and out
    flags = {
        dest: value
        for dest, value in vars(args).items()
        if dest not in ("experiment", "config")
    }
    merged = dict(DEFAULTS[args.experiment])
    if args.config:
        try:
            with open(args.config) as handle:
                loaded = json.load(handle)
        except (OSError, ValueError) as exc:
            # ValueError: bad JSON, bad UTF-8, or an integer past the
            # interpreter's 4,300-digit conversion limit
            raise SizeLimitError(f"cannot read config {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise SizeLimitError(f"config {args.config} must hold a JSON object")
        stated = loaded.pop("experiment", args.experiment)
        if stated != args.experiment:
            raise SizeLimitError(
                f"config file is for {stated!r}, not {args.experiment!r}"
            )
        unknown = loaded.keys() - flags.keys()
        if unknown:
            raise SizeLimitError(
                f"{args.experiment} reads no config keys {sorted(unknown)}; "
                f"it takes {', '.join(flags)}"
            )
        merged.update(loaded)
    merged.update((dest, value) for dest, value in flags.items() if value is not None)
    if merged.get("seed") is None:
        raise SizeLimitError("a seed is mandatory; pass --seed")
    _check_types(merged)
    cfg = ExperimentConfig(experiment=args.experiment, **merged)
    if cfg.out is None:
        cfg.out = f"{cfg.experiment}.{cfg.fmt}"
    return cfg


def _check_writable(out: str) -> None:
    """Refuse a report path `emit` could not write, before the run starts."""
    # abspath("") is the working directory, which would pass the checks below
    if not out.strip():
        raise SizeLimitError(f"cannot write {out!r}: the report path is blank")
    parent = os.path.dirname(os.path.abspath(out))
    writable = os.path.isdir(parent) and os.access(parent, os.W_OK)
    if os.path.isdir(out) or not writable:
        raise SizeLimitError(f"cannot write {out}: not a writable file path")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        _check_writable(cfg.out)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg)
    except ExperimentFailure as exc:
        print(f"ASSERTION FAILED: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"sizing error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(report, cfg.fmt, cfg.out)
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.experiment}: {len(report.rows)} rows -> {cfg.out}")
    for key, value in report.aggregates.items():
        print(f"  {key} = {value}")
    if report.wall_clock_s is not None:
        print(f"wall clock: {report.wall_clock_s:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

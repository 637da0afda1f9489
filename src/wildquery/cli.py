"""Command line front end: one subcommand per experiment.

Exit codes: 0 all assertions passed, 1 an assertion was violated,
2 usage or sizing problem. Flags may come from the command line or a JSON
config file (--config); explicit flags win over the file. Each subcommand
takes only the parameters its experiment reads, the keys of its
`experiments.EXPERIMENTS` entry, plus seed, format and out; chord modes
are fixed there, not options.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import SizeLimitError
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentFailure,
    emit,
    run_experiment,
)

# dest -> help of every integer parameter; a subcommand gets the flag
# "--" + dest.replace("_", "-") of each dest in its EXPERIMENTS entry
_PARAMETER_HELP = {
    "m": "key length in letters/bits",
    "w": "number of wildcards",
    "k": "trie arity",
    "n": "ring nodes",
    "population": "keys stored per trie",
    "entries_factor": "entries = factor * m * n (for chord-decay, the sweep maximum)",
    "trials": "trial count (chord-single: 0 sweeps every target and start)",
}
_FORMATS = ("csv", "json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildquery",
        description="Wildcard query cost experiments over tries and a Chord ring",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, defaults) in EXPERIMENTS.items():
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        for dest, help_text in _PARAMETER_HELP.items():
            if dest in defaults:
                flag = "--" + dest.replace("_", "-")
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
    for dest in _PARAMETER_HELP:
        if dest in merged and type(merged[dest]) is not int:
            raise SizeLimitError(f"{dest} must be an integer, got {merged[dest]!r}")
    seed = merged["seed"]
    seed_error = f"seed must be an integer or a UTF-8 string, got {seed!r}"
    if type(seed) is not int and not isinstance(seed, str):
        raise SizeLimitError(seed_error)
    if isinstance(seed, str):
        # the generators hash a string seed's UTF-8 bytes, and the CSV holds them
        try:
            seed.encode()
        except UnicodeEncodeError:
            raise SizeLimitError(seed_error)
    if "fmt" in merged and merged["fmt"] not in _FORMATS:
        raise SizeLimitError(
            f"fmt must be one of {', '.join(_FORMATS)}, got {merged['fmt']!r}"
        )
    out = merged.get("out")
    if out is None:
        return
    out_error = f"out must be a file path string, got {out!r}"
    # open() refuses a NUL, and a path the file system encoding cannot spell
    if not isinstance(out, str) or "\0" in out:
        raise SizeLimitError(out_error)
    try:
        os.fsencode(out)
    except UnicodeEncodeError:
        raise SizeLimitError(out_error)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    # the subcommand's own flags: its parameters plus seed, fmt and out
    flags = {
        dest: value
        for dest, value in vars(args).items()
        if dest not in ("experiment", "config")
    }
    _, defaults = EXPERIMENTS[args.experiment]
    merged = dict(defaults)
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
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
        cfg = cfg._replace(out=f"{cfg.experiment}.{cfg.fmt}")
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
    started = time.perf_counter()
    try:
        report = run_experiment(cfg)
    except ExperimentFailure as exc:
        print(f"ASSERTION FAILED: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"sizing error: {exc}", file=sys.stderr)
        return 2
    wall_clock = time.perf_counter() - started
    try:
        emit(report, cfg.fmt, cfg.out)
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(f"{cfg.experiment}: {len(report.rows)} rows -> {cfg.out}")
    for key, value in report.aggregates.items():
        print(f"  {key} = {value}")
    print(f"wall clock: {wall_clock:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

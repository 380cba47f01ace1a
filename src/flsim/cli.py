"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 divergence (single run).
"""
from __future__ import annotations

import argparse
import glob
import os
import sys

from .errors import ConfigError
from .harness import (
    ExperimentConfig,
    SweepSpec,
    export_curves,
    format_rows,
    parse_config,
    run_experiment,
    run_sweep,
    summarize,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _load(path):
    with open(path, errors="replace") as fh:  # a bad byte fails parsing
        return parse_config(fh.read())


def _find_metrics(target):
    if os.path.isfile(target):
        return [target]
    found = sorted(glob.glob(os.path.join(target, "**", "metrics.jsonl"), recursive=True))
    if not found:
        raise ConfigError(f"no metrics.jsonl under {target}")
    return found


def cmd_run(args) -> int:
    exp = _load(args.config)
    if not isinstance(exp, ExperimentConfig):
        raise ConfigError("config describes a sweep; use the 'sweep' command")
    _, row = run_experiment(exp, args.out)
    print(format_rows([row]), end="")
    return EXIT_OK if row.status == "completed" else EXIT_DIVERGED


def cmd_sweep(args) -> int:
    spec = _load(args.config)
    if not isinstance(spec, SweepSpec):
        raise ConfigError("config describes a single run; use the 'run' command")
    run_sweep(spec, args.out)
    print(f"wrote {os.path.join(args.out, 'sweep.csv')}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    errors = []
    rows = summarize(_find_metrics(args.target), errors=errors)
    print(format_rows(rows), end="")
    for _, exc in errors:  # each error names its file
        print(f"error: {exc}", file=sys.stderr)
    return EXIT_OK if not errors else EXIT_CONFIG


def cmd_export(args) -> int:
    out = args.out or "curves.csv"
    export_curves(_find_metrics(args.target), out, last=args.last)
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one experiment from a config file")
    p.add_argument("config")
    p.add_argument("--out", default="out/run")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="execute a hyperparameter sweep")
    p.add_argument("config")
    p.add_argument("--out", default="out/sweep")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("summarize", help="best accuracy per metrics file")
    p.add_argument("target", help="metrics file or directory of runs")
    p.set_defaults(fn=cmd_summarize)

    p = sub.add_parser("export", help="plot-ready accuracy curves")
    p.add_argument("target", help="metrics file or directory of runs")
    p.add_argument("--out", default=None)
    p.add_argument("--last", type=int, default=None, help="keep only the last N rounds")
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

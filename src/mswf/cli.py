"""Command line front end: mswf experiment --config <json> [--out-dir <dir>].

`--config` is a file path or inline JSON; this module is the package's one
reader of outside text, and `mswf.experiments` owns the config's keys.

Exit codes: 0 success, 2 guard violation or bad input, 3 numeric failure,
4 consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiments
from .errors import InputError, MswfError, json_object


def _cmd_experiment(args) -> int:
    config = args.config
    try:
        text = config if config.lstrip().startswith("{") else Path(config).read_text()
        cfg = json_object(json.loads(text))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read JSON from {config!r}: {exc}") from None
    if args.out_dir:
        cfg["out_dir"] = args.out_dir
    summary = experiments.run_experiment(cfg)
    keys = [k for k in ("agreement", "fraction_not_in_wf") if k in summary]
    note = " ".join(f"{k}={summary[k]!r}" for k in keys)
    print(f"experiment {summary['experiment']}: {note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mswf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True, help="JSON file or inline JSON")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MswfError as exc:
        print(f"error[{exc.exit_code}] {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

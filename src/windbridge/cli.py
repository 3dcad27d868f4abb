"""Command-line front end for the batch pipeline."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .errors import WindBridgeError
from .pipeline import STAGES, RunConfig, load_config, run_pipeline, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windbridge",
        description="Simulate ramp-rate penalties for a wind turbine with battery storage.",
    )
    parser.add_argument("--config", type=Path, help="INI run configuration")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config)")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--paths", type=int, help="Monte Carlo path count")
    parser.add_argument("--horizon", type=int, help="penalty horizon in steps")
    parser.add_argument(
        "--limit", type=float, action="append", dest="limits", metavar="FRACTION",
        help="ramp limit as a fraction of rated capacity (repeatable)",
    )
    parser.add_argument("--stage", choices=STAGES, help="run a single stage")
    parser.add_argument("--dump-paths", action="store_true", help="dump a sample path CSV")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def _configure(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        cfg = load_config(args.config, out_dir=args.out)
    else:
        cfg = RunConfig(out_dir=args.out or Path("windbridge_out"))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.paths is not None:
        overrides["n_paths"] = args.paths
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.limits:
        overrides["limits"] = tuple(args.limits)
    if args.dump_paths:
        overrides["dump_paths"] = True
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = _configure(args)
        if args.stage:
            artifacts = run_stage(cfg, args.stage)
        else:
            artifacts = run_pipeline(cfg)
    except WindBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

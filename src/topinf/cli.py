"""Command-line entry point exposing the pipeline stages.

Every subcommand takes an experiment configuration file (flat ``key =
value`` lines, see :mod:`topinf.config`) plus optional overrides, and
reads/writes artifacts in the configured output directory::

    topinf pipeline     --config heat.cfg
    topinf simulate-fom --config heat.cfg --out runs/heat
    topinf infer        --config heat.cfg --out runs/heat --method lstsq --r 4

Stages run independently, so a sweep can be resumed or a single stage
rerun with different settings against the same artifact directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline
from .config import METHODS, load_config_file
from .errors import NumericError, ResourceLimitError, StorageFormatError, StructureError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topinf",
        description="parametric operator inference experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="FILE",
                        help="experiment configuration file")
    common.add_argument("--out", metavar="DIR",
                        help="artifact directory (default: output_dir from the config)")
    common.add_argument("--seed", type=int, help="override the configured seed")
    common.add_argument("--method", action="append", dest="methods", choices=METHODS,
                        help="override the inference methods (repeatable)")
    common.add_argument("--r", action="append", dest="reduced_dims", type=int,
                        metavar="R", help="override the reduced dimensions (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("pipeline", parents=[common], help="run all five stages in order")
    for name, stage in pipeline.STAGES:  # help: the docstring's first line, if not stripped (-OO)
        sub.add_parser(name.replace("_", "-"), parents=[common],
                       help=(stage.__doc__ or "").strip().split("\n")[0] or None)
    return parser


def _configure(args: argparse.Namespace):
    cfg = load_config_file(args.config)
    updates: dict = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.methods:
        updates["methods"] = tuple(dict.fromkeys(args.methods))
    if args.reduced_dims:
        updates["reduced_dims"] = tuple(sorted(set(args.reduced_dims)))
    if args.out is not None:
        updates["output_dir"] = args.out
    if updates:
        cfg = dataclasses.replace(cfg, **updates).validate()
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _configure(args)
        outdir = Path(cfg.output_dir)
        if args.command == "pipeline":
            pipeline.run_pipeline(cfg, outdir)
        else:
            dict(pipeline.STAGES)[args.command.replace("-", "_")](cfg, outdir)
    except (ValueError, OSError, NumericError, ResourceLimitError, StructureError,
            StorageFormatError) as exc:
        print(f"topinf: error: {exc}", file=sys.stderr)
        return 1
    print(f"topinf: {args.command} done, artifacts in {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

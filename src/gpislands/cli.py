"""Command-line experiment runner.

One invocation runs one experimental cell and writes two CSV files: the
per-generation rows and the across-iteration summary.  Exit status is 0 on
success and 2 for unusable arguments or configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .harness import (
    ExperimentConfig,
    run_experiment,
    summary_path_for,
    write_rows_csv,
    write_summary_csv,
)
from .trees import ConfigurationError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpislands",
        description="Evolve programs on one or more islands and record fitness statistics.")
    parser.add_argument("--app", required=True, choices=["feed", "localisation"],
                        help="benchmark task to evolve against")
    parser.add_argument("--islands", type=int)
    parser.add_argument("--capacity", type=int,
                        help="programs per island; gr, localisation and strategy "
                             "files state their own")
    parser.add_argument("--generations", type=int)
    parser.add_argument("--iterations", type=int,
                        help="independent repetitions of the whole run")
    parser.add_argument("--interval", type=int,
                        help="generations between migration events")
    parser.add_argument("--rate", type=float,
                        help="fraction of an island's members exchanged per event")
    parser.add_argument("--mode", choices=["migrate", "random", "none"],
                        help="exchange programs, inject random ones, or do neither")
    parser.add_argument("--landscape", choices=["homo", "hetero"],
                        help="same reader everywhere, or per-island tastes (feed only)")
    parser.add_argument("--seed", help="base seed for the whole experiment")
    parser.add_argument("--out", default="results.csv", help="per-generation CSV path")
    parser.add_argument("--transport", choices=["sim", "udp"])
    parser.add_argument("--loss", type=float,
                        help="per-delivery loss probability of the simulated transport")
    parser.add_argument("--strategy",
                        help="breeding strategy: auto, gr, island, localisation, "
                             "or a JSON file")
    parser.add_argument("--app-config", dest="app_config",
                        help="JSON file overriding the task's catalog or world")
    parser.add_argument("--helper", action=argparse.BooleanOptionalAction,
                        help="screen generated programs with the task helper (the feed "
                             "task has none, so --no-helper changes nothing there)")
    parser.add_argument("--max-depth", dest="max_depth", type=int)
    parser.add_argument("--udp-base-port", dest="udp_base_port", type=int)
    # every option but --out is a field of the config, and defaults to it
    parser.set_defaults(**ExperimentConfig._field_defaults)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment the parsed options describe."""
    options = vars(args).copy()
    del options["out"]
    return ExperimentConfig(**options)


def _check_output_paths(*paths: str) -> None:
    """Raise :class:`ConfigurationError` unless each path names a file in a
    directory that exists.  Creates and truncates nothing: it runs before the
    experiment, so a missing directory or a directory in the way is reported
    before the run and not after it."""
    for path in paths:
        if os.path.isdir(path):
            raise ConfigurationError(f"output path {path!r} is a directory")
        directory = os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise ConfigurationError(f"output directory {directory!r} does not exist")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    summary_path = summary_path_for(args.out)
    try:
        _check_output_paths(args.out, summary_path)
        result = run_experiment(config)
        write_rows_csv(result, args.out)
        write_summary_csv(result, summary_path)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(result.rows)} rows to {args.out}")
    print(f"wrote summary to {summary_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

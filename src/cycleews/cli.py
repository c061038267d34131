"""Command-line interface.

Subcommands: simulate, features, classify, experiment, figures, diagnose.
Data goes to files under --out; progress and warnings go to stderr.
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .experiment import (ConfigError, classify_from_csv, load_config, run_diagnose,
                         run_experiment, run_features_command, run_figures,
                         simulate_one)


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--out", help="output directory (overrides out_dir)")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--runs", type=int, help="number of runs override")
    parser.add_argument("--threads", type=int,
                        help="worker processes for the ensemble and the SVM fits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleews",
        description="Simulation and early-warning benchmark for a slowly "
                    "forced bistable oscillator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write one trajectory and its events")
    _add_shared(p)
    p.add_argument("--run-index", type=int, default=0,
                   help="ensemble run index to reproduce (default 0)")
    p.add_argument("--run-seed", type=int, help="explicit run seed (overrides index)")

    p = sub.add_parser("features", help="simulate the ensemble and extract features")
    _add_shared(p)

    p = sub.add_parser("classify", help="cross-validate features from a CSV")
    _add_shared(p)
    p.add_argument("--features", help="features CSV (default <out>/features.csv)")

    p = sub.add_parser("experiment",
                       help="full pipeline incl. importances, PCA and figure data (d, e)")
    _add_shared(p)

    p = sub.add_parser("figures", help="figure data (a)-(c): breakdown run, amplitude levels")
    _add_shared(p)

    p = sub.add_parser("diagnose", help="geometry diagnostics over a parameter grid")
    _add_shared(p)
    p.add_argument("--da", default="1.2",
                   help="comma-separated forcing amplitudes (default 1.2)")
    p.add_argument("--periods", default="225",
                   help="comma-separated forcing periods (default 225)")
    return parser


def _overrides(args) -> dict:
    return {"out_dir": args.out, "master_seed": args.seed,
            "n_runs": args.runs, "threads": args.threads}


def _grid(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
        if args.command == "simulate":
            simulate_one(config, run_index=args.run_index, run_seed=args.run_seed)
        elif args.command == "features":
            run_features_command(config)
        elif args.command == "classify":
            features = args.features or f"{config.out_dir}/features.csv"
            classify_from_csv(config, features)
        elif args.command == "experiment":
            run_experiment(config)
        elif args.command == "figures":
            run_figures(config)
        elif args.command == "diagnose":
            run_diagnose(config, _grid(args.da, "--da"), _grid(args.periods, "--periods"))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

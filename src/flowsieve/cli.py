"""Command-line entry point.

Subcommands: preprocess, select, train-eval, run. Exit codes: 0 on success,
1 on a configuration/validation error, 2 on a runtime failure. The output
directory can be overridden by --out or the FLOWSIEVE_OUT environment
variable (flag wins).
"""

import argparse
import os
import sys

from .config import ConfigError, apply_overrides, load_config
from .pipeline import cmd_preprocess, cmd_run, cmd_select, cmd_train_eval

OUTPUT_DIR_ENV = "FLOWSIEVE_OUT"

_COMMANDS = {
    "preprocess": cmd_preprocess,
    "select": cmd_select,
    "train-eval": cmd_train_eval,
    "run": cmd_run,
}


def _comma_list(text: str) -> list[str]:
    return [part for part in (p.strip() for p in text.split(",")) if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsieve",
        description="Clean flow-feature tables, rank features with six filter "
                    "methods, and train/evaluate five classifiers per attack.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("preprocess", "clean, encode, normalize, and split the input tables"),
            ("select", "score features and select subsets per threshold"),
            ("train-eval", "sample, train the five classifiers, and report metrics"),
            ("run", "run all three stages")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--attacks", type=_comma_list,
                       help="comma-separated subset of the config's attack labels")
        p.add_argument("--thresholds", help="comma-separated threshold grid override")
    return parser


def _parse_thresholds(text: str) -> list[float]:
    try:
        return [float(part) for part in _comma_list(text)]
    except ValueError as exc:
        raise ConfigError(f"--thresholds: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        out = args.out or os.environ.get(OUTPUT_DIR_ENV)
        thresholds = _parse_thresholds(args.thresholds) if args.thresholds else None
        cfg = apply_overrides(cfg, output_dir=out, attacks=args.attacks,
                              thresholds=thresholds)
    except ConfigError as exc:
        print(f"flowsieve: config error: {exc}", file=sys.stderr)
        return 1
    try:
        ctx = _COMMANDS[args.command](cfg)
    except Exception as exc:  # noqa: BLE001 - every runtime failure maps to exit 2
        print(f"flowsieve: {args.command} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    print(f"flowsieve: {args.command} finished; outputs in {ctx.run_dir}")
    for message in ctx.warnings:
        print(f"flowsieve: warning: {message}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

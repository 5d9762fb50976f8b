"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (PRESETS, ConfigError, compare_runs,
                      format_compare_report, gen_config, run)
from .trainer import TrainingDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="josnc", description="Noise-robust training experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.add_argument("--output-dir", default=None,
                       help="override the config's output directory")

    p_cmp = sub.add_parser("compare", help="delta report between two run dirs")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--json", action="store_true",
                       help="emit the machine-readable report instead of text")

    p_gen = sub.add_parser("gen-config", help="print a preset config")
    p_gen.add_argument("preset", choices=list(PRESETS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out_dir = run(args.config, output_dir_override=args.output_dir)
            print(f"run complete: {out_dir}")
        elif args.command == "compare":
            report = compare_runs(args.dir_a, args.dir_b)
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print(format_compare_report(report))
        elif args.command == "gen-config":
            print(json.dumps(gen_config(args.preset), indent=2))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training diverged: {exc} (partial artifacts retained)",
              file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

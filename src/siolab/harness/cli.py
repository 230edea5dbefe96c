"""Command-line entry point.

    siolab run <config-file>              run the configured scenario

The scenario is the config's ``[scenario] tag``.  Flags: --seed
overrides the config seed, --threads sets the worker count (an integer
>= 1, capped at the CPU count), --out-dir sets the output directory
(default: SIOLAB_OUT from the environment, else the current directory).
Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 configuration
error (including an input past an operator's size guard) or a bad flag.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .scenarios import run_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="siolab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run the scenario named in the config")
    run_p.add_argument("config", help="path to a flat key = value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--threads", type=int, default=1, help="worker count, >= 1")
    run_p.add_argument("--out-dir", default=None, help="output directory")
    args = parser.parse_args(argv)
    if args.threads < 1:
        run_p.error(f"argument --threads: must be >= 1, got {args.threads}")

    try:
        report = run_scenario(
            load_config(args.config),
            seed_override=args.seed,
            threads=args.threads,
            out_dir=args.out_dir or os.environ.get("SIOLAB_OUT", "."),
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(report.to_text(), end="")
    return EXIT_PASS if report.passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

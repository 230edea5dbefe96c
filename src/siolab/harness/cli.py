"""Command-line entry points.

    siolab run <config-file>              run the configured scenario
    siolab validate-kernel <config-file>  kernel class validation only
    siolab build-measure <config-file> --out <path>   serialize a measure
    siolab pv <config-file>               principal-value convergence only

Flags: --seed overrides the config seed, --threads sets the worker
count, --out-dir sets the output directory (default: SIOLAB_OUT from
the environment, else the current directory).  Exit codes: 0 all
verdicts pass, 1 a verdict failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..measure import save_measure
from .config import ConfigError, build_measure, load_config, optional_graph
from .scenarios import run_scenario

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to a flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--threads", type=int, default=1, help="worker count")
    parser.add_argument("--out-dir", default=None, help="output directory")


def _out_dir(args) -> str:
    if args.out_dir:
        return args.out_dir
    return os.environ.get("SIOLAB_OUT", ".")


def _run_with_tag(args, forced_tag: str | None = None) -> int:
    try:
        cfg = load_config(args.config)
        if forced_tag is not None:
            cfg.sections.setdefault("scenario", {})["tag"] = forced_tag
        report = run_scenario(
            cfg, seed_override=args.seed, threads=args.threads, out_dir=_out_dir(args)
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(report.to_text(), end="")
    return EXIT_PASS if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="siolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the scenario named in the config")
    _add_common(run_p)

    vk_p = sub.add_parser("validate-kernel", help="run kernel validation")
    _add_common(vk_p)

    pv_p = sub.add_parser("pv", help="run principal-value convergence")
    _add_common(pv_p)

    bm_p = sub.add_parser("build-measure", help="build and serialize a measure")
    bm_p.add_argument("config")
    bm_p.add_argument("--out", required=True, help="output path for the measure file")
    bm_p.add_argument("--section", default="mu", help="config section holding the spec")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run_with_tag(args)
    if args.command == "validate-kernel":
        return _run_with_tag(args, forced_tag="KernelValidation")
    if args.command == "pv":
        return _run_with_tag(args, forced_tag="PVConvergence")
    if args.command == "build-measure":
        try:
            cfg = load_config(args.config)
            mu = build_measure(cfg, args.section, graph=optional_graph(cfg))
            cfg.check_all_read()
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        save_measure(mu, args.out)
        print(f"wrote {mu.count} atoms to {args.out}")
        return EXIT_PASS
    parser.error(f"unknown command {args.command}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

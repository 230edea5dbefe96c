"""Regenerate ``reference.json``, the outputs every benchmark run is
checked against.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are known to be right
(all acceptance criteria pass).  Runs whose outputs depend on the seed
are stored for bench seeds 0 to 63; the others once.  Pair-sum
runs also store their own cancellation bound, which is the tolerance
their values are checked with.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDS = 64


def _run(run_scenario, config_from_dict, cfg):
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".perfbench_work")) as out:
        report = run_scenario(config_from_dict(cfg), threads=1, out_dir=out)
        if not report.passed:
            raise SystemExit(f"{cfg['scenario']['tag']} failed its verdicts: refusing to store it")
        csvs = {}
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(os.path.join(out, name), newline="") as fh:
                    csvs[name] = fh.read()
    noise = None
    for verdict in report.verdicts:
        found = re.search(r"noise ([0-9.e+-]+)", verdict.detail)
        if found:
            noise = float(found.group(1))
    return csvs, noise


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from siolab.harness import config_from_dict, run_scenario

    os.makedirs(".perfbench_work", exist_ok=True)
    runs = {}
    for workload, entries in workloads.WORKLOADS.items():
        for run, make, seeded in entries:
            entry = {}
            if seeded:
                entry["seeds"] = {}
                for seed in range(SEEDS):
                    entry["seeds"][str(seed)], _ = _run(run_scenario, config_from_dict, make(seed))
                    print(f"{workload}/{run} seed {seed}", flush=True)
            else:
                entry["any_seed"], noise = _run(run_scenario, config_from_dict, make(workloads.DEFAULT_SEED))
                if noise is not None:
                    entry["noise"] = noise
                print(f"{workload}/{run}", flush=True)
            runs[run] = entry
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump({"default_seed": workloads.DEFAULT_SEED, "runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

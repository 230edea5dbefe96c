"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py --workloads tables --seeds 10 --out spread.json

Runs the benchmark command from ``BENCHMARK.json`` once per seed
(1 to ``--seeds``) and workload, from the root of a checkout, and
reports for every metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  A spread above a
third of the metric's bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="comma separated; default all")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", help="write the per-run values and statistics here")
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {}
        failures = 0
        for seed in range(1, args.seeds + 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=200)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failures += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()), flush=True)
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread <= bounds[name] / 3 else "  ABOVE A THIRD OF THE BOUND"
            ok = ok and (name == "setup_s" or spread <= bounds[name])
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:15s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:.4f} (bound {bounds[name]}){flag}")
        ok = ok and failures == 0
        report[workload] = {"failures": failures, "metrics": stats}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

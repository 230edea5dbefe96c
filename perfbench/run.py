"""siolab benchmark: one workload, timed end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 0 --seconds 54 --trace 0

Each workload runs in a fresh worker process through the public
``siolab.harness.run_scenario`` with ``threads=1``, writing its CSVs and
reports to a temporary directory under ``.perfbench_work/``.

``--trace 0`` reports the end-to-end metrics: the median wall and CPU
seconds of a pass over the workload's scenario runs, the median set-up
time over several fresh processes, and the peak resident memory.
``--trace 1`` makes a traced pass at the next seed, which also warms
the process up, then an untraced pass and the same pass traced, and
reports per-layer self times and computed work counts (see
``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero
without that line when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 15  # fresh processes timed to the first run_scenario call
DEADLINE_S = 170.0  # every run must end within 180 s


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "operators.table_bytes":
        return "B"
    if name in ("operators.pair_useful_ratio", "harness.span_coverage"):
        return "ratio"
    return "count"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=54)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _worker(root, args, extra, timeout):
    """Run the worker; (monotonic start, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "siolab", "__init__.py")):
        print("no siolab sources under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    begun = time.monotonic()

    def remaining():
        return DEADLINE_S - (time.monotonic() - begun)

    def setup_samples(count):
        for _ in range(count):
            start, out = _worker(root, args, ["--setup-only"], remaining())
            setups.append(out["setup_mark"] - start)

    # half of the set-up samples before the passes and half after, so
    # that they see more than one phase of a host whose speed drifts
    setups = []
    if not args.trace:
        setup_samples(SETUP_SAMPLES // 2)
    start, out = _worker(root, args, [], remaining())
    if not args.trace:
        setup_samples(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, threads=1")
    for line in out["problems"]:
        print(f"FAILED {line}")
    print(f"fail_frac   {out['failed'] / max(out['attempted'], 1):.4f}  "
          f"({out['failed']} of {out['attempted']} scenario runs)")
    if args.trace:
        metrics = {name: (value, layer_unit(name)) for name, value in sorted(out["layers"].items())}
        print(f"traced pass {out['traced_wall_s']:.3f} s, untraced {out['untraced_wall_s']:.3f} s; "
              f"largest self time: {out['largest_self_time']}")
        for name, (value, unit) in metrics.items():
            label = "computed" if unit in ("count", "B") and name != "harness.csv_identical" else ""
            print(f"{name:32s} {value:>16.6g} {unit:5s} {label}")
    else:
        setups.append(out["setup_mark"] - start)
        metrics = {
            "wall_s": (statistics.median(out["walls"]), "s"),
            "cpu_s": (statistics.median(out["cpus"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
        }
        samples = {"wall_s": out["walls"], "cpu_s": out["cpus"], "setup_s": setups}
        for name, (value, unit) in metrics.items():
            shown = ", ".join(f"{v:.3f}" for v in samples.get(name, []))
            note = f"median of {len(samples[name])}: {shown}" if name in samples else "peak"
            print(f"{name:12s} {value:10.4f} {unit:4s} ({note})")
    result = {
        "correct": out["failed"] == 0 and out.get("counts_stable", True),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in a fresh process: set-up, timed passes, output checks.

Started by ``run.py``; prints one JSON object as its last line.  With
``--setup-only`` it stops where the first ``run_scenario`` call would
be and reports that moment as a ``time.monotonic()`` reading, which
the parent compares with the moment it started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

import checks
import workloads


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _import_siolab(root: str):
    """Import siolab from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (set-up covers the numpy import)
    import siolab
    from siolab.harness import config_from_dict, run_scenario

    where = os.path.realpath(os.path.dirname(siolab.__file__))
    if where != os.path.realpath(os.path.join(src, "siolab")):
        raise SystemExit(f"siolab imported from {where}, not from {src}")
    return config_from_dict, run_scenario


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class Workload:
    """The scenario runs of one workload at one bench seed."""

    def __init__(self, name, seed, config_from_dict, run_scenario, work_dir):
        self.name = name
        self.seed = seed
        self.dicts = workloads.configs(name, seed)
        self.config_from_dict = config_from_dict
        self.run_scenario = run_scenario
        self.work_dir = work_dir

    def build(self):
        return [(run, self.config_from_dict(d)) for run, d in self.dicts]

    def run_pass(self, configs, tracer=None):
        """One timed pass writing CSVs and reports to a temporary
        directory; returns (wall s, cpu s, errors per run, CSV bytes)."""
        pass_dir = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_dir)
        errors: dict[str, list[str]] = {}
        try:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            for run, cfg in configs:
                out_dir = os.path.join(pass_dir, run)
                try:
                    with tracer.span("harness.run") if tracer else nullcontext():
                        report = self.run_scenario(cfg, threads=1, out_dir=out_dir)
                    errors[run] = [f"{run}: verdict {v.name} failed ({v.detail})"
                                   for v in report.verdicts if not v.passed]
                except Exception:  # a raising scenario is a failed run, not a crash
                    errors[run] = [f"{run}: raised\n{traceback.format_exc()}"]
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            csvs = {run: _read_csvs(os.path.join(pass_dir, run)) for run, _ in configs}
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        return wall, cpu, errors, csvs


def _read_csvs(out_dir) -> dict[str, bytes]:
    """CSV file name -> bytes; empty when the run wrote nothing."""
    out = {}
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name.endswith(".csv"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    out[name] = fh.read()
    return out


class Ledger:
    """Attempted and failed scenario runs with the reasons."""

    def __init__(self, workload, reference):
        self.reference = reference
        self.seeded = workloads.seeded_runs(workload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, seed, errors, csvs, first_csvs=None, label=""):
        """Check one pass; ``first_csvs`` must match it byte for byte.
        Returns how many CSVs are byte-equal to the reference."""
        identical = 0
        for run, produced in csvs.items():
            self.attempted += 1
            problems = list(errors.get(run, []))
            if not problems:
                expected, exact = checks.reference_csvs(self.reference, run, seed, run in self.seeded)
                noise = self.reference["runs"][run].get("noise")
                problems += checks.compare_run(run, produced, expected, exact, noise)
                if exact:
                    identical += checks.identical_csvs(produced, expected)
            if first_csvs is not None and produced != first_csvs.get(run):
                problems.append(f"{run}: CSV bytes differ from the {label}")
            if problems:
                self.failed += 1
                self.problems += [f"seed {seed}: {p}" for p in problems]
        return identical


def _timed(wl, ledger, seconds):
    """Passes until the next one would overrun ``seconds``."""
    configs = wl.build()
    setup_mark = time.monotonic()
    walls, cpus, first = [], [], None
    start = time.perf_counter()
    while True:
        wall, cpu, errors, csvs = wl.run_pass(configs)
        ledger.record(wl.seed, errors, csvs, first, "first pass of this run")
        first = first or csvs
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start + wall > seconds:
            break
        configs = wl.build()
    return {"walls": walls, "cpus": cpus, "setup_mark": setup_mark}


def _traced_pass(wl):
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wall, _, errors, csvs = wl.run_pass(wl.build(), tracer)
    return tracer, wall, errors, csvs


def _traced(wl, other, ledger, spans_path):
    """A traced pass at another seed, which also warms the process up,
    then an untraced pass and the same pass traced; returns the
    per-layer numbers of the last one."""
    import tracing

    tracer_other, _, errors, csvs = _traced_pass(other)
    ledger.record(other.seed, errors, csvs)
    wall_u, _, errors, plain = wl.run_pass(wl.build())
    identical = ledger.record(wl.seed, errors, plain)
    tracer, wall_t, errors, csvs = _traced_pass(wl)
    ledger.record(wl.seed, errors, csvs, plain, "untraced pass")
    tracer.dump(spans_path)
    layers = tracing.layer_metrics(tracer)
    other_counts = tracing.layer_metrics(tracer_other)
    counts_stable = True
    for name in tracing.COUNT_METRICS:
        if name not in tracing.SEED_DEPENDENT_COUNTS and layers[name] != other_counts[name]:
            counts_stable = False
            ledger.problems.append(
                f"count {name} changed with the seed: {layers[name]} at seed {wl.seed}, "
                f"{other_counts[name]} at seed {other.seed}"
            )
    layers["harness.trace_overhead_s"] = wall_t - wall_u
    layers["harness.csv_identical"] = identical
    self_s = {k: v for k, v in layers.items() if k in set(tracing.SELF_TIME_METRICS.values())}
    return {
        "layers": layers,
        "counts_stable": counts_stable,
        "untraced_wall_s": wall_u,
        "traced_wall_s": wall_t,
        "largest_self_time": max(self_s, key=self_s.get),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    config_from_dict, run_scenario = _import_siolab(args.root)
    work_dir = os.path.join(args.root, ".perfbench_work")
    wl = Workload(args.workload, args.seed, config_from_dict, run_scenario, work_dir)
    if args.setup_only:
        wl.build()
        print(json.dumps({"setup_mark": time.monotonic()}))
        return 0

    ledger = Ledger(args.workload, checks.load_reference())
    if args.trace:
        other = Workload(args.workload, args.seed + 1, config_from_dict, run_scenario, work_dir)
        spans_path = os.path.join(work_dir, f"spans-{args.workload}-seed{args.seed}.json")
        result = _traced(wl, other, ledger, spans_path)
    else:
        result = _timed(wl, ledger, args.seconds)
    peak_kb = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result.update(
        peak_rss_mb=peak_kb / 1024.0,
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of siolab from outside the package.

Wrappers are installed at the name each caller looks up and removed
afterwards, so no file of the package changes:

* functions imported by name (``from ..operators import pair_sum_stats``)
  are wrapped in every importing module;
* module globals called from inside a module (``cone_mesh`` from
  ``nontangential_max``, ``graph_measure`` from ``measure.build`` and
  from the function-body imports of the Carleson scenario) are wrapped
  on the defining module;
* methods (``TruncationTable.*``, ``*.evaluate_many``,
  ``LipschitzGraph.*``) are wrapped on the class.

Spans live in memory as (id, parent, name, start, end) with
``perf_counter_ns`` times.  Counts are computed from call arguments and
results at the same boundaries, so they ignore cache behaviour and
repeat exactly for equal inputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "operators.maximal": "operators.maximal_s",
    "operators.table_build": "operators.table_build_s",
    "operators.truncated_pp": "operators.truncated_pp_s",
    "operators.hl_maximal": "operators.hl_maximal_s",
    "operators.pair_sum": "operators.pair_sum_s",
    "operators.cone_mesh": "operators.cone_mesh_s",
    "operators.nontangential": "operators.nontangential_s",
    "operators.lp_norm": "operators.lp_norm_s",
    "kernel.eval": "kernel.eval_s",
    "pairing.convergence_study": "pairing.convergence_study_s",
    "measure.build": "measure.build_s",
    "geometry.frame": "geometry.frame_s",
    "geometry.classify": "geometry.classify_s",
    "geometry.decompose": "geometry.decompose_s",
    "harness.densities": "harness.densities_s",
    "harness.pmap": "harness.pmap_s",
    "harness.write": "harness.write_s",
    "harness.run": "harness.self_s",
}

# computed work counts; every one but pairs_included is independent of
# the seed, because the workloads fix all sizes
COUNT_METRICS = [
    "operators.scan_cells",
    "operators.table_cells",
    "operators.table_bytes",
    "operators.hl_cells",
    "operators.pair_sum_calls",
    "operators.pairs_attempted",
    "operators.pairs_included",
    "operators.mesh_points",
    "kernel.evals",
    "pairing.blocks",
    "measure.atoms",
]
SEED_DEPENDENT_COUNTS = {"operators.pairs_included"}

# a TruncationTable stores P x N int64 order, float64 distances and
# kernel terms, and a bool candidate mask: 8 + 8 + 8 + 1 bytes per cell
TABLE_BYTES_PER_CELL = 25


class Tracer:
    """In-memory span recorder with computed counters."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    @property
    def parent_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(tracer, args,
        kwargs, result)`` runs after the call, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its child spans."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start - child_ns[sid]) * 1e-9
        return out

    def total_time(self, name: str) -> float:
        return sum(end - start for _, _, n, start, end in self.spans if n == name) * 1e-9

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "self_s": dict(sorted(self.self_times().items())),
                },
                fh,
            )


# ---------------------------------------------------------------------------
# Counters, computed from arguments and results
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(points) -> int:
    return len(np.atleast_2d(np.asarray(points)))


def _table_cells(tables):
    def count(tr, args, kwargs, result):
        table = args[0]
        cells = _rows(_arg(args, kwargs, 3, "points")) * _arg(args, kwargs, 1, "nu").count
        tables[table] = cells
        tr.counts["operators.table_cells"] += cells
        tr.counts["operators.table_bytes"] += cells * TABLE_BYTES_PER_CELL

    return count


def _scan_cells(tables):
    def count(tr, args, kwargs, result):
        tr.counts["operators.scan_cells"] += tables[args[0]]

    return count


def _hl_cells(tr, args, kwargs, result):
    cells = _rows(_arg(args, kwargs, 2, "points")) * _arg(args, kwargs, 0, "nu").count
    tr.counts["operators.hl_cells"] += cells


def _pair_counts(blocks: bool):
    def count(tr, args, kwargs, result):
        n_a = len(_arg(args, kwargs, 0, "pos_a"))
        n_b = len(_arg(args, kwargs, 2, "pos_b"))
        tr.counts["operators.pair_sum_calls"] += 1
        tr.counts["operators.pairs_attempted"] += n_a * n_b
        tr.counts["operators.pairs_included"] += result.pair_count
        if blocks:
            tr.counts["pairing.blocks"] += 1

    return count


def _mesh_points(tr, args, kwargs, result):
    tr.counts["operators.mesh_points"] += len(result)


def _kernel_rows(tr, args, kwargs, result):
    tr.counts["kernel.evals"] += len(result)


def _atoms(tr, args, kwargs, result):
    # measure builders call each other; count the outermost build only
    if tr.parent_name != "measure.build":
        tr.counts["measure.atoms"] += result.count


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _targets():
    """(owner, attribute, span name, counter or None)."""
    # import_module: the package's ``pairing`` attribute is the function
    geometry, kernel, measure, operators, pairing, report, scenarios = (
        importlib.import_module(f"siolab.{name}")
        for name in ("geometry", "kernel", "measure", "operators", "pairing",
                     "harness.report", "harness.scenarios")
    )

    tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    TT = operators.TruncationTable
    out = [
        (TT, "__init__", "operators.table_build", _table_cells(tables)),
        (TT, "maximal_values", "operators.maximal", _scan_cells(tables)),
        (TT, "truncated_values", "operators.truncated_pp", None),
        (TT, "truncated_values_per_point", "operators.truncated_pp", None),
        (geometry.LipschitzGraph, "to_graph_frame", "geometry.frame", None),
        (geometry.LipschitzGraph, "from_graph_frame", "geometry.frame", None),
        (geometry.LipschitzGraph, "classify_many", "geometry.classify", None),
        (geometry.RegionDecomposition, "assign", "geometry.decompose", None),
        (kernel.RieszComponent, "evaluate_many", "kernel.eval", _kernel_rows),
        (kernel.OddHomogeneous, "evaluate_many", "kernel.eval", _kernel_rows),
        (operators, "cone_mesh", "operators.cone_mesh", _mesh_points),
        (report.ScenarioReport, "write", "harness.write", None),
        (scenarios, "_seeded_densities", "harness.densities", None),
        (scenarios, "_pmap", "harness.pmap", None),
        (operators, "pair_sum_stats", "operators.pair_sum", _pair_counts(False)),
        (scenarios, "pair_sum_stats", "operators.pair_sum", _pair_counts(False)),
        (pairing, "pair_sum_stats", "operators.pair_sum", _pair_counts(True)),
    ]
    for module in (operators, scenarios):
        out += [
            (module, "hl_maximal_batch", "operators.hl_maximal", _hl_cells),
            (module, "nontangential_max", "operators.nontangential", None),
            (module, "lp_norm", "operators.lp_norm", None),
        ]
    for module in (scenarios, pairing):
        out.append((module, "convergence_study", "pairing.convergence_study", None))
    for module in (pairing, geometry):
        out.append((module, "decompose_complement", "geometry.decompose", None))
    for fn in ("build", "graph_measure", "slab_above_graph", "cantor_four_corners", "uniform_on_shape"):
        out.append((measure, fn, "measure.build", _atoms))
    out.append((scenarios, "cantor_four_corners", "measure.build", _atoms))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Route the traced entry points through ``tracer`` until exit."""
    saved = []
    try:
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times, computed counts and derived ratios."""
    self_s = tracer.self_times()
    out = {metric: self_s.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()}
    out.update({name: tracer.counts.get(name, 0) for name in COUNT_METRICS})
    attempted = out["operators.pairs_attempted"]
    out["operators.pair_useful_ratio"] = out["operators.pairs_included"] / attempted if attempted else 0.0
    root = tracer.total_time("harness.run")
    out["harness.span_coverage"] = 1.0 - self_s.get("harness.run", 0.0) / root if root else 0.0
    return out

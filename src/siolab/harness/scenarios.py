"""Scenario orchestration: each scenario builds its inputs from a parsed
config, runs one experiment, and returns a ScenarioReport whose verdicts
are derived purely from the recorded metric tables.

Determinism contract: a scenario's tables depend only on (config, seed).
Worker parallelism splits work into fixed-size chunks whose boundaries
do not depend on the worker count, each chunk is computed by a pure
function, and results are reduced in chunk order, so CSV output is
byte-identical at any ``--threads`` setting.
"""

from __future__ import annotations

import math
import multiprocessing
import operator
import os
import time
from typing import NamedTuple

import numpy as np

from .. import kernel as kernel_mod, measure
from ..geometry import Ball, LipschitzGraph, check_aperture
from ..measure import (
    CANTOR_MAX_GENERATION,
    DiscreteMeasure,
    GraphMeasureSpec,
    SlabAboveGraphSpec,
    cantor_four_corners,
    concat,
    growth_constant,
    split_by_graph,
)
from ..operators import (
    TruncationTable,
    bound_constants,
    cauchy_tail,
    density_stack,
    geometric_schedule,
    hl_maximal_batch,  # noqa: F401  kept bound here for perfbench/tracing.py
    lp_norm,
    nontangential_max,  # noqa: F401  kept bound here for perfbench/tracing.py
    nontangential_max_many,
    pair_sum_schedule,
    pair_sum_stats,  # noqa: F401  kept bound here for perfbench/tracing.py
    pv_estimate,
    truncated_batch,
)
from ..pairing import CANCELLATION_FACTOR, SimpleFunction, convergence_study
from .config import (
    REQUIRED, Config, ConfigError, _fmt, blame, box_pairs, build_graph, build_kernel, build_measure, optional_graph,
)
from .report import ScenarioReport
from .rng import Rng

_POINT_CHUNK = 2048  # fixed chunk size; must not depend on worker count

# fixed verdict thresholds: a settable one could only loosen a pinned criterion
_NOISE_FACTOR = 1.1  # PV tail_shrinks: the worst tail may grow this much per refinement
_STABILITY_FACTOR = 1.2  # CantorGrowth: largest ratio of successive growth constants
_GROWTH_CAP = 1.5  # CarlesonEmbedding, SeparatedBoundedness: largest growth of a ratio per refinement


class _Workers:
    """The worker pool of one ``run_scenario`` call: at most one worker per
    CPU, forked by the first ``_pmap`` that needs more than one and reused
    by the run's later ones, and ended with the run."""

    def __init__(self, threads: int):
        self.threads = min(threads, os.cpu_count() or 1)
        self.pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.terminate()


def _pmap(fn, items, workers: _Workers):
    """Ordered map over independent items on the run's workers; chunking
    is fixed and ``fn`` pure, so results match at any count."""
    if workers.threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if workers.pool is None:
        workers.pool = multiprocessing.get_context("fork").Pool(processes=workers.threads)
    return workers.pool.map(fn, items)


def _chunks(rng: Rng, total: int, size: int) -> list[tuple[int, int]]:
    """(count, seed) per chunk of ``size`` items; chunk i seeds from rng.spawn(i)."""
    starts = range(0, total, size)
    return [(min(size, total - s), rng.spawn(i).next_u64()) for i, s in enumerate(starts)]


def _or_default(cfg: Config, prm: dict, key: str, default):
    """prm[key], or ``default`` (echoed) where the config leaves the key out."""
    if prm[key] is None:
        cfg.echo[f"scenario.{key}"] = _fmt(default)
        return default
    return prm[key]


def _aperture(cfg: Config, prm: dict, graph: LipschitzGraph) -> float:
    """scenario.aperture, default 2 max(1, Lip f); a cone needs L > max(1, Lip f)."""
    aperture = _or_default(cfg, prm, "aperture", 2.0 * max(1.0, graph.lip_declared))
    with blame("scenario.aperture"):
        check_aperture(graph, aperture)
    return aperture


def _schedule_ends(cfg: Config, prm: dict, mu: DiscreteMeasure) -> tuple[float, float]:
    """(eps0, floor_factor * h), eps0 above that floor; eps0 defaults to diam / 4."""
    eps0 = _or_default(cfg, prm, "eps0", mu.bounding_diameter() / 4.0)
    eps_min = prm["floor_factor"] * mu.resolution
    if eps0 <= eps_min:
        raise ConfigError("scenario.eps0 must exceed the schedule floor")
    return eps0, eps_min


def _halving_schedule(cfg: Config, prm: dict, mu: DiscreteMeasure) -> list[float]:
    """The ratio-1/2 eps schedule between the ``_schedule_ends``; a trace needs 4 entries."""
    schedule = geometric_schedule(*_schedule_ends(cfg, prm, mu))
    if len(schedule) < 4:
        raise ConfigError(f"scenario.eps0: schedule shorter than 4 entries ({len(schedule)})")
    return schedule


def _tail_verdict(report: ScenarioReport, values, tolerance: float, noise: float) -> None:
    """The trace passes when its Cauchy tail is at most max(tolerance max |v|, noise):
    a tail below the arithmetic noise floor counts as exact cancellation."""
    tail = cauchy_tail(values)
    scale = max(abs(v) for v in values)
    report.add_verdict(
        "cauchy_tail",
        tail <= max(tolerance * scale, noise),
        f"tail {tail:.3e} scale {scale:.3e} noise {noise:.3e}",
    )


def _same_dim(what: str, dim: int, other: str, other_dim: int) -> None:
    """The kernel, the graph and the measures of one run live in one R^n."""
    if dim != other_dim:
        raise ConfigError(f"{what} dimension {dim} differs from the {other} dimension {other_dim}")


def _growth_bounded(series_list, growth_cap: float) -> bool:
    """No step b > growth_cap * a in any series (so a NaN ratio passes)."""
    return not any(b > growth_cap * a for s in series_list for a, b in zip(s, s[1:]))


# ---------------------------------------------------------------------------
# Random simple functions
# ---------------------------------------------------------------------------


def random_simple_function(rng: Rng, box) -> SimpleFunction:
    """1 to 5 ball indicators with centers in the box and coefficients
    uniform in [-1, 1]."""
    scale = max(hi - lo for lo, hi in box)
    if not scale > 0:
        raise ConfigError("random simple functions need a measure with atoms at two or more positions")
    n_terms = rng.integer(1, 5)
    terms = []
    for _ in range(n_terms):
        center = tuple(rng.uniform(lo, hi) for lo, hi in box)
        radius = rng.uniform(0.1, 0.6) * scale
        coef = rng.uniform(-1.0, 1.0)
        terms.append((coef, Ball(center, radius)))
    return SimpleFunction(terms)


def random_nonzero_density(rng: Rng, nu: DiscreteMeasure, box):
    """Random simple function with a nonzero restriction to the support
    of nu (zero draws are rejected and resampled, up to 100 draws)."""
    for _ in range(100):
        g = random_simple_function(rng, box)
        values = g.evaluate_many(nu.positions)
        if np.any(values != 0.0):
            return g, values
    raise RuntimeError("could not sample a nonzero simple function")


# ---------------------------------------------------------------------------
# KernelValidation
# ---------------------------------------------------------------------------


def scenario_kernel_validation(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    kern = build_kernel(cfg)
    report = ScenarioReport("kernel_validation", {})
    result = kernel_mod.validate(kern, rng, prm["samples"])
    report.add_table(
        "metrics",
        ["metric", "value", "declared", "ok"],
        [
            ["antisymmetry_residual", result.antisymmetry_residual, 0.0, int(result.antisymmetry_ok)],
            ["size_sup", result.size_sup, kern.c0_declared, int(result.size_ok)],
            ["gradient_sup", result.gradient_sup, kern.c1_declared, int(result.gradient_ok)],
        ],
    )
    report.add_verdict("antisymmetry", result.antisymmetry_ok)
    report.add_verdict("size_bound", result.size_ok, f"sup={result.size_sup:.6g} c0={kern.c0_declared}")
    report.add_verdict("gradient_bound", result.gradient_ok, f"sup={result.gradient_sup:.6g} c1={kern.c1_declared}")
    return report


# ---------------------------------------------------------------------------
# ConeSeparation
# ---------------------------------------------------------------------------


def _cone_interior(
    graph: LipschitzGraph, aperture: float, box, count: int, rng: Rng, rho_range, excess_range
):
    """(u0, f(u0), y): apexes uniform in the box and one point y strictly
    inside each apex's cone, at horizontal offset rho and height 4 L rho
    (1 + e) above the apex, rho and e log-uniform over their ranges."""
    u0 = rng.points_in_box(count, box)
    f0 = graph.height(u0)
    direction = rng.unit_vectors(count, graph.param_dim)
    rho = np.exp(rng.uniforms(count, *map(math.log, rho_range)))
    excess = 1.0 + np.exp(rng.uniforms(count, *map(math.log, excess_range)))
    t = f0 + 4.0 * aperture * rho * excess
    return u0, f0, graph.from_graph_frame(np.column_stack([u0 + direction * rho[:, None], t]))


def sample_cone_separation(graph: LipschitzGraph, aperture: float, box, count: int, rng: Rng):
    """Random (apex, y in cone, x strictly below) triples; returns the
    relative slack of |y - x| >= |y - x0| / (8 L) per triple.
    """
    scale = max(hi - lo for lo, hi in box)
    rho_range = (1e-4 * scale, 2.0 * scale)
    u0, f0, y = _cone_interior(graph, aperture, box, count, rng, rho_range, (1e-3, 10.0))
    # x strictly below the graph
    ux = rng.points_in_box(count, box)
    depth = np.exp(rng.uniforms(count, math.log(1e-6 * scale), math.log(4.0 * scale)))
    x = graph.from_graph_frame(np.column_stack([ux, graph.height(ux) - depth]))
    apex = graph.from_graph_frame(np.column_stack([u0, f0]))
    lhs = np.linalg.norm(y - x, axis=1)
    rhs = np.linalg.norm(y - apex, axis=1) / (8.0 * aperture)
    return (lhs - rhs) / np.maximum(np.linalg.norm(y - apex, axis=1), 1e-300)


def _cone_chunk(args):
    graph, aperture, box, count, seed = args
    slack = sample_cone_separation(graph, aperture, box, count, Rng(seed))
    return int(np.sum(slack < -1e-12)), float(np.min(slack))


def scenario_cone_separation(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    graph = build_graph(cfg)
    aperture = _aperture(cfg, prm, graph)
    samples = prm["samples"]
    box = [(-1.0, 1.0)] * graph.param_dim
    tasks = [(graph, aperture, box, n, seed) for n, seed in _chunks(rng, samples, _POINT_CHUNK * 8)]
    results = _pmap(_cone_chunk, tasks, workers)
    violations = sum(r[0] for r in results)
    min_slack = min(r[1] for r in results)
    report = ScenarioReport("cone_separation", {})
    report.add_table(
        "metrics",
        ["samples", "violations", "min_relative_slack"],
        [[samples, violations, min_slack]],
    )
    report.add_verdict("separation_inequality", violations == 0, f"min slack {min_slack:.3e}")
    return report


# ---------------------------------------------------------------------------
# LemmaL2Check
# ---------------------------------------------------------------------------


def _lemma_l2_batch(args):
    """One batch of cone-estimate checks with a fresh density table.

    Returns (violations, minimal relative slack, tuple count).
    """
    nu, kern, graph, aperture, d1, d2, count, seed = args
    rng = Rng(seed)
    box = [(-1.0, 1.0)] * graph.param_dim
    gv = rng.uniforms(nu.count, -1.0, 1.0)

    u0, f0, y = _cone_interior(graph, aperture, box, count, rng, (1e-3, 1.0), (1e-3, 4.0))
    x = graph.from_graph_frame(np.column_stack([u0, f0]))

    r = np.linalg.norm(y - x, axis=1)
    below = rng.uniforms(count) < 0.5  # half eps < r, half eps >= r
    eps = np.where(below, r * rng.uniforms(count, 0.05, 0.999), r * (1.0 + rng.uniforms(count, 0.0, 3.0)))

    x_table = TruncationTable(nu, kern, x)
    tstar = x_table.maximal_values([gv])[0]
    mval, _ = x_table.hl_maximal_values(gv)
    lhs = np.abs(truncated_batch(nu, kern, gv, y, eps))
    constant = np.where(eps < r, d1, d2)
    rhs = 3.0 * tstar + constant * mval
    slack = (rhs - lhs) / np.maximum(rhs, 1e-300)
    return int(np.sum(slack < -1e-9)), float(np.min(slack)), count


def scenario_lemma_l2(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    graph = build_graph(cfg)
    kern = build_kernel(cfg)
    _same_dim("kernel", kern.ambient_dim, "graph", graph.ambient_dim)
    aperture = _aperture(cfg, prm, graph)
    nu = build_measure(cfg, "nu", graph)
    _same_dim("[nu]", nu.ambient_dim, "graph", graph.ambient_dim)
    if np.any(graph.classify_many(nu.positions) != -1):
        raise ConfigError("nu must be supported strictly below the graph")
    consts = bound_constants(kern, aperture)

    tasks = [
        (nu, kern, graph, aperture, consts.d1, consts.d2, n, seed)
        for n, seed in _chunks(rng, prm["tuples"], prm["tuples_per_batch"])
    ]
    with blame("scenario.tuples_per_batch"):  # rows of each batch's table
        results = _pmap(_lemma_l2_batch, tasks, workers)
    violations = sum(r[0] for r in results)
    worst = min(r[1] for r in results)
    report = ScenarioReport("lemma_l2", {})
    report.add_table(
        "metrics",
        ["tuples", "violations", "worst_relative_slack", "d1", "d2", "c_n"],
        [[prm["tuples"], violations, worst, consts.d1, consts.d2, consts.c_n]],
    )
    report.add_verdict("cone_estimates", violations == 0, f"worst slack {worst:.3e}")
    return report


# ---------------------------------------------------------------------------
# PVConvergence
# ---------------------------------------------------------------------------


def scenario_pv_convergence(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    graph = build_graph(cfg)
    kern = build_kernel(cfg)
    _same_dim("kernel", kern.ambient_dim, "graph", graph.ambient_dim)
    box = box_pairs(prm["box"], graph.param_dim, "scenario.box")

    tol = prm["tolerance"]
    rows = []
    for m in prm["resolutions"]:
        with blame("scenario.resolutions"):  # sets the atom count
            sigma = measure.build(GraphMeasureSpec(graph, box, m, prm["shift"]))
        graph_u = graph.to_graph_frame(sigma.positions)[:, :-1]
        schedule = _halving_schedule(cfg, prm, sigma)
        for p_idx, u in enumerate(prm["points"]):
            # evaluate at the support point (atom) nearest the requested
            # parameter; almost-every-point existence is sampled on the
            # support itself
            target = np.full(graph.param_dim, u)
            i = int(np.argmin(np.linalg.norm(graph_u - target, axis=1)))
            x = sigma.positions[i]
            values = pv_estimate(sigma, kern, x, schedule)
            tail = cauchy_tail(values)
            scale = max(abs(v) for v in values)
            rows.append([m, p_idx, u, tail, scale, values[-1], int(tail <= tol * scale)])

    report = ScenarioReport("pv_convergence", {})
    report.add_table(
        "metrics",
        ["resolution", "point", "u", "tail", "scale", "limit_estimate", "converged"],
        rows,
    )
    per_m = [[row for row in rows if row[0] == m] for m in prm["resolutions"]]
    # the worst tail and scale over the points, per resolution
    max_tails, max_scales = ([max(row[k] for row in part) for part in per_m] for k in (3, 4))
    # every point at the finest resolution converges, by its row's rule;
    # scale 0 means every value is 0, and so is the tail
    finest = per_m[-1]
    worst = max(row[3] / row[4] if row[4] > 0 else 0.0 for row in finest)
    shrink_ok = all(
        b <= _NOISE_FACTOR * a + 1e-14 * s
        for a, b, s in zip(max_tails, max_tails[1:], max_scales[1:])
    )
    report.add_verdict(
        "tail_at_finest", all(row[6] for row in finest), f"worst tail/scale {worst:.3e} vs {tol:g}",
    )
    report.add_verdict("tail_shrinks", shrink_ok, f"noise factor {_NOISE_FACTOR:g}")
    return report


# ---------------------------------------------------------------------------
# WeakPairing
# ---------------------------------------------------------------------------


def _simple_function_from(cfg: Config, section: str, rng: Rng, box, stream: int):
    """([section]'s simple function, its random stream or None in ball
    mode); ``stream`` is the default stream of random mode."""
    mode = cfg.get_str(section, "mode", "random").lower()
    if mode == "random":
        stream = cfg.get_int(section, "stream", stream)
        if not 0 <= stream < 2**64:  # Rng.spawn reads a label mod 2^64
            raise ConfigError(f"{section}.stream must be in [0, 2^64)")
        return random_simple_function(rng.spawn(stream), box), stream
    if mode == "ball":
        center = tuple(cfg.get_floats(section, "center", REQUIRED))
        if len(center) != len(box):
            raise ConfigError(f"{section}.center needs {len(box)} numbers")
        radius = cfg.get_float(section, "radius", REQUIRED)
        coef = cfg.get_float(section, "coef", 1.0)
        with blame(f"[{section}]"):
            return SimpleFunction([(coef, Ball(center, radius))]), None
    raise ConfigError(f"unknown simple-function mode {mode!r} in [{section}]")


def scenario_weak_pairing(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    kern = build_kernel(cfg)
    mu = build_measure(cfg, "mu", optional_graph(cfg))
    _same_dim("kernel", kern.ambient_dim, "[mu]", mu.ambient_dim)
    box = mu.bounding_box()
    f, f_stream = _simple_function_from(cfg, "f", rng, box, 0)
    g, g_stream = _simple_function_from(cfg, "g", rng, box, 1)
    if f_stream is not None and f_stream == g_stream:
        # g = f, and <T^eps f, f> = 0 for every eps by antisymmetry: a trace of no data
        raise ConfigError(f"g.stream: equals f.stream ({f_stream}), so g = f and the pairing vanishes")
    eps0, eps_min = _schedule_ends(cfg, prm, mu)
    points = max(8, int(math.floor(math.log2(eps0 / eps_min))) + 1)
    ratio = (eps_min / eps0) ** (1.0 / (points - 1))
    schedule = [eps0 * ratio**k for k in range(points)]

    with blame("[mu]"):  # its atom count sets the pair counts
        trace = convergence_study(mu, kern, f, g, schedule)
    report = ScenarioReport("weak_pairing", {})
    # one row per (term, eps) plus a coefficient-weighted totals row per eps
    rows = [
        [str(r.g_term), str(r.f_term), r.eps, r.value, r.i1, r.i2, r.i3, r.i4]
        for r in trace.rows
    ]
    for eps, value, blocks in zip(trace.eps_schedule, trace.values, trace.block_totals):
        rows.append(["total", "total", eps, value, *blocks])
    report.add_table(
        "trace",
        ["g_term", "f_term", "eps", "value", "i1", "i2", "i3", "i4"],
        rows,
    )
    _tail_verdict(report, trace.values, prm["tolerance"], trace.cancellation_noise)
    report.add_verdict("regions_separated", trace.regions_separated)
    return report


# ---------------------------------------------------------------------------
# CantorGrowth
# ---------------------------------------------------------------------------


def scenario_cantor_growth(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    rows = []
    estimates = []
    for gen in prm["generations"]:
        mu = cantor_four_corners(gen)
        idx = np.minimum(
            (rng.uniforms(prm["centers"]) * mu.count).astype(int), mu.count - 1
        )
        centers = mu.positions[idx]
        radii = np.exp(
            np.linspace(math.log(mu.resolution), math.log(2.0), prm["radii"])
        )
        radii = np.maximum(radii, mu.resolution)  # exp/log round-trip guard
        c = growth_constant(mu, centers, radii)
        rows.append([gen, mu.count, c])
        estimates.append(c)
    report = ScenarioReport("cantor_growth", {})
    report.add_table("metrics", ["generation", "atoms", "growth_constant"], rows)
    stable = all(
        max(b / a, a / b) <= _STABILITY_FACTOR for a, b in zip(estimates, estimates[1:])
    )
    report.add_verdict("growth_stable", stable, f"factor {_STABILITY_FACTOR:g}")
    return report


# ---------------------------------------------------------------------------
# CarlesonEmbedding
# ---------------------------------------------------------------------------


def scenario_carleson(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    graph = build_graph(cfg)
    box = box_pairs(prm["box"], graph.param_dim, "scenario.box")
    thickness = prm["thickness"]
    p = prm["p"]
    aperture = _aperture(cfg, prm, graph)
    height = _or_default(cfg, prm, "height_cap", 2.0 * thickness)

    mid = graph.points_on_graph(np.zeros(graph.param_dim))[0]
    center = mid + np.eye(graph.ambient_dim)[-1] * 0.4 * thickness
    lo, hi = float(mid[-1]) - 0.1, float(mid[-1]) + 0.8 * thickness

    def gaussian(pts):  # width 0.5 about a point 0.4 thickness above the graph
        return np.exp(-np.sum((np.atleast_2d(pts) - center) ** 2, axis=1) / (2.0 * 0.5**2))

    def coordinate_slab(pts):  # y -> y_1 on the horizontal slab lo <= y_n <= hi
        pts = np.atleast_2d(pts)
        return pts[:, 0] * ((pts[:, -1] >= lo) & (pts[:, -1] <= hi))

    densities = [
        ("constant", lambda pts: np.ones(len(np.atleast_2d(pts)))),
        ("gaussian", gaussian),
        ("coordinate_slab", coordinate_slab),
        ("zero", lambda pts: np.zeros(len(np.atleast_2d(pts)))),  # both sides vanish; ratio skipped
    ]

    rows = []
    ratios: dict[str, list[float]] = {name: [] for name, _ in densities}
    for m in prm["resolutions"]:
        with blame("scenario.resolutions"):  # sets the atom counts
            mu = measure.build(SlabAboveGraphSpec(graph, box, m, thickness, prm["levels"], 0.0))
            sigma = measure.build(GraphMeasureSpec(graph, box, m, 0.0))
        sigma_u = graph.to_graph_frame(sigma.positions)[:, :-1]
        with blame("scenario.mesh_depth"):
            n_vals = nontangential_max_many([g for _, g in densities], graph, sigma_u, aperture, height,
                                            prm["mesh_depth"])
        for (name, g), n_row in zip(densities, n_vals):
            lhs = lp_norm(mu, g, p) ** p
            rhs = lp_norm(sigma, n_row, p) ** p
            ratio = lhs / rhs if rhs > 0 else math.nan
            rows.append([m, name, lhs, rhs, ratio])
            if rhs > 0:
                ratios[name].append(ratio)

    report = ScenarioReport("carleson", {})
    report.add_table("metrics", ["resolution", "density", "lhs", "rhs", "ratio"], rows)
    bounded = _growth_bounded(ratios.values(), _GROWTH_CAP)
    report.add_verdict("embedding_ratio_bounded", bounded, f"growth cap {_GROWTH_CAP:g}")
    return report


# ---------------------------------------------------------------------------
# SeparatedBoundedness (and the unrectifiable negative control)
# ---------------------------------------------------------------------------


def _tstar_chunk(args):
    """Maximal-transform values for a fixed point chunk and every density
    of the stack, from one distance sort and one sup pass."""
    nu, kern, pts, stack = args
    return TruncationTable(nu, kern, pts).maximal_values(stack)


def _tstar_all(nu, kern, points, stack, workers):
    tasks = [
        (nu, kern, points[start : start + _POINT_CHUNK], stack)
        for start in range(0, len(points), _POINT_CHUNK)
    ]
    parts = _pmap(_tstar_chunk, tasks, workers)
    return np.concatenate(parts, axis=1)  # (n_densities, n_points)


def _ratio_table(nu, mu, kern, p_list, densities, workers):
    """max over densities of |T* g|_{L^p(mu)} / |g|_{L^p(nu)} per p."""
    stack = density_stack([g_vals for _, g_vals in densities], nu).T  # (D, N), each chunk reads it uncopied
    tstar = _tstar_all(nu, kern, mu.positions, stack, workers)
    out = {}
    for p in p_list:
        best = 0.0
        for i, (_, g_vals) in enumerate(densities):
            denom = lp_norm(nu, g_vals, p)
            if denom == 0.0:
                continue
            best = max(best, lp_norm(mu, tstar[i], p) / denom)
        out[p] = best
    return out


def scenario_separated_boundedness(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    kern = build_kernel(cfg)
    p_list = prm["p"]
    n_g = prm["random_functions"]

    report = ScenarioReport("separated_boundedness", {})
    rows = []
    if prm["control"]:
        if prm["resolutions"] is not None:
            raise ConfigError("scenario.resolutions is not read by the control")
        # negative control: mu = nu = four-corners Cantor, same side;
        # the ratio is expected to grow with the generation (reported,
        # no pass criterion).  Its full-support indicator chi_square is
        # always among the densities, so random_functions may be 0.
        for gen in _or_default(cfg, prm, "generations", [3, 4, 5, 6]):
            nu = cantor_four_corners(gen)
            _same_dim("kernel", kern.ambient_dim, "Cantor set", nu.ambient_dim)
            densities = [("chi_square", np.ones(nu.count)), *_seeded_densities(rng, nu, n_g)]
            with blame("scenario.generations"):
                ratios = _ratio_table(nu, nu, kern, p_list, densities, workers)
            for p in p_list:
                rows.append([gen, p, ratios[p]])
        report.add_table("ratios", ["generation", "p", "max_ratio"], rows)
        report.add_verdict("control_reported", True, "negative control, no pass criterion")
        return report

    if prm["generations"] is not None:
        raise ConfigError("scenario.generations is read only by the control")
    if n_g < 1:
        raise ConfigError("scenario.random_functions must be >= 1 without the control")
    if prm["resolutions"] is None:
        raise ConfigError("missing required key scenario.resolutions")
    graph = build_graph(cfg)
    _same_dim("kernel", kern.ambient_dim, "graph", graph.ambient_dim)
    per_p = {p: [] for p in p_list}
    for m in prm["resolutions"]:
        nu, mu = (build_measure(cfg, s, graph, m) for s in ("nu", "mu"))
        _same_dim("[nu]", nu.ambient_dim, "graph", graph.ambient_dim)
        _same_dim("[mu]", mu.ambient_dim, "graph", graph.ambient_dim)
        if nu.count == 0 or mu.count == 0:
            raise ConfigError("empty measure in the separated configuration")
        if np.any(graph.classify_many(nu.positions) != -1):
            raise ConfigError("nu must be supported strictly below the graph")
        if np.any(graph.classify_many(mu.positions) == -1):
            raise ConfigError("mu must be supported above or on the graph")
        densities = _seeded_densities(rng, nu, n_g)
        with blame("scenario.resolutions"):
            ratios = _ratio_table(nu, mu, kern, p_list, densities, workers)
        for p in p_list:
            rows.append([m, p, ratios[p]])
            per_p[p].append(ratios[p])
    report.add_table("ratios", ["resolution", "p", "max_ratio"], rows)
    stable = _growth_bounded(per_p.values(), _GROWTH_CAP)
    report.add_verdict("ratio_stable", stable, f"growth cap {_GROWTH_CAP:g} per refinement")
    return report


def _seeded_densities(rng: Rng, nu: DiscreteMeasure, count: int):
    """Named per-atom tables of random simple functions; streams keyed by
    the function index so all resolutions see the same shapes."""
    box = nu.bounding_box()
    out = []
    for j in range(count):
        _, values = random_nonzero_density(rng.spawn(1000 + j), nu, box)
        out.append((f"g{j}", values))
    return out


# ---------------------------------------------------------------------------
# DoubleIntegralConvergence (truncated double integrals across a graph split)
# ---------------------------------------------------------------------------


def scenario_double_integral(cfg: Config, prm: dict, rng: Rng, workers: _Workers) -> ScenarioReport:
    graph = build_graph(cfg)
    kern = build_kernel(cfg)
    _same_dim("kernel", kern.ambient_dim, "graph", graph.ambient_dim)
    mu = build_measure(cfg, "mu", graph)
    sections = "[mu]"
    if cfg.has("mu2", "kind"):
        parts = [mu, build_measure(cfg, "mu2", graph)]
        sections = "[mu], [mu2]"
        with blame(sections):  # the two parts may differ in dimension
            mu = concat(parts)
    _same_dim(sections, mu.ambient_dim, "graph", graph.ambient_dim)
    schedule = _halving_schedule(cfg, prm, mu)
    on, above, below = split_by_graph(mu, graph)
    if below.count == 0 or above.count + on.count == 0:
        cfg.check_all_read()  # every section is read: a misspelt shift, say, is named first
        side = "strictly below" if below.count == 0 else "above or on"
        raise ConfigError(f"{sections}: no atom lies {side} the graph, so every pair sum is empty")

    def pair_sums(outer, inner):
        return pair_sum_schedule(outer.positions, outer.weights, inner.positions, inner.weights, kern, schedule)

    with blame(sections):  # atom counts set the pair counts
        forward = pair_sums(concat([above, on]), below)
        # the on-graph atoms change sides in the mirror order; without them it is the same sum
        mirrored = pair_sums(above, concat([below, on])) if on.count else forward
    rows = [[eps, fwd.value, mir.value] for eps, fwd, mir in zip(schedule, forward, mirrored)]
    noise = max(
        max(fwd.pair_count, 1) * CANCELLATION_FACTOR * max(fwd.max_abs_term, mir.max_abs_term)
        for fwd, mir in zip(forward, mirrored)
    )
    report = ScenarioReport("double_integral", {})
    report.add_table("trace", ["eps", "value", "mirror_value"], rows)
    _tail_verdict(report, [fwd.value for fwd in forward], prm["tolerance"], noise)
    return report


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class Key(NamedTuple):
    """One [scenario] key: its kind (a ``config._KINDS`` name), default and rules.

    ``default`` REQUIRED makes the key mandatory; None leaves an absent
    key None, for the scenario to compute and echo.  ``rules`` lists,
    comma separated, ``increasing`` or inequalities such as ``>= 1`` that
    a number, and each entry of a list, must meet; no list may be empty.
    """

    kind: str
    default: object = None
    rules: str = ""


_APERTURE = Key("float")  # default 2 max(1, Lip f); must exceed max(1, Lip f)
_EPS0 = Key("float")  # default diam / 4 of the traced measure; must exceed floor_factor * h
_FLOOR_FACTOR = Key("float", 4.0, ">= 4")
_RESOLUTIONS = Key("ints", REQUIRED, ">= 1, increasing")
_BOX = Key("floats", (-1.0, 1.0))

# tag -> (scenario, its [scenario] keys); every tag also takes tag and seed
SCENARIOS = {
    "kernelvalidation": (scenario_kernel_validation, {
        "samples": Key("int", 2000, ">= 1"),
    }),
    "coneseparation": (scenario_cone_separation, {
        "aperture": _APERTURE,
        "samples": Key("int", 100_000, ">= 1"),
    }),
    "lemmal2check": (scenario_lemma_l2, {
        "aperture": _APERTURE,
        "tuples": Key("int", 10_000, ">= 1"),
        "tuples_per_batch": Key("int", 500, ">= 1"),
    }),
    "pvconvergence": (scenario_pv_convergence, {
        "resolutions": _RESOLUTIONS,
        "box": _BOX,
        "points": Key("floats", (-0.35, 0.15, 0.55)),
        "floor_factor": _FLOOR_FACTOR,
        "eps0": _EPS0,
        "tolerance": Key("float", 1e-2, "> 0"),
        "shift": Key("float", 0.0),
    }),
    "weakpairing": (scenario_weak_pairing, {
        "eps0": _EPS0,
        "floor_factor": _FLOOR_FACTOR,
        "tolerance": Key("float", 1e-3, "> 0"),
    }),
    "cantorgrowth": (scenario_cantor_growth, {
        "generations": Key("ints", (3, 4, 5), f">= 0, <= {CANTOR_MAX_GENERATION}"),
        "centers": Key("int", 200, ">= 1"),
        "radii": Key("int", 50, ">= 1"),
    }),
    "carlesonembedding": (scenario_carleson, {
        "resolutions": _RESOLUTIONS,
        "box": _BOX,
        "thickness": Key("float", 0.5, "> 0"),
        "levels": Key("int", 8, ">= 1"),
        "p": Key("float", 2.0, ">= 1"),
        "aperture": _APERTURE,
        "height_cap": Key("float", None, "> 0"),  # default 2 thickness
        "mesh_depth": Key("int", 4, ">= 1"),
    }),
    "separatedboundedness": (scenario_separated_boundedness, {
        "p": Key("floats", (1.5, 2.0, 3.0), "> 1"),
        "control": Key("bool", False),
        "random_functions": Key("int", 50, ">= 0"),  # >= 1 without the control
        "resolutions": Key("ints", None, ">= 1, increasing"),  # required without the control
        "generations": Key("ints", None, f">= 0, <= {CANTOR_MAX_GENERATION}"),  # control: 3, 4, 5, 6
    }),
    "doubleintegralconvergence": (scenario_double_integral, {
        "eps0": _EPS0,
        "floor_factor": _FLOOR_FACTOR,
        "tolerance": Key("float", 1e-2, "> 0"),
    }),
}


def read_scenario(cfg: Config):
    """(scenario function, its [scenario] values): the tag's key table
    read once, every value converted, range-checked and echoed.  The
    rules of the listed keys are checked before any unlisted key is
    rejected, so a bad value is named even beside an unknown key.
    """
    tag = cfg.get_str("scenario", "tag", REQUIRED)
    name = tag.lower().replace("_", "").replace("-", "")
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario tag {tag!r}")
    scenario, keys = SCENARIOS[name]
    values = {}
    for key, spec in keys.items():
        if spec.default is None and not cfg.has("scenario", key):
            values[key] = None  # the scenario computes and echoes it
            continue
        value = cfg.get_as("scenario", key, spec.default, spec.kind)
        items = list(value) if isinstance(value, (list, tuple)) else [value]
        if not items:
            raise ConfigError(f"scenario.{key} must not be empty")
        for rule in filter(None, spec.rules.split(", ")):
            op, _, bound = rule.partition(" ")
            ok = sorted(items) == items if rule == "increasing" else all(
                _COMPARE[op](v, float(bound)) for v in items
            )
            if not ok:
                raise ConfigError(f"scenario.{key} must be {rule}")
        values[key] = items if isinstance(value, (list, tuple)) else value
    known = {*values, "tag", "seed"}
    unknown = set(cfg.sections.get("scenario", {})) - known
    if unknown:
        raise ConfigError(f"unknown key scenario.{min(unknown)} (known: {', '.join(sorted(known))})")
    return scenario, values


def run_scenario(
    cfg: Config,
    seed_override: int | None = None,
    threads: int = 1,
    out_dir: str | None = None,
) -> ScenarioReport:
    """Run the configured scenario; deterministic given (config, seed)."""
    scenario, prm = read_scenario(cfg)
    seed = seed_override if seed_override is not None else cfg.get_int("scenario", "seed", 0)
    cfg.echo["scenario.seed"] = str(seed)
    start = time.perf_counter()
    with _Workers(threads) as workers:
        report = scenario(cfg, prm, Rng(seed), workers)
    report.runtime_seconds = time.perf_counter() - start
    cfg.check_all_read()
    report.config_echo = dict(cfg.echo)
    if out_dir is not None:
        report.write(out_dir)
    return report

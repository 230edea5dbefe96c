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
import os
import time

import numpy as np

from .. import kernel as kernel_mod
from ..geometry import Ball, Cone, LipschitzGraph
from ..measure import (
    DiscreteMeasure,
    cantor_four_corners,
    concat,
    growth_constant,
    split_by_graph,
)
from ..operators import (
    TruncationTable,
    bound_constants,
    cauchy_tail,
    geometric_schedule,
    hl_maximal_batch,  # noqa: F401  kept bound here for perfbench/tracing.py
    lp_norm,
    nontangential_max,
    pair_sum_schedule,
    pair_sum_stats,  # noqa: F401  kept bound here for perfbench/tracing.py
    pv_estimate,
    truncated_batch,
)
from ..pairing import CANCELLATION_FACTOR, SimpleFunction, convergence_study
from .config import Config, ConfigError, REQUIRED, _parse_box, build_graph, build_kernel, build_measure
from .report import ScenarioReport
from .rng import Rng

_POINT_CHUNK = 2048  # fixed chunk size; must not depend on worker count


def _pmap(fn, items, threads: int):
    """Ordered map over independent items on at most one worker per CPU;
    chunking is fixed and ``fn`` pure, so results match at any count."""
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=threads) as pool:
        return pool.map(fn, items)


def _chunks(rng: Rng, total: int, size: int) -> list[tuple[int, int]]:
    """(count, seed) per chunk of ``size`` items; chunk i seeds from rng.spawn(i)."""
    starts = range(0, total, size)
    return [(min(size, total - s), rng.spawn(i).next_u64()) for i, s in enumerate(starts)]


def _aperture(cfg: Config, graph: LipschitzGraph) -> float:
    """scenario.aperture, default 2 max(1, Lip f); a cone needs L > max(1, Lip f)."""
    lip = graph.lip_declared
    aperture = cfg.get_float("scenario", "aperture", 2.0 * max(1.0, lip))
    if not (aperture > 1.0 and aperture > lip):
        raise ConfigError("aperture L must exceed max(1, Lip(f))")
    return aperture


def _resolutions(cfg: Config) -> list[int]:
    resolutions = cfg.get_ints("scenario", "resolutions", REQUIRED)
    if sorted(resolutions) != resolutions:
        raise ConfigError("resolutions must be increasing")
    return resolutions


def _floor_factor(cfg: Config) -> float:
    floor_factor = cfg.get_float("scenario", "floor_factor", 4.0)
    if floor_factor < 4.0:
        raise ConfigError("floor_factor must be >= 4 (resolution floor)")
    return floor_factor


def _schedule_ends(cfg: Config, mu: DiscreteMeasure) -> tuple[float, float]:
    """(eps0, floor_factor * h), eps0 above that floor; eps0 defaults to diam / 4."""
    eps0 = cfg.get_float("scenario", "eps0", mu.bounding_diameter() / 4.0)
    eps_min = _floor_factor(cfg) * mu.resolution
    if eps0 <= eps_min:
        raise ConfigError("eps0 must exceed the schedule floor")
    return eps0, eps_min


def _growth_bounded(series_list, growth_cap: float) -> bool:
    """No step b > growth_cap * a in any series (so a NaN ratio passes)."""
    return not any(b > growth_cap * a for s in series_list for a, b in zip(s, s[1:]))


# ---------------------------------------------------------------------------
# Random simple functions
# ---------------------------------------------------------------------------


def random_simple_function(rng: Rng, box, max_terms: int = 5) -> SimpleFunction:
    """1 to max_terms ball indicators with centers in the box and
    coefficients uniform in [-1, 1]."""
    spans = [hi - lo for lo, hi in box]
    scale = max(spans)
    n_terms = rng.integer(1, max_terms)
    terms = []
    for _ in range(n_terms):
        center = tuple(rng.uniform(lo, hi) for lo, hi in box)
        radius = rng.uniform(0.1, 0.6) * scale
        coef = rng.uniform(-1.0, 1.0)
        terms.append((coef, Ball(center, radius)))
    return SimpleFunction(terms)


def random_nonzero_density(rng: Rng, nu: DiscreteMeasure, box, max_tries: int = 100):
    """Random simple function with a nonzero restriction to the support
    of nu (zero draws are rejected and resampled)."""
    for _ in range(max_tries):
        g = random_simple_function(rng, box)
        values = g.evaluate_many(nu.positions)
        if np.any(values != 0.0):
            return g, values
    raise RuntimeError("could not sample a nonzero simple function")


# ---------------------------------------------------------------------------
# KernelValidation
# ---------------------------------------------------------------------------


def scenario_kernel_validation(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    kern = build_kernel(cfg)
    samples = cfg.get_int("scenario", "samples", 2000)
    report = ScenarioReport("kernel_validation", {})
    try:
        result = kernel_mod.validate(kern, rng, samples)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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


def sample_cone_separation(graph: LipschitzGraph, aperture: float, box, count: int, rng: Rng):
    """Random (apex, y in cone, x strictly below) triples; returns the
    relative slack of |y - x| >= |y - x0| / (8 L) per triple.
    """
    d = graph.param_dim
    scale = max(hi - lo for lo, hi in box)
    u0 = rng.points_in_box(count, box)
    f0 = graph.height(u0)
    # y strictly inside the cone: horizontal offset rho, vertical excess theta
    direction = rng.unit_vectors(count, d)
    rho = np.exp(rng.uniforms(count, math.log(1e-4 * scale), math.log(2.0 * scale)))
    excess = 1.0 + np.exp(rng.uniforms(count, math.log(1e-3), math.log(10.0)))
    t = f0 + 4.0 * aperture * rho * excess
    y = graph.from_graph_frame(np.column_stack([u0 + direction * rho[:, None], t]))
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


def scenario_cone_separation(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    graph = build_graph(cfg)
    aperture = _aperture(cfg, graph)
    samples = cfg.get_int("scenario", "samples", 100_000)
    box = [(-1.0, 1.0)] * graph.param_dim
    tasks = [(graph, aperture, box, n, seed) for n, seed in _chunks(rng, samples, _POINT_CHUNK * 8)]
    results = _pmap(_cone_chunk, tasks, threads)
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
    d = graph.param_dim
    box = [(-1.0, 1.0)] * d
    gv = rng.uniforms(nu.count, -1.0, 1.0)

    u0 = rng.points_in_box(count, box)
    f0 = graph.height(u0)
    x = graph.from_graph_frame(np.column_stack([u0, f0]))
    direction = rng.unit_vectors(count, d)
    rho = np.exp(rng.uniforms(count, math.log(1e-3), math.log(1.0)))
    excess = 1.0 + np.exp(rng.uniforms(count, math.log(1e-3), math.log(4.0)))
    t = f0 + 4.0 * aperture * rho * excess
    y = graph.from_graph_frame(np.column_stack([u0 + direction * rho[:, None], t]))

    r = np.linalg.norm(y - x, axis=1)
    below = rng.uniforms(count) < 0.5  # half eps < r, half eps >= r
    eps = np.where(below, r * rng.uniforms(count, 0.05, 0.999), r * (1.0 + rng.uniforms(count, 0.0, 3.0)))

    x_table = TruncationTable(nu, kern, x)
    tstar = x_table.maximal_values(gv)
    mval, _ = x_table.hl_maximal_values(gv)
    lhs = np.abs(truncated_batch(nu, kern, gv, y, eps))
    constant = np.where(eps < r, d1, d2)
    rhs = 3.0 * tstar + constant * mval
    slack = (rhs - lhs) / np.maximum(rhs, 1e-300)
    return int(np.sum(slack < -1e-9)), float(np.min(slack)), count


def scenario_lemma_l2(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    graph = build_graph(cfg)
    kern = build_kernel(cfg)
    if kern.ambient_dim != graph.ambient_dim:
        raise ConfigError("kernel and graph dimensions differ")
    aperture = _aperture(cfg, graph)
    tuples = cfg.get_int("scenario", "tuples", 10_000)
    per_batch = cfg.get_int("scenario", "tuples_per_batch", 500)
    nu = build_measure(cfg, "nu", graph=graph)
    if nu.ambient_dim != graph.ambient_dim:
        raise ConfigError("nu dimension does not match the graph")
    if np.any(graph.classify_many(nu.positions) != -1):
        raise ConfigError("nu must be supported strictly below the graph")
    consts = bound_constants(kern, aperture)

    tasks = [
        (nu, kern, graph, aperture, consts.d1, consts.d2, n, seed)
        for n, seed in _chunks(rng, tuples, per_batch)
    ]
    results = _pmap(_lemma_l2_batch, tasks, threads)
    violations = sum(r[0] for r in results)
    worst = min(r[1] for r in results)
    report = ScenarioReport("lemma_l2", {})
    report.add_table(
        "metrics",
        ["tuples", "violations", "worst_relative_slack", "d1", "d2", "c_n"],
        [[tuples, violations, worst, consts.d1, consts.d2, consts.c_n]],
    )
    report.add_verdict("cone_estimates", violations == 0, f"worst slack {worst:.3e}")
    return report


# ---------------------------------------------------------------------------
# PVConvergence
# ---------------------------------------------------------------------------


def scenario_pv_convergence(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    graph = build_graph(cfg)
    kern = build_kernel(cfg)
    resolutions = _resolutions(cfg)
    box = _parse_box(cfg, "scenario", graph.param_dim, [-1.0, 1.0])
    params = cfg.get_floats("scenario", "points", [-0.35, 0.15, 0.55])
    floor_factor = _floor_factor(cfg)
    eps0 = cfg.get_float("scenario", "eps0", 0.0) or None
    tol = cfg.get_float("scenario", "tolerance", 1e-2)
    noise = cfg.get_float("scenario", "noise_factor", 1.1)
    shift = cfg.get_float("scenario", "shift", 0.0)

    from ..measure import graph_measure

    rows = []
    max_tails: list[float] = []
    max_scales: list[float] = []
    for m in resolutions:
        sigma = graph_measure(graph, box, m, shift)
        graph_u = graph.to_graph_frame(sigma.positions)[:, :-1]
        m_tail = 0.0
        m_scale = 0.0
        for p_idx, u in enumerate(params):
            # evaluate at the support point (atom) nearest the requested
            # parameter; almost-every-point existence is sampled on the
            # support itself
            target = np.full(graph.param_dim, u)
            i = int(np.argmin(np.linalg.norm(graph_u - target, axis=1)))
            x = sigma.positions[i]
            try:
                res = pv_estimate(sigma, kern, x, eps0=eps0, floor_factor=floor_factor)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            scale = max(abs(v) for v in res.values)
            rows.append([m, p_idx, u, res.tail, scale, res.limit_estimate, int(res.converged)])
            m_tail = max(m_tail, res.tail)
            m_scale = max(m_scale, scale)
        max_tails.append(m_tail)
        max_scales.append(m_scale)

    report = ScenarioReport("pv_convergence", {})
    report.add_table(
        "metrics",
        ["resolution", "point", "u", "tail", "scale", "limit_estimate", "converged"],
        rows,
    )
    # the scenario tail is the worst over its evaluation points
    finest_ok = max_tails[-1] <= tol * max_scales[-1]
    shrink_ok = all(
        b <= noise * a + 1e-14 * s
        for a, b, s in zip(max_tails, max_tails[1:], max_scales[1:])
    )
    report.add_verdict(
        "tail_at_finest", finest_ok,
        f"tail {max_tails[-1]:.3e} vs {tol:g} x scale {max_scales[-1]:.3e}",
    )
    report.add_verdict("tail_shrinks", shrink_ok, f"noise factor {noise:g}")
    return report


# ---------------------------------------------------------------------------
# WeakPairing
# ---------------------------------------------------------------------------


def _simple_function_from(cfg: Config, section: str, rng: Rng, box) -> SimpleFunction:
    mode = cfg.get_str(section, "mode", "random").lower()
    if mode == "random":
        stream = cfg.get_int(section, "stream", 0)
        return random_simple_function(rng.spawn(stream), box)
    if mode == "ball":
        center = tuple(cfg.get_floats(section, "center", REQUIRED))
        radius = cfg.get_float(section, "radius", REQUIRED)
        coef = cfg.get_float(section, "coef", 1.0)
        return SimpleFunction([(coef, Ball(center, radius))])
    raise ConfigError(f"unknown simple-function mode {mode!r} in [{section}]")


def scenario_weak_pairing(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    kern = build_kernel(cfg)
    graph = build_graph(cfg) if cfg.has("graph", "profile") else None
    mu = build_measure(cfg, "mu", graph=graph)
    box = mu.bounding_box()
    f = _simple_function_from(cfg, "f", rng, box)
    g = _simple_function_from(cfg, "g", rng, box)
    eps0, eps_min = _schedule_ends(cfg, mu)
    points = max(8, int(math.floor(math.log2(eps0 / eps_min))) + 1)
    ratio = (eps_min / eps0) ** (1.0 / (points - 1))
    schedule = [eps0 * ratio**k for k in range(points)]
    tol = cfg.get_float("scenario", "tolerance", 1e-3)

    trace = convergence_study(mu, kern, f, g, schedule)
    scale = max(abs(v) for v in trace.values)
    report = ScenarioReport("weak_pairing", {})
    # one row per (term, eps) plus a coefficient-weighted totals row per eps
    rows = [
        [str(r.g_term), str(r.f_term), r.eps, r.value, r.i1, r.i2, r.i3, r.i4]
        for r in trace.rows
    ]
    coef = {
        (jj, ii): b * a
        for jj, (b, _) in enumerate(g.terms)
        for ii, (a, _) in enumerate(f.terms)
    }
    for k, eps in enumerate(trace.eps_schedule):
        at_eps = [r for r in trace.rows if r.eps == eps]
        weighted = [
            [coef[(r.g_term, r.f_term)] * part for part in (r.i1, r.i2, r.i3, r.i4)]
            for r in at_eps
        ]
        sums = [math.fsum(col) for col in zip(*weighted)]
        rows.append(["total", "total", eps, trace.values[k], *sums])
    report.add_table(
        "trace",
        ["g_term", "f_term", "eps", "value", "i1", "i2", "i3", "i4"],
        rows,
    )
    # a tail below the arithmetic noise floor counts as exact cancellation
    allowance = max(tol * scale, trace.cancellation_noise)
    report.add_verdict(
        "cauchy_tail",
        trace.cauchy_tail <= allowance,
        f"tail {trace.cauchy_tail:.3e} scale {scale:.3e} noise {trace.cancellation_noise:.3e}",
    )
    return report


# ---------------------------------------------------------------------------
# CantorGrowth
# ---------------------------------------------------------------------------


def scenario_cantor_growth(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    generations = cfg.get_ints("scenario", "generations", [3, 4, 5])
    centers_count = cfg.get_int("scenario", "centers", 200)
    radii_count = cfg.get_int("scenario", "radii", 50)
    stability = cfg.get_float("scenario", "stability_factor", 1.2)
    rows = []
    estimates = []
    for gen in generations:
        mu = cantor_four_corners(gen)
        idx = np.minimum(
            (rng.uniforms(centers_count) * mu.count).astype(int), mu.count - 1
        )
        centers = mu.positions[idx]
        radii = np.exp(
            np.linspace(math.log(mu.resolution), math.log(2.0), radii_count)
        )
        radii = np.maximum(radii, mu.resolution)  # exp/log round-trip guard
        c = growth_constant(mu, centers, radii)
        rows.append([gen, mu.count, c])
        estimates.append(c)
    report = ScenarioReport("cantor_growth", {})
    report.add_table("metrics", ["generation", "atoms", "growth_constant"], rows)
    stable = all(
        max(b / a, a / b) <= stability for a, b in zip(estimates, estimates[1:])
    )
    report.add_verdict("growth_stable", stable, f"factor {stability:g}")
    return report


# ---------------------------------------------------------------------------
# CarlesonEmbedding
# ---------------------------------------------------------------------------


class _GaussianDensity:
    def __init__(self, center, width):
        self.center = np.asarray(center, dtype=float)
        self.width = float(width)

    def __call__(self, pts):
        d2 = np.sum((np.atleast_2d(pts) - self.center) ** 2, axis=1)
        return np.exp(-d2 / (2.0 * self.width**2))


class _CoordinateSlabDensity:
    """y -> y_k restricted to a horizontal slab a <= y_n <= b."""

    def __init__(self, axis, lo, hi):
        self.axis = int(axis)
        self.lo = float(lo)
        self.hi = float(hi)

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        inside = (pts[:, -1] >= self.lo) & (pts[:, -1] <= self.hi)
        return pts[:, self.axis] * inside


class _ConstantDensity:
    def __init__(self, value: float = 1.0):
        self.value = float(value)

    def __call__(self, pts):
        return np.full(len(np.atleast_2d(pts)), self.value)


def scenario_carleson(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    graph = build_graph(cfg)
    resolutions = _resolutions(cfg)
    box = _parse_box(cfg, "scenario", graph.param_dim, [-1.0, 1.0])
    thickness = cfg.get_float("scenario", "thickness", 0.5)
    levels = cfg.get_int("scenario", "levels", 8)
    p = cfg.get_float("scenario", "p", 2.0)
    aperture = _aperture(cfg, graph)
    height = cfg.get_float("scenario", "height_cap", 2.0 * thickness)
    depth = cfg.get_int("scenario", "mesh_depth", 4)
    growth_cap = cfg.get_float("scenario", "growth_factor", 1.5)

    mid = graph.points_on_graph(np.zeros(graph.param_dim))[0]
    densities = [
        ("constant", _ConstantDensity()),
        ("gaussian", _GaussianDensity(mid + np.eye(graph.ambient_dim)[-1] * 0.4 * thickness, 0.5)),
        ("coordinate_slab", _CoordinateSlabDensity(0, float(mid[-1]) - 0.1, float(mid[-1]) + 0.8 * thickness)),
        ("zero", _ConstantDensity(0.0)),  # both sides vanish; ratio skipped
    ]

    from ..measure import graph_measure, slab_above_graph

    rows = []
    ratios: dict[str, list[float]] = {name: [] for name, _ in densities}
    for m in resolutions:
        mu = slab_above_graph(graph, box, m, thickness, levels)
        sigma = graph_measure(graph, box, m)
        sigma_u = graph.to_graph_frame(sigma.positions)[:, :-1]
        for name, g in densities:
            lhs = lp_norm(mu, g, p) ** p
            n_vals = np.empty(sigma.count)
            for i, u in enumerate(sigma_u):
                cone = Cone(graph, tuple(u.tolist()), aperture)
                n_vals[i] = nontangential_max(g, cone, height, depth)
            rhs = lp_norm(sigma, n_vals, p) ** p
            ratio = lhs / rhs if rhs > 0 else math.nan
            rows.append([m, name, lhs, rhs, ratio])
            if rhs > 0:
                ratios[name].append(ratio)

    report = ScenarioReport("carleson", {})
    report.add_table("metrics", ["resolution", "density", "lhs", "rhs", "ratio"], rows)
    bounded = _growth_bounded(ratios.values(), growth_cap)
    report.add_verdict("embedding_ratio_bounded", bounded, f"growth cap {growth_cap:g}")
    return report


# ---------------------------------------------------------------------------
# SeparatedBoundedness (and the unrectifiable negative control)
# ---------------------------------------------------------------------------


def _tstar_chunk(args):
    """Maximal-transform values for a fixed point chunk and all density
    tables; one distance sort is shared across densities."""
    nu, kern, pts, tables = args
    tt = TruncationTable(nu, kern, pts)
    return np.stack([tt.maximal_values(t) for t in tables], axis=0)


def _tstar_all(nu, kern, points, tables, threads):
    tasks = [
        (nu, kern, points[start : start + _POINT_CHUNK], tables)
        for start in range(0, len(points), _POINT_CHUNK)
    ]
    parts = _pmap(_tstar_chunk, tasks, threads)
    return np.concatenate(parts, axis=1)  # (n_tables, n_points)


def _ratio_table(nu, mu, kern, p_list, densities, threads):
    """max over densities of |T* g|_{L^p(mu)} / |g|_{L^p(nu)} per p."""
    tables = [g_vals for _, g_vals in densities]
    tstar = _tstar_all(nu, kern, mu.positions, tables, threads)
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


def scenario_separated_boundedness(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    kern = build_kernel(cfg)
    p_list = cfg.get_floats("scenario", "p", [1.5, 2.0, 3.0])
    n_g = cfg.get_int("scenario", "random_functions", 50)
    control = cfg.get_bool("scenario", "control", False)
    growth_cap = cfg.get_float("scenario", "growth_factor", 1.5)

    report = ScenarioReport("separated_boundedness", {})
    rows = []
    if control:
        # negative control: mu = nu = four-corners Cantor, same side;
        # the ratio is expected to grow with the generation (reported,
        # no pass criterion).
        generations = cfg.get_ints("scenario", "generations", [3, 4, 5, 6])
        for gen in generations:
            nu = cantor_four_corners(gen)
            densities = _control_densities(rng, nu, n_g)
            ratios = _ratio_table(nu, nu, kern, p_list, densities, threads)
            for p in p_list:
                rows.append([gen, p, ratios[p]])
        report.add_table("ratios", ["generation", "p", "max_ratio"], rows)
        report.add_verdict("control_reported", True, "negative control, no pass criterion")
        return report

    graph = build_graph(cfg)
    resolutions = _resolutions(cfg)
    per_p = {p: [] for p in p_list}
    for m in resolutions:
        nu = build_measure(_with_m(cfg, "nu", m), "nu", graph=graph)
        mu = build_measure(_with_m(cfg, "mu", m), "mu", graph=graph)
        if nu.count == 0 or mu.count == 0:
            raise ConfigError("empty measure in the separated configuration")
        if np.any(graph.classify_many(nu.positions) != -1):
            raise ConfigError("nu must be supported strictly below the graph")
        if np.any(graph.classify_many(mu.positions) == -1):
            raise ConfigError("mu must be supported above or on the graph")
        densities = _seeded_densities(rng, nu, n_g)
        ratios = _ratio_table(nu, mu, kern, p_list, densities, threads)
        for p in p_list:
            rows.append([m, p, ratios[p]])
            per_p[p].append(ratios[p])
    report.add_table("ratios", ["resolution", "p", "max_ratio"], rows)
    stable = _growth_bounded(per_p.values(), growth_cap)
    report.add_verdict("ratio_stable", stable, f"growth cap {growth_cap:g} per refinement")
    return report


def _with_m(cfg: Config, section: str, m: int) -> Config:
    """Clone the config with [section].m forced to the sweep value."""
    sections = {k: dict(v) for k, v in cfg.sections.items()}
    sections.setdefault(section, {})["m"] = str(m)
    clone = Config(sections)
    clone.echo = cfg.echo  # accumulate into the same echo
    return clone


def _seeded_densities(rng: Rng, nu: DiscreteMeasure, count: int):
    """Named per-atom tables of random simple functions; streams keyed by
    the function index so all resolutions see the same shapes."""
    box = nu.bounding_box()
    out = []
    for j in range(count):
        _, values = random_nonzero_density(rng.spawn(1000 + j), nu, box)
        out.append((f"g{j}", values))
    return out


def _control_densities(rng: Rng, nu: DiscreteMeasure, count: int):
    """Control densities always include the full-support indicator."""
    out = [("chi_square", np.ones(nu.count))]
    out.extend(_seeded_densities(rng, nu, count))
    return out


# ---------------------------------------------------------------------------
# DoubleIntegralConvergence (truncated double integrals across a graph split)
# ---------------------------------------------------------------------------


def scenario_double_integral(cfg: Config, rng: Rng, threads: int) -> ScenarioReport:
    graph = build_graph(cfg)
    kern = build_kernel(cfg)
    mu = build_measure(cfg, "mu", graph=graph)
    if cfg.has("mu2", "kind"):
        mu = concat([mu, build_measure(cfg, "mu2", graph=graph)])
    on, above, below = split_by_graph(mu, graph)
    outer = concat([above, on]) if on.count else above

    schedule = geometric_schedule(*_schedule_ends(cfg, mu))
    if len(schedule) < 4:
        raise ConfigError("schedule shorter than 4 entries")
    tol = cfg.get_float("scenario", "tolerance", 1e-2)

    inner_lower = concat([below, on]) if on.count else below
    forward = pair_sum_schedule(
        outer.positions, outer.weights, below.positions, below.weights, kern, schedule
    )
    mirrored = pair_sum_schedule(
        above.positions, above.weights,
        inner_lower.positions, inner_lower.weights, kern, schedule,
    )
    values = [fwd.value for fwd in forward]
    rows = [[eps, fwd.value, mir.value] for eps, fwd, mir in zip(schedule, forward, mirrored)]
    bounds = [
        max(fwd.pair_count, 1) * CANCELLATION_FACTOR * max(fwd.max_abs_term, mir.max_abs_term)
        for fwd, mir in zip(forward, mirrored)
    ]
    noise = max(bounds)
    # with no on-graph mass both orders sum the same terms
    consistency_ok = on.count > 0 or all(abs(v - m) <= b for (_, v, m), b in zip(rows, bounds))

    tail = cauchy_tail(values)
    scale = max(abs(v) for v in values)
    report = ScenarioReport("double_integral", {})
    report.add_table("trace", ["eps", "value", "mirror_value"], rows)
    allowance = max(tol * scale, noise)
    report.add_verdict(
        "cauchy_tail",
        tail <= allowance,
        f"tail {tail:.3e} scale {scale:.3e} noise {noise:.3e}",
    )
    report.add_verdict("mirror_consistent", consistency_ok)
    return report


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


SCENARIOS = {
    "kernelvalidation": scenario_kernel_validation,
    "coneseparation": scenario_cone_separation,
    "lemmal2check": scenario_lemma_l2,
    "pvconvergence": scenario_pv_convergence,
    "weakpairing": scenario_weak_pairing,
    "cantorgrowth": scenario_cantor_growth,
    "carlesonembedding": scenario_carleson,
    "separatedboundedness": scenario_separated_boundedness,
    "doubleintegralconvergence": scenario_double_integral,
}


def available_scenarios() -> list[str]:
    return sorted(SCENARIOS)


def run_scenario(
    cfg: Config,
    seed_override: int | None = None,
    threads: int = 1,
    out_dir: str | None = None,
) -> ScenarioReport:
    """Run the configured scenario; deterministic given (config, seed)."""
    tag = cfg.get_str("scenario", "tag", REQUIRED)
    key = tag.lower().replace("_", "").replace("-", "")
    if key not in SCENARIOS:
        raise ConfigError(f"unknown scenario tag {tag!r}")
    seed = seed_override if seed_override is not None else cfg.get_int("scenario", "seed", 0)
    cfg.echo["scenario.seed"] = str(seed)
    start = time.perf_counter()
    report = SCENARIOS[key](cfg, Rng(seed), threads)
    report.runtime_seconds = time.perf_counter() - start
    report.config_echo = dict(cfg.echo)
    if out_dir is not None:
        report.write(out_dir)
    return report

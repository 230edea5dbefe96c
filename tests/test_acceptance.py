"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its key metric.  Tolerances are pinned here, not configurable.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

import math
import time

import numpy as np
import pytest

import siolab as sl
from siolab.harness import config_from_dict, run_scenario
from siolab.harness.rng import Rng
from siolab.harness.scenarios import sample_cone_separation
from siolab.operators import pair_sum_stats
from siolab.pairing import CANCELLATION_FACTOR

from oracles import brute_force_sup


def _verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {tag}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 1 and 2: exact cancellation and the discrete Fubini identity
# on 100 seeded (measure, kernel, shape) configurations
# ---------------------------------------------------------------------------


def _overlap_measure(r: Rng, idx: int):
    if idx == 99:  # one configuration near the 10^4 atom cap
        return sl.uniform_on_shape(sl.Ball((0.0, 0.0), 1.0), 112)
    kind = idx % 4
    if kind == 0:
        return sl.cantor_four_corners(3 + idx % 3)
    if kind == 1:
        profiles = [
            sl.Affine((0.4,)),
            sl.Sawtooth(0.35, 0.6),
            sl.SmoothBump(0.5, 0.4),
            sl.ConeProfile(0.7),
        ]
        prof = profiles[(idx // 4) % 4]
        m = 150 + int(r.uniform(0, 1200))
        return sl.graph_measure(sl.LipschitzGraph(2, prof), [(-1.0, 1.0)], m)
    if kind == 2:
        center = (r.uniform(-0.3, 0.3), r.uniform(-0.3, 0.3))
        return sl.uniform_on_shape(sl.Ball(center, r.uniform(0.6, 1.0)), 20 + int(r.uniform(0, 25)))
    half = (r.uniform(0.4, 1.0), r.uniform(0.4, 1.0))
    return sl.uniform_on_shape(sl.Rectangle((0.0, 0.0), half), 18 + int(r.uniform(0, 25)))


def _overlap_kernel(r: Rng, idx: int):
    return [
        sl.RieszComponent(2, 0),
        sl.RieszComponent(2, 1),
        sl.OddHomogeneous(2, (3, 0)),
        sl.OddHomogeneous(2, (1, 2)),
    ][(idx // 7) % 4]


def _overlap_shape(r: Rng, box, max_radius):
    center = tuple(r.uniform(lo, hi) for lo, hi in box)
    if r.uniform(0.0, 1.0) < 0.75:
        return sl.Ball(center, r.uniform(0.15, max_radius))
    return sl.Rectangle(center, (r.uniform(0.15, max_radius), r.uniform(0.15, max_radius)))


@pytest.fixture(scope="module")
def overlap_records():
    rng = Rng(0x5EED_CAFE)
    records = []
    start = time.perf_counter()
    for idx in range(100):
        r = rng.spawn(idx)
        mu = _overlap_measure(r, idx)
        assert mu.count <= 10_000
        kern = _overlap_kernel(r, idx)
        box = mu.bounding_box()
        max_radius = 0.4 if idx == 99 else 0.8
        p_shape = _overlap_shape(r, box, max_radius)
        q_shape = _overlap_shape(r, box, max_radius)
        in_p = p_shape.contains_many(mu.positions)
        in_q = q_shape.contains_many(mu.positions)
        both, q_only = in_p & in_q, in_q & ~in_p
        eps = mu.bounding_diameter() / 4.0
        schedule = []
        while eps >= 4.0 * mu.resolution and len(schedule) < 8:
            schedule.append(eps)
            eps /= 2.0
        if not schedule:
            schedule = [4.0 * mu.resolution]
        for eps in schedule:
            s11 = pair_sum_stats(
                mu.positions[both], mu.weights[both],
                mu.positions[both], mu.weights[both], kern, eps,
            )
            s3 = pair_sum_stats(
                mu.positions[both], mu.weights[both],
                mu.positions[q_only], mu.weights[q_only], kern, eps,
            )
            j = pair_sum_stats(
                mu.positions[q_only], mu.weights[q_only],
                mu.positions[both], mu.weights[both], kern, eps,
            )
            records.append(
                {
                    "n": mu.count,
                    "i1": s11.value,
                    "i1_bound": mu.count**2 * CANCELLATION_FACTOR * s11.max_abs_term,
                    "fubini": abs(s3.value + j.value),
                    "fubini_bound": mu.count**2
                    * CANCELLATION_FACTOR
                    * max(s3.max_abs_term, j.max_abs_term),
                }
            )
    records.append({"elapsed": time.perf_counter() - start})
    return records


def test_criterion_1_exact_cancellation(overlap_records):
    elapsed = overlap_records[-1]["elapsed"]
    rows = overlap_records[:-1]
    worst = max((abs(rec["i1"]) - rec["i1_bound"] for rec in rows), default=0.0)
    ok = all(abs(rec["i1"]) <= rec["i1_bound"] for rec in rows) and elapsed < 60.0
    _verdict(
        1,
        "exact_cancellation_I1",
        ok,
        f"{len(rows)} (config, eps) checks, worst margin {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_discrete_fubini(overlap_records):
    elapsed = overlap_records[-1]["elapsed"]
    rows = overlap_records[:-1]
    ok = all(rec["fubini"] <= rec["fubini_bound"] for rec in rows) and elapsed < 60.0
    worst = max((rec["fubini"] for rec in rows), default=0.0)
    _verdict(2, "discrete_fubini_I3", ok, f"worst residual {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: breakpoint algorithm equals the brute-force eps-grid sup
# ---------------------------------------------------------------------------


def test_criterion_3_breakpoint_oracle():
    rng = Rng(0xB4EA4C)
    kernels = [
        sl.RieszComponent(2, 0),
        sl.RieszComponent(2, 1),
        sl.OddHomogeneous(2, (3, 0)),
        sl.OddHomogeneous(2, (1, 2)),
    ]
    start = time.perf_counter()
    worst_rel = 0.0
    for i in range(1000):
        r = rng.spawn(i)
        n_atoms = 20 + int(r.uniform(0, 180))
        positions = r.points_in_box(n_atoms, [(-1, 1), (-1, 1)])
        weights = r.uniforms(n_atoms, 0.0, 1.0)
        nu = sl.DiscreteMeasure(positions, weights, resolution=1e-9)
        g = r.uniforms(n_atoms, -1.0, 1.0)
        x = r.points_in_box(1, [(-1.2, 1.2), (-1.2, 1.2)])[0]
        kern = kernels[i % 4]
        fast = sl.maximal(nu, kern, g, x)
        slow = brute_force_sup(nu, kern, g, x, grid_size=10_000)
        if fast != slow:
            worst_rel = max(worst_rel, abs(fast - slow) / max(abs(slow), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-12 and elapsed < 60.0
    _verdict(3, "breakpoint_oracle", ok, f"1000 configs, worst rel {worst_rel:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: the cone separation inequality, 1e5 tuples per profile
# ---------------------------------------------------------------------------


def test_criterion_4_cone_inequality():
    rng = Rng(0xC04E)
    start = time.perf_counter()
    violations = 0
    worst = math.inf
    makers = [
        lambda r: sl.Affine((r.uniform(-0.8, 0.8),), r.uniform(-0.5, 0.5)),
        lambda r: sl.Sawtooth(r.uniform(0.1, 0.8), r.uniform(0.3, 1.0)),
        lambda r: sl.ConeProfile(r.uniform(0.2, 1.5)),
        lambda r: sl.SmoothBump(r.uniform(0.2, 1.0), r.uniform(0.3, 0.8)),
    ]
    for prof_idx, make in enumerate(makers):
        for draw in range(5):
            r = rng.spawn(100 * prof_idx + draw)
            graph = sl.LipschitzGraph(2, make(r))
            aperture = max(1.0, graph.lip_declared) * r.uniform(1.05, 4.0)
            slack = sample_cone_separation(graph, aperture, [(-1.5, 1.5)], 20_000, r)
            violations += int(np.sum(slack < -1e-12))
            worst = min(worst, float(np.min(slack)))
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "cone_separation_inequality",
        violations == 0,
        f"4 profiles x 1e5 tuples, 0 required, got {violations}, min slack {worst:.3e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: the two cone estimates with the explicit constants
# ---------------------------------------------------------------------------


def test_criterion_5_cone_estimates():
    start = time.perf_counter()
    all_ok = True
    worst = math.inf
    for dim in (2, 3):
        for prof_idx, graph_cfg in enumerate(
            [
                {"profile": "affine", "slope": ", ".join(["0.0"] * (dim - 1))},
                {"profile": "sawtooth", "amplitude": "0.3", "period": "0.5"},
                {"profile": "cone", "slope": "1.0"},
            ]
        ):
            axis = (prof_idx % dim) + 1
            m = 700 if dim == 2 else 26
            cfg = config_from_dict(
                {
                    "scenario": {
                        "tag": "LemmaL2Check",
                        "seed": str(1000 + 10 * dim + prof_idx),
                        "tuples": "10000",
                    },
                    "graph": {"dim": str(dim), **graph_cfg},
                    "kernel": {"family": "riesz", "dim": str(dim), "axis": str(axis)},
                    "nu": {
                        "kind": "graph_measure",
                        "box": "-1, 1",
                        "m": str(m),
                        "shift": "-0.5",
                    },
                }
            )
            rep = run_scenario(cfg)
            row = rep.table("metrics").rows[0]
            all_ok = all_ok and rep.passed
            worst = min(worst, row[2])
    elapsed = time.perf_counter() - start
    ok = all_ok and elapsed < 300.0
    _verdict(
        5,
        "pointwise_cone_estimates",
        ok,
        f"3 profiles x n in (2,3) x 1e4 tuples, worst slack {worst:.3e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: kernel class validation for Riesz components
# ---------------------------------------------------------------------------


def test_criterion_6_kernel_validation():
    from siolab import kernel as kn

    k = sl.RieszComponent(2, 0)  # defaults declare c0 = 1, c1 = n - 1 = 1
    rng = Rng(0xFACE)
    size = kn.size_bound_sup(k, 3000, rng)
    anti = kn.antisymmetry_residual(k, 3000, rng)
    x = kn._shell_samples(k, rng, 1000)
    grad = kn.gradient_fd(k, x)
    rel = np.abs(np.linalg.norm(grad, axis=1) * np.sum(x * x, axis=1) - 1.0)
    ok = (
        k.c0_declared == 1.0
        and k.c1_declared == 1.0
        and size == 1.0
        and anti == 0.0
        and float(np.max(rel)) < 1e-5
        and kn.validate(k, rng, 2000).ok
    )
    _verdict(
        6,
        "kernel_class_validation",
        ok,
        f"size sup {size}, antisymmetry {anti}, grad FD err {float(np.max(rel)):.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 7: separated boundedness ratio stability
# ---------------------------------------------------------------------------


def test_criterion_7_separated_boundedness():
    start = time.perf_counter()
    cfg = config_from_dict(
        {
            "scenario": {
                "tag": "SeparatedBoundedness",
                "seed": "20260809",
                "resolutions": "128, 256, 512, 1024",
                "random_functions": "50",
                "p": "1.5, 2, 3",
            },
            "graph": {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"},
            "kernel": {"family": "riesz", "dim": "2", "axis": "1"},
            "nu": {"kind": "graph_measure", "box": "-1, 1", "shift": "-1"},
            "mu": {"kind": "slab_above_graph", "box": "-1, 1", "thickness": "0.5"},
        }
    )
    rep = run_scenario(cfg)
    elapsed = time.perf_counter() - start
    # explicit doubling check on the recorded table
    series: dict[float, list[float]] = {}
    for m, p, ratio in rep.table("ratios").rows:
        series.setdefault(p, []).append(ratio)
    doubling_ok = all(
        b <= 1.5 * a for vals in series.values() for a, b in zip(vals, vals[1:])
    )
    ok = rep.passed and doubling_ok and elapsed < 600.0
    detail = "; ".join(
        f"p={p}: " + "->".join(f"{v:.3f}" for v in vals) for p, vals in series.items()
    )
    _verdict(7, "separated_boundedness_stability", ok, f"{detail}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 8: principal value convergence on graph measures
# ---------------------------------------------------------------------------


def test_criterion_8_pv_convergence():
    start = time.perf_counter()
    all_ok = True
    details = []
    for graph_cfg, label in [
        ({"profile": "affine", "dim": "2"}, "flat"),
        ({"profile": "smooth_bump", "dim": "2", "amplitude": "0.3", "width": "0.6"}, "bump"),
    ]:
        for axis in (1, 2):
            cfg = config_from_dict(
                {
                    "scenario": {
                        "tag": "PVConvergence",
                        "seed": "8",
                        "resolutions": "256, 1024, 4096",
                        "floor_factor": "8",
                        "eps0": "0.64",
                        "tolerance": "1e-2",
                    },
                    "graph": graph_cfg,
                    "kernel": {"family": "riesz", "dim": "2", "axis": str(axis)},
                }
            )
            rep = run_scenario(cfg)
            all_ok = all_ok and rep.passed
            finest = [row for row in rep.table("metrics").rows if row[0] == 4096]
            tail = max(row[3] for row in finest)
            details.append(f"{label}/ax{axis} tail {tail:.2e}")
    elapsed = time.perf_counter() - start
    _verdict(8, "pv_convergence", all_ok, "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 9: unrectifiable negative control grows with generation
# ---------------------------------------------------------------------------


def test_criterion_9_unrectifiable_control():
    start = time.perf_counter()
    cfg = config_from_dict(
        {
            "scenario": {
                "tag": "SeparatedBoundedness",
                "seed": "424242",
                "control": "true",
                "generations": "3, 4, 5, 6",
                "random_functions": "12",
                "p": "2",
            },
            "kernel": {"family": "riesz", "dim": "2", "axis": "1"},
        }
    )
    rep = run_scenario(cfg)
    ratios = [row[2] for row in rep.table("ratios").rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - start
    _verdict(
        9,
        "unrectifiable_negative_control",
        increasing,
        "ratios " + "->".join(f"{v:.3f}" for v in ratios) + f", {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: byte-identical CSV output across runs and worker counts
# ---------------------------------------------------------------------------


def _mini_suite():
    graph = {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"}
    riesz = {"family": "riesz", "dim": "2", "axis": "1"}
    return {
        "kernel_validation": {
            "scenario": {"tag": "KernelValidation", "seed": "11"},
            "kernel": riesz,
        },
        "cone_separation": {
            "scenario": {"tag": "ConeSeparation", "seed": "12", "samples": "20000"},
            "graph": graph,
        },
        "lemma_l2": {
            "scenario": {"tag": "LemmaL2Check", "seed": "13", "tuples": "1000"},
            "graph": graph,
            "kernel": riesz,
            "nu": {"kind": "graph_measure", "box": "-1, 1", "m": "200", "shift": "-0.6"},
        },
        "pv": {
            "scenario": {"tag": "PVConvergence", "seed": "14",
                         "resolutions": "128, 256", "eps0": "0.64"},
            "graph": {"profile": "affine", "dim": "2"},
            "kernel": riesz,
        },
        "weak_pairing": {
            "scenario": {"tag": "WeakPairing", "seed": "15", "tolerance": "0.1"},
            "kernel": riesz,
            "mu": {"kind": "cantor", "generation": "3"},
            "f": {"mode": "ball", "center": "0.3, 0.3", "radius": "0.35"},
            "g": {"mode": "ball", "center": "0.6, 0.6", "radius": "0.4"},
        },
        "cantor_growth": {
            "scenario": {"tag": "CantorGrowth", "seed": "16", "generations": "2, 3"},
        },
        "carleson": {
            "scenario": {"tag": "CarlesonEmbedding", "seed": "17", "resolutions": "24, 48", "mesh_depth": "3"},
            "graph": graph,
        },
        "separated": {
            "scenario": {
                "tag": "SeparatedBoundedness", "seed": "18",
                "resolutions": "144, 288", "random_functions": "6", "p": "2",
            },
            "graph": graph,
            "kernel": riesz,
            "nu": {"kind": "graph_measure", "box": "-1, 1", "shift": "-1"},
            "mu": {"kind": "slab_above_graph", "box": "-1, 1", "thickness": "0.5"},
        },
        "double_integral": {
            "scenario": {"tag": "DoubleIntegralConvergence", "seed": "19", "eps0": "1.0"},
            "graph": {"profile": "affine", "dim": "2"},
            "kernel": riesz,
            "mu": {"kind": "slab_above_graph", "box": "-1, 1", "m": "128",
                    "thickness": "0.4", "levels": "16"},
            "mu2": {"kind": "slab_above_graph", "box": "-1, 1", "m": "128",
                     "thickness": "0.4", "levels": "16", "shift": "-0.4"},
        },
    }


def _run_suite(out_dir, threads):
    paths = []
    for name, cfg in _mini_suite().items():
        run_scenario(config_from_dict(cfg), threads=threads, out_dir=str(out_dir / name))
        for p in sorted((out_dir / name).glob("*.csv")):
            paths.append(p)
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in paths}


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    run_a = _run_suite(tmp_path / "a", threads=1)
    run_b = _run_suite(tmp_path / "b", threads=1)
    run_c = _run_suite(tmp_path / "c", threads=8)
    identical = run_a == run_b == run_c
    elapsed = time.perf_counter() - start
    _verdict(
        10,
        "determinism_across_workers",
        identical and len(run_a) > 0,
        f"{len(run_a)} CSV files x 3 runs (1, 1, 8 workers), {elapsed:.1f}s",
    )

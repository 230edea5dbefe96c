"""Benchmark workloads: the scenario configs each workload runs.

Every scenario seed is derived from the benchmark seed, so the program
only ever sees generated configs.  Seed 0 reproduces the seeds of the
acceptance suite (criteria 5, 7, 9 and the criterion 10 mini-suite).

This module imports nothing from siolab: the set-up time measured by
the benchmark starts before siolab is imported.
"""

from __future__ import annotations

DEFAULT_SEED = 0
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_SAWTOOTH_2D = {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"}
_RIESZ_2D_AXIS1 = {"family": "riesz", "dim": "2", "axis": "1"}


def scenario_seed(base: int, bench_seed: int) -> int:
    """The seed of one scenario run; ``base`` at the default bench seed."""
    return (base + bench_seed * _GAMMA) & _MASK


def _crit7(seed):
    # criterion 7's config, with the 1024 resolution left out (it
    # alone would take longer than the three smaller ones together)
    return {
        "scenario": {
            "tag": "SeparatedBoundedness",
            "seed": str(scenario_seed(20260809, seed)),
            "resolutions": "128, 256, 512",
            "random_functions": "50",
            "p": "1.5, 2, 3",
        },
        "graph": dict(_SAWTOOTH_2D),
        "kernel": dict(_RIESZ_2D_AXIS1),
        "nu": {"kind": "graph_measure", "box": "-1, 1", "shift": "-1"},
        "mu": {"kind": "slab_above_graph", "box": "-1, 1", "thickness": "0.5"},
    }


def _crit9(seed):
    # criterion 9's negative control without generation 6 (a 420 MB
    # table, about 13.5 s)
    return {
        "scenario": {
            "tag": "SeparatedBoundedness",
            "seed": str(scenario_seed(424242, seed)),
            "control": "true",
            "generations": "3, 4, 5",
            "random_functions": "12",
            "p": "2",
        },
        "kernel": dict(_RIESZ_2D_AXIS1),
    }


def _lemma_l2(seed, dim, m):
    # criterion 5's sawtooth case: profile index 1, kernel axis 1 % dim + 1
    return {
        "scenario": {
            "tag": "LemmaL2Check",
            "seed": str(scenario_seed(1000 + 10 * dim + 1, seed)),
            "tuples": "10000",
        },
        "graph": {"dim": str(dim), "profile": "sawtooth", "amplitude": "0.3", "period": "0.5"},
        "kernel": {"family": "riesz", "dim": str(dim), "axis": "2"},
        "nu": {"kind": "graph_measure", "box": "-1, 1", "m": str(m), "shift": "-0.5"},
    }


def _double_integral(seed):
    # the criterion 10 mini-suite config
    slab = {"kind": "slab_above_graph", "box": "-1, 1", "m": "128", "thickness": "0.4", "levels": "16"}
    return {
        "scenario": {
            "tag": "DoubleIntegralConvergence",
            "seed": str(scenario_seed(19, seed)),
            "eps0": "1.0",
        },
        "graph": {"profile": "affine", "dim": "2"},
        "kernel": dict(_RIESZ_2D_AXIS1),
        "mu": dict(slab),
        "mu2": {**slab, "shift": "-0.4"},
    }


def _weak_pairing(seed):
    # fixed single balls: in random mode the seed would choose 1 to 25
    # shape pairs and with them the amount of work
    return {
        "scenario": {
            "tag": "WeakPairing",
            "seed": str(scenario_seed(15, seed)),
            "tolerance": "0.1",
        },
        "kernel": dict(_RIESZ_2D_AXIS1),
        "mu": {"kind": "uniform_on_shape", "shape": "ball", "center": "0, 0", "radius": "1", "m": "60"},
        "f": {"mode": "ball", "center": "0.2, 0.1", "radius": "0.5"},
        "g": {"mode": "ball", "center": "-0.1, 0.2", "radius": "0.6"},
    }


def _carleson(seed):
    return {
        "scenario": {
            "tag": "CarlesonEmbedding",
            "seed": str(scenario_seed(17, seed)),
            "resolutions": "256, 512, 1024",
            "mesh_depth": "4",
        },
        "graph": dict(_SAWTOOTH_2D),
    }


# workload -> ordered (run name, config maker, outputs depend on the seed)
WORKLOADS = {
    # TruncationTable: 50 prefix scans per 2048-point table (separated),
    # tied and zero distances (cantor_control), and many small tables
    # each built once and read once (lemma_l2_*)
    "tables": [
        ("separated", _crit7, True),
        ("cantor_control", _crit9, True),
        ("lemma_l2_dim2", lambda s: _lemma_l2(s, 2, 700), True),
        ("lemma_l2_dim3", lambda s: _lemma_l2(s, 3, 26), True),
    ],
    # no table: pair sums over large and masked blocks, and the cone
    # mesh with the non-tangential maximal function and the frame maps
    "pairs_cones": [
        ("double_integral", _double_integral, False),
        ("weak_pairing", _weak_pairing, False),
        ("carleson", _carleson, False),
    ],
}


def configs(workload: str, bench_seed: int) -> list[tuple[str, dict]]:
    """(run name, config dict) for every scenario run of one pass."""
    return [(name, make(bench_seed)) for name, make, _ in WORKLOADS[workload]]


def seeded_runs(workload: str) -> set[str]:
    """Names of the runs whose outputs change with the seed."""
    return {name for name, _, seeded in WORKLOADS[workload] if seeded}

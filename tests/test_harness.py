import math
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siolab as sl
from siolab import measure, operators
from siolab.harness import (
    ConfigError,
    Rng,
    config_from_dict,
    load_config,
    run_scenario,
    write_csv,
)
from siolab.harness.cli import EXIT_CONFIG, main as cli_main
from siolab.harness.config import REQUIRED
from siolab.harness.report import fmt_value
from siolab.harness import scenarios
from siolab.harness.scenarios import read_scenario

from oracles import cone_mesh_loop


# ---------------------------------------------------------------------------
# rng
# ---------------------------------------------------------------------------


def test_rng_reference_stream():
    # frozen reference words for seed 0: any implementation of the
    # documented constants must reproduce these exactly
    rng = Rng(0)
    words = [rng.next_u64() for _ in range(3)]
    assert words == [
        0x77ECFA3C0905E934,
        0xFEF5B8345CE0B238,
        0xB05801322907EE37,
    ]


def test_rng_scalar_vector_agreement():
    a, b = Rng(12345), Rng(12345)
    scalar = [a.next_u64() for _ in range(100)]
    vector = b.u64s(100).tolist()
    assert scalar == vector
    # and the state advanced identically
    assert a.next_u64() == b.next_u64()


def test_rng_uniform_range_and_determinism():
    r1, r2 = Rng(7), Rng(7)
    u1 = r1.uniforms(1000, -2.0, 3.0)
    u2 = r2.uniforms(1000, -2.0, 3.0)
    assert np.array_equal(u1, u2)
    assert np.all((u1 >= -2.0) & (u1 < 3.0))


def test_rng_unit_vectors():
    v = Rng(3).unit_vectors(500, 4)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)


def test_rng_spawn_streams_differ():
    base = Rng(11)
    s0, s1 = base.spawn(0), base.spawn(1)
    assert s0.next_u64() != s1.next_u64()
    # spawning does not advance the parent
    assert Rng(11).next_u64() == base.next_u64()


def test_rng_integer_bounds():
    rng = Rng(13)
    draws = [rng.integer(1, 5) for _ in range(500)]
    assert set(draws) == {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


CONFIG_TEXT = """
# experiment setup
[scenario]
tag = ConeSeparation
seed = 99
samples = 500

[graph]
profile = sawtooth
dim = 2
amplitude = 0.3
period = 0.5
"""


def test_load_config_and_types(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    assert cfg.get_str("scenario", "tag", REQUIRED) == "ConeSeparation"
    assert cfg.get_int("scenario", "seed", REQUIRED) == 99
    assert cfg.get_float("graph", "amplitude", REQUIRED) == 0.3


def test_config_lists_and_defaults():
    cfg = config_from_dict({"scenario": {"p": "1.5, 2, 3"}})
    assert cfg.get_floats("scenario", "p", REQUIRED) == [1.5, 2.0, 3.0]
    assert cfg.get_int("scenario", "seed", 0) == 0
    assert cfg.echo["scenario.seed"] == "0"  # defaults are echoed


def test_config_missing_required():
    cfg = config_from_dict({})
    with pytest.raises(ConfigError):
        cfg.get_str("scenario", "tag", REQUIRED)


def test_config_bad_number():
    cfg = config_from_dict({"scenario": {"seed": "not-a-number"}})
    with pytest.raises(ConfigError):
        cfg.get_int("scenario", "seed", REQUIRED)
    for bad in ("nan", "inf", "-inf", "1e400"):
        cfg = config_from_dict({"scenario": {"eps0": bad, "p": f"1.5, {bad}"}})
        with pytest.raises(ConfigError):
            cfg.get_float("scenario", "eps0", REQUIRED)
        with pytest.raises(ConfigError):
            cfg.get_floats("scenario", "p", REQUIRED)


def test_kernel_axis_is_one_based():
    from siolab.harness.config import build_kernel

    cfg = config_from_dict({"kernel": {"family": "riesz", "dim": "2", "axis": "2"}})
    k = build_kernel(cfg)
    assert k.axis == 1  # second coordinate


def test_kernel_config_odd_homogeneous_with_overrides():
    from siolab.harness.config import build_kernel

    cfg = config_from_dict(
        {"kernel": {"family": "odd_homogeneous", "dim": "3",
                    "exponents": "1, 1, 1", "c0": "0.8", "c1": "12"}}
    )
    k = build_kernel(cfg)
    assert isinstance(k, sl.OddHomogeneous)
    assert k.exponents == (1, 1, 1) and k.degree == 3
    assert k.c0_declared == 0.8 and k.c1_declared == 12.0


# ---------------------------------------------------------------------------
# report / CSV
# ---------------------------------------------------------------------------


def test_csv_round_trip_17g(tmp_path):
    path = tmp_path / "t.csv"
    value = math.pi * 1e-7
    write_csv(path, ["a", "b"], [[value, 1]])
    raw = path.read_bytes()
    assert b"\r\n" in raw
    text = raw.decode().splitlines()[1]
    assert float(text.split(",")[0]) == value  # 17 significant digits round-trip


def test_fmt_value_float_precision():
    x = 0.1 + 0.2
    assert float(fmt_value(x)) == x


def test_report_echo_and_text():
    cfg = config_from_dict(
        {"scenario": {"tag": "KernelValidation", "seed": "5"},
         "kernel": {"family": "riesz", "dim": "2"}}
    )
    rep = run_scenario(cfg)
    assert rep.passed
    assert rep.config_echo["scenario.seed"] == "5"
    assert rep.config_echo["kernel.family"] == "riesz"
    assert "kernel.axis = 1" in rep.to_text()  # defaults expanded


# ---------------------------------------------------------------------------
# scenario orchestration
# ---------------------------------------------------------------------------


def test_unknown_scenario_tag():
    cfg = config_from_dict({"scenario": {"tag": "NoSuchThing"}})
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_scenario_seed_override_changes_stream():
    cfg = {"scenario": {"tag": "ConeSeparation", "seed": "1", "samples": "1000"},
           "graph": {"profile": "cone", "dim": "2", "slope": "0.8"}}
    r1 = run_scenario(config_from_dict(cfg))
    r2 = run_scenario(config_from_dict(cfg), seed_override=2)
    s1 = r1.table("metrics").rows[0][2]
    s2 = r2.table("metrics").rows[0][2]
    assert s1 != s2  # different sampling streams
    assert r1.passed and r2.passed


def test_lemma_l2_rejects_measure_not_below_graph():
    cfg = config_from_dict(
        {"scenario": {"tag": "LemmaL2Check", "tuples": "100"},
         "graph": {"profile": "affine", "dim": "2"},
         "kernel": {"family": "riesz", "dim": "2"},
         "nu": {"kind": "graph_measure", "box": "-1, 1", "m": "50", "shift": "0.5"}}
    )
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_pv_scenario_rejects_small_floor():
    cfg = config_from_dict(
        {"scenario": {"tag": "PVConvergence", "resolutions": "64", "floor_factor": "2"},
         "graph": {"profile": "affine", "dim": "2"},
         "kernel": {"family": "riesz", "dim": "2"}}
    )
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_pv_converged_column_applies_the_scenario_tolerance():
    # tail_at_finest reads the same rule; point 1 has tail/scale 2.1e-3
    cfg = config_from_dict(
        {"scenario": {"tag": "PVConvergence", "resolutions": "256", "floor_factor": "8",
                      "eps0": "0.64", "tolerance": "1e-2"},
         "graph": {"profile": "smooth_bump", "dim": "2", "amplitude": "0.3", "width": "0.6"},
         "kernel": {"family": "riesz", "dim": "2", "axis": "1"}}
    )
    table = run_scenario(cfg).table("metrics")
    col = {name: i for i, name in enumerate(table.header)}
    assert len(table.rows) == 3
    for row in table.rows:
        assert row[col["converged"]] == int(row[col["tail"]] <= 1e-2 * row[col["scale"]])


def test_pv_tail_at_finest_fails_when_a_finest_row_does_not_converge(tmp_path, capsys):
    # point 0 at m = 1024 has tail/scale 0.028 > 0.025 and writes converged = 0,
    # while the largest tail over the points is below 0.025 of the largest scale
    cfg = {"scenario": {"tag": "PVConvergence", "resolutions": "256, 1024", "floor_factor": "8",
                        "eps0": "0.64", "tolerance": "0.025"},
           "graph": {"profile": "smooth_bump", "dim": "2", "amplitude": "0.3", "width": "0.6"},
           "kernel": {"family": "riesz", "dim": "2", "axis": "2"}}
    assert _cli_run(tmp_path, cfg) == 1
    rows = (tmp_path / "out" / "pv_convergence_metrics.csv").read_text().splitlines()
    assert rows[4].split(",")[:2] == ["1024", "0"] and rows[4].endswith(",0")
    assert "tail_at_finest: FAIL  (worst tail/scale 2.802e-02 vs 0.025)" in (
        tmp_path / "out" / "pv_convergence_report.txt").read_text()


_FLAT = {"profile": "affine", "dim": "2"}
_STEEP = {"profile": "affine", "dim": "2", "slope": "2"}  # Lip f = 2
_RIESZ = {"family": "riesz", "dim": "2"}
_CANTOR = {"kind": "cantor", "generation": "2"}
_SLAB = {"kind": "slab_above_graph", "box": "-1, 1", "m": "16", "thickness": "0.4", "levels": "4"}
_BALL = {"mode": "ball", "center": "0.5, 0.5", "radius": "0.3"}
_APERTURE = "aperture L must exceed"
_INCREASING = "resolutions must be increasing"
_FLOOR = "floor_factor must be >= 4"
_EPS0 = "eps0 must exceed the schedule floor"
_PV_H64 = sl.graph_measure(sl.LipschitzGraph(2, sl.Affine((0.0,))), [(-1.0, 1.0)], 64).resolution


def _scenario(tag, scenario=None, **sections):
    return {"scenario": {"tag": tag, **(scenario or {})}, **sections}


def _weak_pairing(scenario):
    return _scenario("WeakPairing", scenario, kernel=_RIESZ, mu=_CANTOR, f=_BALL, g=_BALL)


def _double_integral(scenario):
    return _scenario("DoubleIntegralConvergence", scenario, graph=_FLAT, kernel=_RIESZ, mu=_SLAB)


@pytest.mark.parametrize(
    "cfg, message",
    [
        pytest.param(_scenario("ConeSeparation", {"aperture": "1"}, graph=_FLAT), _APERTURE,
                     id="cone_separation-aperture"),
        pytest.param(_scenario("LemmaL2Check", {"aperture": "2"}, graph=_STEEP, kernel=_RIESZ),
                     _APERTURE, id="lemma_l2-aperture"),
        pytest.param(_scenario("CarlesonEmbedding", {"resolutions": "24, 48", "aperture": "1.5"},
                               graph=_STEEP), _APERTURE, id="carleson-aperture"),
        pytest.param(_scenario("PVConvergence", {"resolutions": "128, 64"}, graph=_FLAT,
                               kernel=_RIESZ), _INCREASING, id="pv-resolutions"),
        pytest.param(_scenario("CarlesonEmbedding", {"resolutions": "48, 24"}, graph=_FLAT),
                     _INCREASING, id="carleson-resolutions"),
        pytest.param(_scenario("SeparatedBoundedness", {"resolutions": "64, 32"}, graph=_FLAT,
                               kernel=_RIESZ), _INCREASING, id="separated-resolutions"),
        pytest.param(_weak_pairing({"floor_factor": "3.9"}), _FLOOR, id="weak_pairing-floor_factor"),
        pytest.param(_double_integral({"floor_factor": "3.9"}), _FLOOR,
                     id="double_integral-floor_factor"),
        # eps0 exactly at the floor 4 h, then below it
        pytest.param(_weak_pairing({"eps0": repr(4.0 * sl.cantor_four_corners(2).resolution)}),
                     _EPS0, id="weak_pairing-eps0_at_floor"),
        pytest.param(_double_integral({"eps0": "0.1"}), _EPS0, id="double_integral-eps0_below_floor"),
        pytest.param(_scenario("PVConvergence", {"resolutions": "64", "eps0": repr(4.0 * _PV_H64)},
                               graph=_FLAT, kernel=_RIESZ), _EPS0, id="pv-eps0_at_floor"),
        pytest.param(_scenario("PVConvergence", {"resolutions": "64", "eps0": repr(12.0 * _PV_H64)},
                               graph=_FLAT, kernel=_RIESZ), "scenario.eps0: schedule shorter than 4 entries",
                     id="pv-short_schedule"),
        # 0 meant diam(sigma) / 4 once; the default is now the key left out
        pytest.param(_scenario("PVConvergence", {"resolutions": "64", "eps0": "0"}, graph=_FLAT,
                               kernel=_RIESZ), _EPS0, id="pv-eps0_zero"),
    ],
)
def test_scenario_rule_violations_are_config_errors(cfg, message):
    with pytest.raises(ConfigError, match=message):
        run_scenario(config_from_dict(cfg))


_GRAPH_BELOW = {"kind": "graph_measure", "box": "-1, 1", "m": "16", "shift": "-0.5"}
_L2_SECTIONS = {"graph": _FLAT, "kernel": _RIESZ, "nu": _GRAPH_BELOW}
_COUNT_SECTIONS = {
    "LemmaL2Check": _L2_SECTIONS,
    "ConeSeparation": {"graph": _FLAT},
    "CantorGrowth": {},
    "CarlesonEmbedding": {"graph": _FLAT},
    "SeparatedBoundedness": {**_L2_SECTIONS, "mu": _SLAB},
}


@pytest.mark.parametrize(
    "tag, key",
    [
        ("LemmaL2Check", "tuples"),
        ("LemmaL2Check", "tuples_per_batch"),
        ("ConeSeparation", "samples"),
        ("CantorGrowth", "centers"),
        ("CantorGrowth", "radii"),
        ("CarlesonEmbedding", "levels"),
        ("CarlesonEmbedding", "mesh_depth"),
        ("SeparatedBoundedness", "random_functions"),
    ],
)
def test_cli_zero_count_is_a_config_error(tmp_path, capsys, tag, key):
    cfg = {"scenario": {"tag": tag, "resolutions": "8, 16", key: "0"}, **_COUNT_SECTIONS[tag]}
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for name, kv in cfg.items()
    ))
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"scenario.{key} must be >= 1" in capsys.readouterr().err


def test_carleson_constant_density_ratio():
    cfg = config_from_dict(
        {"scenario": {"tag": "CarlesonEmbedding", "seed": "3",
                      "resolutions": "24, 48", "mesh_depth": "3"},
         "graph": {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"}}
    )
    rep = run_scenario(cfg)
    assert rep.passed
    for m, name, lhs, rhs, ratio in rep.table("metrics").rows:
        if name == "constant":
            # for g == 1 both sides are plain total masses
            graph = sl.LipschitzGraph(2, sl.Sawtooth(0.3, 0.5))
            mu = sl.slab_above_graph(graph, [(-1.0, 1.0)], m, 0.5, 8)
            sigma = sl.graph_measure(graph, [(-1.0, 1.0)], m)
            assert lhs == pytest.approx(mu.total_mass, rel=1e-12)
            assert rhs == pytest.approx(sigma.total_mass, rel=1e-12)
        if name == "zero":
            # both sides vanish and the ratio is skipped, not a verdict
            assert lhs == 0.0 and rhs == 0.0 and math.isnan(ratio)


def test_carleson_dim3_rhs_matches_per_cone_loop(monkeypatch):
    # d = 2 cross-sections: every rhs cell of the batched run equals the
    # one that max |h| over a per-cone oracle mesh gives
    cfg = {"scenario": {"tag": "CarlesonEmbedding", "seed": "3", "resolutions": "8, 16", "mesh_depth": "3"},
           "graph": {"profile": "sawtooth", "dim": "3", "amplitude": "0.3", "period": "0.5"}}
    batched = run_scenario(config_from_dict(cfg))
    assert batched.passed

    def per_cone(hs, graph, apex_u, aperture, height_cap, mesh_depth):
        meshes = [cone_mesh_loop(sl.Cone(graph, tuple(u), aperture), height_cap, mesh_depth) for u in apex_u.tolist()]
        return np.array([[np.max(np.abs(h(mesh))) for mesh in meshes] for h in hs])

    monkeypatch.setattr(scenarios, "nontangential_max_many", per_cone)
    looped = run_scenario(config_from_dict(cfg))
    rhs = [row[3] for row in batched.table("metrics").rows]
    assert len(rhs) == 8 and sum(r > 0 for r in rhs) == 6  # all but the zero density
    assert rhs == [row[3] for row in looped.table("metrics").rows]


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 7),
    decade=st.integers(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
@example(dim=3, decade=0, seed=1)
@example(dim=7, decade=-3, seed=2)
def test_carleson_gaussian_has_the_bits_of_np_sum(dim, decade, seed):
    # the columns summed one at a time in column order are numpy's short-axis
    # sum below 8 columns: magnitudes 1e-150 to 1e150, about a zero center
    # and about the points' negated mean
    rng = np.random.default_rng(seed)
    exponents = np.clip(decade + rng.uniform(-1.0, 1.0, (256, dim)), -150.0, 150.0)
    pts = rng.choice([-1.0, 1.0], (256, dim)) * 10.0**exponents
    for center in (np.zeros(dim), -pts.mean(axis=0)):
        want = np.exp(-np.sum((pts - center) ** 2, axis=1) / 0.5)
        assert np.array_equal(scenarios._gaussian(pts, center), want)


def test_carleson_fails_on_an_infinite_ratio(monkeypatch):
    # with N g == 0 every rhs is 0 while lhs > 0 for all but the zero
    # density: the embedding ratio is unbounded, and the verdict says so
    cfg = {"scenario": {"tag": "CarlesonEmbedding", "seed": "3", "resolutions": "8, 16", "mesh_depth": "3"},
           "graph": {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"}}
    monkeypatch.setattr(scenarios, "nontangential_max_many", lambda hs, graph, apex_u, *rest: np.zeros((len(hs), len(apex_u))))
    rep = run_scenario(config_from_dict(cfg))
    rows = rep.table("metrics").rows
    assert all(rhs == 0.0 and math.isnan(ratio) for _, _, _, rhs, ratio in rows)
    assert any(lhs > 0.0 for _, _, lhs, _, _ in rows)
    assert not rep.passed


def test_random_density_rejects_zero_draws():
    from siolab.harness.scenarios import random_nonzero_density

    nu = sl.cantor_four_corners(2)
    box = nu.bounding_box()
    for stream in range(20):
        values = random_nonzero_density(Rng(1).spawn(stream), nu, box)
        assert np.any(values != 0.0)


def test_double_integral_empty_inner_region(tmp_path, capsys):
    # measure entirely above the graph (or, mirrored, entirely below): one
    # side is empty, every pair sum vanishes, and there is nothing to check
    slab = {"kind": "slab_above_graph", "box": "-1, 1", "m": "64", "thickness": "0.4", "levels": "8"}
    for mu, side in ((slab, "strictly below"), ({**slab, "shift": "-0.4"}, "above or on")):
        cfg = {"scenario": {"tag": "DoubleIntegralConvergence", "seed": "4", "eps0": "2.0"},
               "graph": {"profile": "affine", "dim": "2"},
               "kernel": {"family": "riesz", "dim": "2", "axis": "1"},
               "mu": mu}
        with pytest.raises(ConfigError, match=rf"^\[mu\]: no atom lies {side} the graph"):
            run_scenario(config_from_dict(cfg))
        assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
        assert f"[mu]: no atom lies {side}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_double_integral_mirror_pass_with_atoms_on_the_graph():
    # one grid row of the rectangle lies on the flat graph, so the mirror
    # order moves those atoms to the inner side; more rows lie above it than
    # below, so the vertical Riesz component differs between the orders
    rect = {"kind": "uniform_on_shape", "shape": "rectangle", "center": "0.3, 0.1", "half_widths": "1, 0.6",
            "m": "30"}
    cfg = {**_double_integral({"eps0": "3.0"}), "kernel": {**_RIESZ, "axis": "2"}, "mu": rect}
    rows = run_scenario(config_from_dict(cfg)).table("trace").rows
    mu = sl.uniform_on_shape(sl.Rectangle((0.3, 0.1), (1.0, 0.6)), 30)
    on, above, below = sl.split_by_graph(mu, sl.LipschitzGraph(2, sl.Affine((0.0,))))
    assert (on.count, above.count, below.count) == (30, 510, 360)
    inner = sl.concat([below, on])
    direct = operators.pair_sum_schedule(above.positions, above.weights, inner.positions, inner.weights,
                                         sl.RieszComponent(2, 1), [row[0] for row in rows])
    assert [row[2] for row in rows] == [stats.value for stats in direct]
    assert any(row[1] != row[2] for row in rows)


def test_separated_boundedness_threads_identical(tmp_path):
    cfg = {
        "scenario": {"tag": "SeparatedBoundedness", "seed": "21",
                     "resolutions": "32, 64", "random_functions": "6", "p": "2"},
        "graph": {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"},
        "kernel": {"family": "riesz", "dim": "2", "axis": "1"},
        "nu": {"kind": "graph_measure", "box": "-1, 1", "shift": "-1"},
        "mu": {"kind": "slab_above_graph", "box": "-1, 1", "thickness": "0.5"},
    }
    r1 = run_scenario(config_from_dict(cfg), threads=1, out_dir=str(tmp_path / "a"))
    r2 = run_scenario(config_from_dict(cfg), threads=4, out_dir=str(tmp_path / "b"))
    assert r1.passed and r2.passed
    csv_a = (tmp_path / "a" / "separated_boundedness_ratios.csv").read_bytes()
    csv_b = (tmp_path / "b" / "separated_boundedness_ratios.csv").read_bytes()
    assert csv_a == csv_b


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_pass_and_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "cone.cfg"
    cfg_path.write_text(CONFIG_TEXT)
    code = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "cone_separation_metrics.csv").exists()
    assert (tmp_path / "out" / "cone_separation_report.txt").exists()
    assert "result: PASS" in capsys.readouterr().out


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\ntag = Nonsense\n")
    assert cli_main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    # a config file that is not UTF-8 text
    bad.write_bytes(b"[scenario]\ntag = KernelValidation\n\xff\xfe\n[kernel]\ndim = 2\n")
    assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_cli_threads_below_one_is_rejected(tmp_path, capsys, threads):
    # --threads 0 or -3 used to run on one worker and exit 0
    cfg_path = tmp_path / "cone.cfg"
    cfg_path.write_text(CONFIG_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", str(cfg_path), "--threads", threads, "--out-dir", str(tmp_path / "out")])
    assert exit_info.value.code == EXIT_CONFIG
    assert "argument --threads: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", [0, -3])
def test_run_scenario_threads_below_one_is_rejected(tmp_path, threads):
    # the library entry point used to run such a count on one worker and return
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_scenario(config_from_dict(_KERNEL), threads=threads, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, eps0",
    [
        ("DoubleIntegralConvergence", "inf"),
        ("PVConvergence", "inf"),
        ("WeakPairing", "nan"),
        ("WeakPairing", "inf"),
    ],
)
def test_cli_non_finite_eps0_is_a_config_error(tmp_path, capsys, scenario, eps0):
    # an infinite eps0 made the geometric schedule grow without end
    cfg_path = tmp_path / "eps0.cfg"
    cfg_path.write_text(
        f"[scenario]\ntag = {scenario}\neps0 = {eps0}\nresolutions = 64\n"
        "[graph]\nprofile = affine\ndim = 2\n"
        "[kernel]\nfamily = riesz\ndim = 2\n"
        "[mu]\nkind = cantor\ngeneration = 2\n"
        "[f]\nmode = ball\ncenter = 0.3, 0.3\nradius = 0.35\n"
        "[g]\nmode = ball\ncenter = 0.6, 0.6\nradius = 0.4\n"
    )
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "eps0" in capsys.readouterr().err


def _fake_pools(monkeypatch, cpus):
    """Stands a recording executor that maps on the calling thread in for
    the thread pool: returns the list of (max_workers, maps, shut_down) of
    each pool made."""
    import concurrent.futures

    made = []

    class FakePool:
        def __init__(self, max_workers):
            self.record = {"max_workers": max_workers, "maps": 0, "shut_down": False}
            made.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.record["shut_down"] = True

        def map(self, fn, items):
            self.record["maps"] += 1
            return map(fn, items)

    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FakePool)
    return made


def test_pmap_caps_workers_at_cpu_count(monkeypatch):
    made = _fake_pools(monkeypatch, 3)
    cfg = {"scenario": {"tag": "ConeSeparation", "samples": "20000"}, "graph": _FLAT}  # two chunks
    for threads in (64, 2):
        run_scenario(config_from_dict(cfg), threads=threads)
    assert made == [{"max_workers": 3, "maps": 1, "shut_down": True},
                    {"max_workers": 2, "maps": 1, "shut_down": True}]


def test_pmap_builds_one_pool_per_run(monkeypatch):
    # a run's maps share one pool, shut down with the run; one item maps
    # on the calling thread, and one worker builds no pool
    import concurrent.futures

    made = _fake_pools(monkeypatch, 2)
    items = list(range(5))
    assert scenarios._pmap(abs, items, None) == items
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        assert scenarios._pmap(abs, [-1], pool) == [1]
        assert made == [{"max_workers": 2, "maps": 0, "shut_down": False}]
        for _ in range(3):
            assert scenarios._pmap(abs, items, pool) == items
    assert made == [{"max_workers": 2, "maps": 3, "shut_down": True}]
    cfg = config_from_dict({
        "scenario": {"tag": "SeparatedBoundedness", "seed": "5", "resolutions": "300, 400",
                     "random_functions": "3", "p": "2"},
        "graph": {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"},
        "kernel": {"family": "riesz", "dim": "2", "axis": "1"},
        "nu": {"kind": "graph_measure", "box": "-1, 1", "shift": "-1"},
        "mu": {"kind": "slab_above_graph", "box": "-1, 1", "thickness": "0.5"},
    })
    made.clear()
    one = run_scenario(cfg, threads=1)
    assert made == []
    two = run_scenario(cfg, threads=2)  # 2400 and 3200 slab points: two chunks per resolution
    assert made == [{"max_workers": 2, "maps": 2, "shut_down": True}]
    assert one.tables == two.tables


def test_cli_validate_kernel(tmp_path):
    cfg_path = tmp_path / "k.cfg"
    cfg_path.write_text("[scenario]\ntag = KernelValidation\n[kernel]\nfamily = riesz\ndim = 2\naxis = 1\n")
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 0


def test_cli_pv_subcommand(tmp_path):
    cfg_path = tmp_path / "pv.cfg"
    cfg_path.write_text(
        "[scenario]\ntag = PVConvergence\nseed = 5\nresolutions = 128, 256\neps0 = 0.64\n"
        "[graph]\nprofile = affine\ndim = 2\n"
        "[kernel]\nfamily = riesz\ndim = 2\naxis = 1\n"
    )
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "pv_convergence_metrics.csv").exists()


def test_cli_env_out_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SIOLAB_OUT", str(tmp_path / "envout"))
    cfg_path = tmp_path / "k.cfg"
    cfg_path.write_text("[scenario]\ntag = KernelValidation\n[kernel]\nfamily = riesz\ndim = 2\n")
    assert cli_main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "kernel_validation_report.txt").exists()


def test_cli_failing_verdict_exit_code(tmp_path, capsys):
    # understate c0 so the size validation fails
    cfg_path = tmp_path / "k.cfg"
    cfg_path.write_text("[scenario]\ntag = KernelValidation\n[kernel]\nfamily = riesz\ndim = 2\nc0 = 0.5\n")
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# [scenario] key tables
# ---------------------------------------------------------------------------


def _cli_run(tmp_path, cfg, *flags) -> int:
    """Exit code of ``siolab run`` on the config dict ``cfg``, with ``flags``."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for name, kv in cfg.items()
    ))
    return cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path / "out"), *flags])


_CARLESON = {"graph": _FLAT, "scenario": {"tag": "CarlesonEmbedding", "resolutions": "8, 16"}}
_SEPARATED = {**_COUNT_SECTIONS["SeparatedBoundedness"],
              "scenario": {"tag": "SeparatedBoundedness", "resolutions": "8, 16"}}
_CONTROL = {"kernel": _RIESZ, "scenario": {"tag": "SeparatedBoundedness", "control": "true"}}
_PV = {"graph": _FLAT, "kernel": _RIESZ, "scenario": {"tag": "PVConvergence", "resolutions": "64"}}
_KERNEL = {"kernel": _RIESZ, "scenario": {"tag": "KernelValidation"}}
_CANTOR_GROWTH = {"scenario": {"tag": "CantorGrowth"}}


def _with(base, **keys):
    return {**base, "scenario": {**base["scenario"], **keys}}


@pytest.mark.parametrize(
    "cfg, key",
    [
        pytest.param(_with(_CARLESON, p="0.5"), "p", id="carleson-p"),
        pytest.param(_with(_CARLESON, thickness="0"), "thickness", id="carleson-thickness"),
        pytest.param(_with(_CARLESON, height_cap="0"), "height_cap", id="carleson-height_cap"),
        # the mesh's squared norms overflow: the run thinned the mesh, read the
        # gaussian's rhs as 0 and failed on an infinite ratio
        pytest.param(_with(_CARLESON, height_cap="1e300"), "height_cap", id="carleson-height_cap_overflow"),
        pytest.param(_with(_CARLESON, resolutions="0, 8"), "resolutions", id="carleson-resolution_0"),
        pytest.param(_with(_CARLESON, box="1, -1"), "box", id="carleson-box_reversed"),
        # the cone mesh point guard, checked on its bound before any allocation
        pytest.param(_with(_CARLESON, mesh_depth="20"), "mesh_depth", id="carleson-mesh_depth_guard"),
        pytest.param(_with(_CARLESON, mesh_depth="1000000000"), "mesh_depth", id="carleson-mesh_depth_huge"),
        pytest.param(_with(_SEPARATED, p="0.5"), "p", id="separated-p_below_1"),
        pytest.param(_with(_SEPARATED, p="2, 1"), "p", id="separated-p_1"),
        pytest.param(_with(_CANTOR_GROWTH, generations="11"), "generations", id="cantor-generation_11"),
        pytest.param(_with(_PV, resolutions=""), "resolutions", id="pv-empty_resolutions"),
        pytest.param(_with(_PV, points=""), "points", id="pv-empty_points"),
        pytest.param(_with(_PV, box="-1, 1, 0"), "box", id="pv-box_odd"),
        pytest.param(_with(_CANTOR_GROWTH, generations=""), "generations", id="cantor-empty_generations"),
        pytest.param(_with(_SEPARATED, p=""), "p", id="separated-empty_p"),
        pytest.param(_with(_SEPARATED, resolutions=""), "resolutions", id="separated-empty_resolutions"),
        pytest.param(_with(_CONTROL, generations=""), "generations", id="control-empty_generations"),
        pytest.param(_with(_CONTROL, random_functions="-1"), "random_functions",
                     id="control-negative_random_functions"),
        pytest.param(_with(_CONTROL, resolutions="8"), "resolutions", id="control-resolutions"),
        pytest.param(_with(_SEPARATED, generations="3"), "generations", id="separated-generations"),
        pytest.param(_with(_KERNEL, samples="0"), "samples", id="kernel-samples_0"),
        pytest.param(_with(_KERNEL, samples="-5"), "samples", id="kernel-samples_negative"),
        pytest.param(_with(_weak_pairing({}), tolerence="1e-9"), "tolerence", id="weak_pairing-misspelt"),
    ],
)
def test_cli_scenario_key_out_of_schema_is_a_config_error(tmp_path, capsys, cfg, key):
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    assert f"scenario.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param({"kernel": _RIESZ, "mu": {"kind": "cantor", "generation": "0"},
                      "scenario": {"tag": "WeakPairing"}}, id="weak_pairing-cantor_0"),
        pytest.param(_with(_SEPARATED, resolutions="1, 2"), id="separated-resolution_1"),
        pytest.param(_with(_CONTROL, generations="0", random_functions="2"), id="control-generation_0"),
    ],
)
def test_cli_random_functions_on_one_atom_position_are_a_config_error(tmp_path, capsys, cfg):
    # the balls' radii scale with the bounding box, which is a point here
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    assert "two or more positions" in capsys.readouterr().err


_RIESZ_3D = {"family": "riesz", "dim": "3", "axis": "1"}
_CRIT10_SLAB = {"kind": "slab_above_graph", "box": "-1, 1", "m": "128", "thickness": "0.4", "levels": "16"}


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param({"scenario": {"tag": "PVConvergence", "resolutions": "256", "eps0": "0.64"},
                      "graph": _FLAT}, id="pv"),
        pytest.param({"scenario": {"tag": "DoubleIntegralConvergence", "eps0": "1.0"}, "graph": _FLAT,
                      "mu": _CRIT10_SLAB, "mu2": {**_CRIT10_SLAB, "shift": "-0.4"}}, id="double_integral"),
        pytest.param(_with(_SEPARATED, resolutions="64"), id="separated"),
        pytest.param(_CONTROL, id="control"),
        pytest.param({"scenario": {"tag": "WeakPairing", "tolerance": "0.1"},
                      "mu": {"kind": "cantor", "generation": "3"},
                      "f": {"mode": "ball", "center": "0.3, 0.3", "radius": "0.35"},
                      "g": {"mode": "ball", "center": "0.6, 0.6", "radius": "0.4"}}, id="weak_pairing"),
    ],
)
def test_cli_kernel_dimension_mismatch_is_a_config_error(tmp_path, capsys, cfg):
    # a 3-D kernel on 2-D data used to run and report PASS
    assert _cli_run(tmp_path, {**cfg, "kernel": _RIESZ_3D}) == EXIT_CONFIG
    assert "kernel dimension 3 differs" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [_with(_CARLESON, resolutions="50000000"), _with(_PV, resolutions="50000000")],
                         ids=["carleson", "pv"])
def test_cli_atom_count_guard_is_a_config_error(tmp_path, capsys, cfg):
    # a scenario-built measure past the guard exits 2 before allocating it
    start = time.perf_counter()
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    assert time.perf_counter() - start < 10.0
    assert f"atom count guard exceeded: 50000000 atoms, limit {measure.ATOM_COUNT_GUARD}" in capsys.readouterr().err


# the benchmark's WeakPairing config: a ball of mu in 2-D, fixed f and g
_BALL_MU = {"kind": "uniform_on_shape", "shape": "ball", "center": "0, 0", "radius": "1", "m": "60"}
_SAWTOOTH = {"profile": "sawtooth", "dim": "2", "amplitude": "0.3", "period": "0.5"}


_TABLE_LIMIT = f"limit {operators.SORT_CELLS_GUARD}"
_PAIR_LIMIT = f"limit {operators.PAIR_COUNT_GUARD}"


_LEMMA_L2_NU = {"kind": "graph_measure", "box": "-1, 1", "m": "4096", "shift": "-1"}


@pytest.mark.parametrize(
    "cfg, key, limit, flags",
    [
        pytest.param(_scenario("LemmaL2Check", {"tuples": "20000", "tuples_per_batch": "20000"},
                               graph=_SAWTOOTH, kernel=_RIESZ, nu=_LEMMA_L2_NU),
                     "scenario.tuples_per_batch", _TABLE_LIMIT, (), id="lemma_l2-table_bytes"),
        # two batches, so the guard is raised inside a worker thread
        pytest.param(_scenario("LemmaL2Check", {"tuples": "40000", "tuples_per_batch": "20000"},
                               graph=_SAWTOOTH, kernel=_RIESZ, nu=_LEMMA_L2_NU),
                     "scenario.tuples_per_batch", _TABLE_LIMIT, ("--threads", "2"), id="lemma_l2-table_bytes-threads"),
        pytest.param(_with(_CONTROL, generations="8", random_functions="0", p="2"), "scenario.generations",
                     _TABLE_LIMIT, (), id="control-table_bytes"),
        pytest.param(_with(_SEPARATED, resolutions="32768", random_functions="1", p="2"), "scenario.resolutions",
                     _TABLE_LIMIT, (), id="separated-table_bytes"),
        pytest.param(_scenario("DoubleIntegralConvergence", graph=_FLAT, kernel=_RIESZ,
                               mu={**_BALL_MU, "center": "0, 0.3", "m": "1000"}),
                     "[mu]", _PAIR_LIMIT, (), id="double_integral-pair_count"),
        pytest.param(_scenario("WeakPairing", kernel=_RIESZ, mu={**_BALL_MU, "m": "1000"},
                               f={"mode": "ball", "center": "-0.5, 0", "radius": "0.5"},
                               g={"mode": "ball", "center": "0.5, 0", "radius": "0.5"}),
                     "[mu]", _PAIR_LIMIT, (), id="weak_pairing-pair_count"),
    ],
)
def test_cli_operator_guard_is_a_config_error(tmp_path, capsys, monkeypatch, cfg, key, limit, flags):
    # a table or a pair sum past its guard exits 2 before any output is written,
    # naming the size asked for and the limit
    monkeypatch.setattr(scenarios.os, "cpu_count", lambda: 2)  # --threads 2 gets two workers on any host
    assert _cli_run(tmp_path, cfg, *flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key}: " in err and "guard exceeded" in err and limit in err
    assert not (tmp_path / "out").exists()


def test_cli_repeated_resolution_is_a_config_error(tmp_path, capsys):
    # "increasing" is strict: a repeat used to run, write each row twice and pass
    cfg = {"graph": _SAWTOOTH, "scenario": {"tag": "CarlesonEmbedding", "resolutions": "16, 16", "mesh_depth": "2"}}
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    assert "scenario.resolutions must be increasing" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_STACK_LIMIT = "limit 33554432"  # 2^25 density values, 256 MiB


def _no_draw(*args):
    raise AssertionError("densities drawn before the stack guards")


@pytest.mark.parametrize(
    "cfg, key, limit",
    [
        # the first 2048-point chunk against 4^8 atoms: 134 M sort cells
        pytest.param(_with(_CONTROL, generations="8", random_functions="10000", p="2"), "scenario.generations",
                     _TABLE_LIMIT, id="control-sort_cells"),
        # 1,000,001 densities on 4^3 atoms: 64 M values
        pytest.param(_with(_CONTROL, generations="3", random_functions="1000000", p="2"),
                     "scenario.random_functions", _STACK_LIMIT, id="control-stack_values"),
        pytest.param(_with(_SEPARATED, resolutions="16", random_functions="1000000", p="2"),
                     "scenario.random_functions", _STACK_LIMIT, id="separated-stack_values"),
    ],
)
def test_density_stack_guards_refuse_before_the_draw(tmp_path, capsys, monkeypatch, cfg, key, limit):
    # D x N densities could fill memory before the sort guard refused the first chunk
    monkeypatch.setattr(scenarios, "_seeded_densities", _no_draw)
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{key}: " in err and "guard exceeded" in err and limit in err


@pytest.mark.parametrize(
    "section, ball, message",
    [
        ("f", {"radius": "0"}, "[f]"),
        ("g", {"radius": "-1"}, "[g]"),
        ("f", {"center": "0, 0, 0"}, "f.center"),
        ("g", {"center": "0.5"}, "g.center"),
    ],
)
def test_cli_bad_simple_function_ball_is_a_config_error(tmp_path, capsys, section, ball, message):
    cfg = {
        "scenario": {"tag": "WeakPairing", "tolerance": "0.1"},
        "kernel": _RIESZ,
        "mu": _BALL_MU,
        "f": {"mode": "ball", "center": "0.2, 0.1", "radius": "0.5"},
        "g": {"mode": "ball", "center": "-0.1, 0.2", "radius": "0.6"},
    }
    cfg[section] = {**cfg[section], **ball}
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and next(iter(ball)) in err


_FLAT_3D = {"profile": "affine", "dim": "3"}
_MU2_BALL = {"kind": "uniform_on_shape", "shape": "ball", "center": "0, -0.5", "radius": "0.3", "m": "8"}


@pytest.mark.parametrize(
    "cfg, message",
    [
        # the three dimension mismatches ended in a traceback with exit 1 (a failed verdict's code)
        pytest.param(_scenario("SeparatedBoundedness", {"resolutions": "8, 16", "random_functions": "2", "p": "2"},
                               graph=_FLAT_3D, kernel=_RIESZ_3D, nu={"kind": "cantor", "generation": "3"},
                               mu={**_SLAB, "levels": "2"}),
                     "[nu] dimension 2 differs from the graph dimension 3", id="separated-cantor_nu"),
        pytest.param(_scenario("DoubleIntegralConvergence", graph=_FLAT_3D, kernel=_RIESZ_3D,
                               mu={"kind": "cantor", "generation": "4"}),
                     "[mu] dimension 2 differs from the graph dimension 3", id="double_integral-cantor_mu"),
        pytest.param({**_double_integral({"eps0": "1.0"}), "mu2": {**_MU2_BALL, "center": "0, 0, -0.5"}},
                     "[mu], [mu2]: ambient dimensions differ", id="double_integral-3d_mu2"),
        # the shape's message named no section
        pytest.param({**_double_integral({"eps0": "1.0"}), "mu2": {**_MU2_BALL, "radius": "0"}},
                     "[mu2]: radius must be > 0", id="double_integral-mu2_radius_0"),
    ],
)
def test_cli_bad_measure_is_a_config_error_naming_its_section(tmp_path, capsys, cfg, message):
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_RANDOM_PAIRING = _scenario("WeakPairing", {"seed": "7"}, kernel=_RIESZ, mu={**_BALL_MU, "m": "40"})


def test_weak_pairing_default_streams_give_a_nonzero_trace():
    # f and g once shared stream 0, so g = f and every total was cancellation noise
    rep = run_scenario(config_from_dict(_RANDOM_PAIRING))
    assert (rep.config_echo["f.stream"], rep.config_echo["g.stream"]) == ("0", "1")
    totals = [row[3] for row in rep.table("trace").rows if row[0] == "total"]
    noise = float(rep.verdicts[0].detail.split("noise ")[1])
    assert max(abs(v) for v in totals) > 1e3 * noise


@pytest.mark.parametrize("stream", ["0", str(2**64)], ids=["equal", "equal_mod_2_64"])
def test_cli_weak_pairing_equal_streams_are_a_config_error(tmp_path, capsys, stream):
    assert _cli_run(tmp_path, {**_RANDOM_PAIRING, "g": {"stream": stream}}) == EXIT_CONFIG
    assert "g.stream" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_schema_echo_and_computed_defaults():
    cfg = config_from_dict(_with(_CARLESON, p="3"))
    _, values = read_scenario(cfg)
    assert values["p"] == 3.0 and values["resolutions"] == [8, 16]
    assert values["aperture"] is None and values["height_cap"] is None  # computed later
    assert cfg.echo["scenario.p"] == "3" and cfg.echo["scenario.levels"] == "8"
    assert "scenario.aperture" not in cfg.echo
    rep = run_scenario(config_from_dict(_with(_CARLESON, thickness="0.25")))
    assert rep.config_echo["scenario.aperture"] == "2.0"
    assert rep.config_echo["scenario.height_cap"] == "0.5"  # 2 thickness


def test_schema_control_switch_picks_its_keys():
    rep = run_scenario(config_from_dict(_with(_CONTROL, random_functions="0", generations="2")))
    assert rep.config_echo["scenario.generations"] == "2"
    assert "scenario.resolutions" not in rep.config_echo
    _, values = read_scenario(config_from_dict(_SEPARATED))
    assert values["generations"] is None and values["control"] is False
    with pytest.raises(ConfigError, match="scenario.control is not a boolean"):
        read_scenario(config_from_dict(_with(_SEPARATED, control="maybe")))


_PV_256 = {"scenario": {"tag": "PVConvergence", "resolutions": "256", "eps0": "0.64"}, "graph": _FLAT,
           "kernel": _RIESZ}
_WEAK_PAIRING = {"scenario": {"tag": "WeakPairing", "tolerance": "0.1"}, "kernel": _RIESZ,
                 "mu": {"kind": "cantor", "generation": "3"},
                 "f": {"mode": "ball", "center": "0.3, 0.3", "radius": "0.35"},
                 "g": {"mode": "ball", "center": "0.6, 0.6", "radius": "0.4"}}


@pytest.mark.parametrize(
    "cfg, key",
    [
        pytest.param({**_PV_256, "kernel": {**_RIESZ, "axs": "2"}}, "kernel.axs", id="kernel"),
        pytest.param({**_PV_256, "graph": {**_FLAT, "slop": "0.5"}}, "graph.slop", id="graph"),
        pytest.param(_scenario("LemmaL2Check", {"tuples": "200"}, graph=_FLAT, kernel=_RIESZ,
                               nu={"kind": "slab_above_graph", "box": "-1, 1", "m": "16", "thickness": "0.2",
                                   "shift": "-0.5", "levles": "2"}),
                     "nu.levles", id="nu"),
        pytest.param({**_double_integral({"eps0": "1.0"}), "mu": _CRIT10_SLAB,
                      "mu2": {**_CRIT10_SLAB, "shfit": "-0.4"}}, "mu2.shfit", id="mu2"),
        pytest.param({**_WEAK_PAIRING, "f": {**_WEAK_PAIRING["f"], "coeff": "2"}}, "f.coeff", id="f"),
        # the resolution sweep sets the atom counts of nu and mu
        pytest.param(_SEPARATED, "nu.m", id="separated-nu_m"),
    ],
)
def test_cli_unread_key_is_a_config_error(tmp_path, capsys, cfg, key):
    # otherwise a misspelt optional key silently takes its default
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the ball lies on both sides of the graph, so without [mu2] the run passes
_BALL_DOUBLE = {**_double_integral({"eps0": "2.0"}), "mu": {**_BALL_MU, "m": "80"}}
_KINDLESS_SLAB = {k: v for k, v in _CRIT10_SLAB.items() if k != "kind"}


@pytest.mark.parametrize(
    "cfg, section",
    [
        pytest.param({**_BALL_DOUBLE, "mu_2": {**_CRIT10_SLAB, "shift": "-0.4"}}, "[mu_2]", id="misspelt_header"),
        pytest.param({**_BALL_DOUBLE, "mu2": {**_KINDLESS_SLAB, "knd": "slab_above_graph", "shift": "-0.4"}}, "[mu2]",
                     id="misspelt_kind"),
        pytest.param({**_WEAK_PAIRING, "nu": _CANTOR}, "[nu]", id="weak_pairing_nu"),
    ],
)
def test_cli_unread_section_is_a_config_error(tmp_path, capsys, cfg, section):
    # otherwise the run traces without the section and no echo line shows it
    assert _cli_run(tmp_path, cfg) == EXIT_CONFIG
    assert f"section not read by this run: {section}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the benchmark's WeakPairing config (a ball of mu) and criterion 10's (Cantor)
_BENCH_PAIRING = _scenario("WeakPairing", {"tolerance": "0.1"}, kernel={**_RIESZ, "axis": "1"}, mu=_BALL_MU,
                           f={"mode": "ball", "center": "0.2, 0.1", "radius": "0.5"},
                           g={"mode": "ball", "center": "-0.1, 0.2", "radius": "0.6"})


def _verdicts(cfg):
    return {v.name: v for v in run_scenario(config_from_dict(cfg)).verdicts}


@pytest.mark.parametrize("cfg", [_BENCH_PAIRING, _WEAK_PAIRING], ids=["benchmark", "cantor"])
def test_weak_pairing_regions_separated_catches_a_lowered_ball_cap(monkeypatch, cfg):
    # the complement graphs of Q must support Q from below; lowered by a
    # tenth of the radius, they cut through Q's atoms
    assert _verdicts(cfg)["regions_separated"].passed
    value = sl.BallCap.value
    monkeypatch.setattr(sl.BallCap, "value", lambda self, u: value(self, u) - 0.1 * self.radius)
    assert not _verdicts(cfg)["regions_separated"].passed


def test_weak_pairing_verdict_does_not_depend_on_the_coefficient_scale():
    # the noise floor once ignored b_j a_i, so coef = 1e-8 put the tail
    # below it and turned this FAIL into a PASS
    runs = []
    for coef in ("1", "1e-8"):
        cfg = _with(_BENCH_PAIRING, tolerance="0.001")
        cfg["f"] = {**cfg["f"], "coef": coef}
        cfg["g"] = {**cfg["g"], "coef": coef}
        tail = _verdicts(cfg)["cauchy_tail"]
        fields = tail.detail.split()
        runs.append((tail.passed, float(fields[1]), float(fields[3]), float(fields[5])))
    assert not runs[0][0] and not runs[1][0]
    # b_j a_i = 1e-16 scales tail, scale and noise alike (the detail prints four digits)
    assert runs[1][1:] == pytest.approx([1e-16 * v for v in runs[0][1:]], rel=1e-3)

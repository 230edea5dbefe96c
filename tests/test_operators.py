import math
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siolab as sl
from siolab import measure, operators, summation
from siolab.operators import density_values, hl_maximal_batch, pair_sum_schedule, pair_sum_stats, truncated_batch
from siolab.harness.rng import Rng

import oracles
from oracles import brute_force_sup, brute_pair_sum, cone_mesh_loop


def two_atom_line():
    return sl.DiscreteMeasure(
        np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]), resolution=0.01
    )


def random_config(rng, n_atoms, dim=2):
    positions = rng.points_in_box(n_atoms, [(-1, 1)] * dim)
    weights = rng.uniforms(n_atoms, 0.0, 1.0)
    g = rng.uniforms(n_atoms, -1.0, 1.0)
    return sl.DiscreteMeasure(positions, weights, resolution=1e-6), g


# ---------------------------------------------------------------------------
# truncated
# ---------------------------------------------------------------------------


def test_truncated_antisymmetric_pair_cancels():
    nu = sl.DiscreteMeasure(
        np.array([[0.7, -0.2], [-0.7, 0.2]]), np.array([1.0, 1.0]), resolution=0.01
    )
    k = sl.RieszComponent(2, 0)
    assert sl.truncated(nu, k, None, [0.0, 0.0], 0.1) == 0.0


def test_truncated_empty_beyond_support():
    nu = two_atom_line()
    assert sl.truncated(nu, sl.RieszComponent(2, 0), None, [0.0, 0.0], 2.5) == 0.0


def test_truncated_hand_value():
    # K(-1, 0) + K(-2, 0) = -1 - 0.5
    nu = two_atom_line()
    assert sl.truncated(nu, sl.RieszComponent(2, 0), None, [0.0, 0.0], 0.5) == -1.5


def test_truncated_strict_exclusion_at_breakpoint():
    nu = two_atom_line()
    k = sl.RieszComponent(2, 0)
    # atom at distance exactly 1 is excluded for eps = 1
    assert sl.truncated(nu, k, None, [0.0, 0.0], 1.0) == -0.5


def test_truncated_piecewise_constant_between_breakpoints():
    rng = Rng(21)
    nu, g = random_config(rng, 50)
    k = sl.RieszComponent(2, 1)
    x = np.array([0.3, -0.1])
    dist = np.sort(np.linalg.norm(nu.positions - x, axis=1))
    for lo, hi in zip(dist[:-1], dist[1:]):
        if hi - lo < 1e-12:
            continue
        probes = [lo + (hi - lo) * t for t in (0.25, 0.5, 0.75)]
        vals = {sl.truncated(nu, k, g, x, e) for e in probes}
        assert len(vals) == 1  # bitwise identical on the plateau


def test_truncated_requires_positive_eps():
    with pytest.raises(ValueError):
        sl.truncated(two_atom_line(), sl.RieszComponent(2, 0), None, [0.0, 0.0], 0.0)


def _nan_calls():
    nu, g = random_config(Rng(87), 30)
    k = sl.RieszComponent(2, 0)
    pts = Rng(88).points_in_box(5, [(-1, 1)] * 2)
    table = sl.TruncationTable(nu, k, pts)
    per_point = np.array([0.1, 0.2, math.nan, 0.3, 0.4])
    nan_pts = np.where(np.arange(5)[:, None] == 2, math.nan, pts)
    cone = sl.Cone(sl.LipschitzGraph(2, sl.Affine((0.0,))), (0.0,), 1.5)
    return {
        "truncated": lambda: sl.truncated(nu, k, g, pts[0], math.nan),
        "truncated_batch": lambda: truncated_batch(nu, k, g, pts, math.nan),
        "point_truncated": lambda: sl.truncated(nu, k, g, [0.5, math.nan], 0.1),
        "point_truncated_batch": lambda: truncated_batch(nu, k, g, nan_pts, 0.1),
        "point_TruncationTable": lambda: sl.TruncationTable(nu, k, nan_pts),
        "point_maximal": lambda: sl.maximal(nu, k, g, [math.nan, 0.5]),
        "point_hl_maximal_batch": lambda: hl_maximal_batch(nu, g, nan_pts),
        "point_pv_estimate": lambda: sl.pv_estimate(nu, k, [0.5, math.nan], [0.5, 0.25]),
        "point_nontangential_max_many": lambda: operators.nontangential_max_many(
            [np.cos], cone.graph, [[math.nan]], 1.5, 1.0, 3),
        "truncated_values": lambda: table.truncated_values(g, math.nan),
        "truncated_values_per_point": lambda: table.truncated_values_per_point(g, per_point),
        "lp_norm": lambda: sl.lp_norm(nu, g, math.nan),
        "cone_mesh": lambda: operators._cone_template(1.5, math.nan, 3, 1),
        "nontangential_max_many": lambda: operators.nontangential_max_many(
            [np.cos], cone.graph, [cone.apex_u], 1.5, math.nan, 3),
        "bound_constants": lambda: sl.bound_constants(k, math.nan),
        "measure_weight": lambda: sl.DiscreteMeasure(pts, [1.0, math.nan, 1.0, 1.0, 1.0], 0.1),
        "measure_resolution": lambda: sl.DiscreteMeasure(pts, np.ones(5), math.nan),
        "Ball": lambda: sl.Ball((0.0, 0.0), math.nan),
        "Ball_center": lambda: sl.Ball((math.nan, 0.0), 1.0),
        "Rectangle": lambda: sl.Rectangle((0.0, 0.0), (1.0, math.nan)),
        "Rectangle_center": lambda: sl.Rectangle((math.nan, 0.0), (1.0, 1.0)),
        "Cone_apex": lambda: sl.Cone(cone.graph, (math.nan,), 1.5),
        "BallCap": lambda: sl.BallCap(math.nan, (0.0,)),
        "SmoothBump": lambda: sl.SmoothBump(1.0, math.nan),
        "Sawtooth_amplitude": lambda: sl.Sawtooth(math.nan, 0.5),
        "Sawtooth_period": lambda: sl.Sawtooth(0.3, math.nan),
        "ConeProfile": lambda: sl.ConeProfile(math.nan),
        "RieszComponent_c0": lambda: sl.RieszComponent(2, 0, math.nan),
        "OddHomogeneous_c1": lambda: sl.OddHomogeneous(2, (1, 0), None, math.nan),
        "Ball_inf": lambda: sl.Ball((0.0, 0.0), math.inf),
        "Rectangle_inf": lambda: sl.Rectangle((0.0, 0.0), (math.inf, 1.0)),
        "BallCap_inf": lambda: sl.BallCap(math.inf, (0.0,)),
        "BallCap_center_inf": lambda: sl.BallCap(1.0, (math.inf,)),
        "SmoothBump_amplitude_inf": lambda: sl.SmoothBump(math.inf, 0.5),
        "SmoothBump_inf": lambda: sl.SmoothBump(1.0, math.inf),
        "Sawtooth_amplitude_inf": lambda: sl.Sawtooth(math.inf, 0.5),
        "Sawtooth_period_inf": lambda: sl.Sawtooth(0.3, math.inf),
        "ConeProfile_inf": lambda: sl.ConeProfile(math.inf),
        "Affine_slope_inf": lambda: sl.Affine((math.inf,)),
        "Affine_offset_inf": lambda: sl.Affine((0.0,), math.inf),
        "Affine_slope_minus_inf": lambda: sl.Affine((-math.inf,)),
        "Affine_offset_minus_inf": lambda: sl.Affine((0.0,), -math.inf),
    }


@pytest.mark.parametrize("entry", sorted(_nan_calls()))
def test_nan_parameter_rejected(entry):
    # each guard is written `not x > 0` (or `>= 0`), which a NaN fails, and
    # a shape or profile guard also bounds x below inf; a point is checked
    # finite, coordinate by coordinate
    with pytest.raises(ValueError):
        _nan_calls()[entry]()


@pytest.mark.parametrize(
    "call",
    [
        lambda nu, k, g: sl.maximal(nu, k, None, 0.5),
        lambda nu, k, g: sl.truncated(nu, k, g, [0.5], 0.1),
        lambda nu, k, g: truncated_batch(nu, k, g, np.full((3, 1), 0.5), 0.1),
        lambda nu, k, g: sl.TruncationTable(nu, k, np.full((3, 1), 0.5)),
        lambda nu, k, g: hl_maximal_batch(nu, g, np.full((3, 1), 0.5)),
        lambda nu, k, g: sl.pv_estimate(nu, k, [0.5], [0.5, 0.25]),
    ],
    ids=["maximal", "truncated", "truncated_batch", "TruncationTable", "hl_maximal_batch", "pv_estimate"],
)
def test_points_in_the_wrong_dimension_rejected(call):
    # a 1-coordinate point would broadcast against the plane's atoms
    nu, g = random_config(Rng(87), 30)
    with pytest.raises(ValueError):
        call(nu, sl.RieszComponent(2, 0), g)


# ---------------------------------------------------------------------------
# maximal: breakpoint algorithm
# ---------------------------------------------------------------------------


def test_maximal_two_atom_example():
    nu = two_atom_line()
    k = sl.RieszComponent(2, 0)
    # suffix values: -1.5 (eps < 1), -0.5 (1 <= eps < 2), 0
    assert sl.maximal(nu, k, None, [0.0, 0.0]) == 1.5


def test_maximal_takes_exactly_one_point():
    # two points used to answer silently for the first
    nu = two_atom_line()
    with pytest.raises(ValueError):
        sl.maximal(nu, sl.RieszComponent(2, 0), None, [[0.0, 0.0], [5.0, 5.0]])
    assert sl.maximal(nu, sl.RieszComponent(2, 0), None, [[0.0, 0.0]]) == 1.5


def test_maximal_single_atom():
    nu = sl.DiscreteMeasure(np.array([[0.6, 0.8]]), np.array([0.7]), resolution=0.01)
    k = sl.RieszComponent(2, 0)
    expected = abs(k.evaluate_many([[-0.6], [-0.8]])[0]) * 0.7 * 0.5
    assert sl.maximal(nu, k, 0.5, [0.0, 0.0]) == pytest.approx(expected, rel=1e-15)


def test_maximal_zero_density():
    nu = two_atom_line()
    assert sl.maximal(nu, sl.RieszComponent(2, 0), 0.0, [0.0, 0.0]) == 0.0


def test_maximal_ignores_atom_at_pole():
    nu = sl.DiscreteMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([5.0, 1.0]), resolution=0.01
    )
    k = sl.RieszComponent(2, 0)
    assert sl.maximal(nu, k, None, [0.0, 0.0]) == 1.0


def test_maximal_matches_brute_force():
    rng = Rng(37)
    k1 = sl.RieszComponent(2, 0)
    k2 = sl.OddHomogeneous(2, (1, 2))
    for trial in range(60):
        nu, g = random_config(rng, 10 + int(rng.uniform(0, 150)))
        x = rng.points_in_box(1, [(-1.2, 1.2)] * 2)[0]
        k = k1 if trial % 2 == 0 else k2
        exact = sl.maximal(nu, k, g, x)
        brute = brute_force_sup(nu, k, g, x)
        assert exact == pytest.approx(brute, rel=1e-12, abs=1e-300)


def test_maximal_with_exact_distance_ties():
    # grid measure has many exactly tied distances; the tie groups must
    # enter together, never splitting a plateau
    nu = sl.graph_measure(sl.LipschitzGraph(2, sl.Affine((0.0,))), [(-1.0, 1.0)], 64)
    k = sl.RieszComponent(2, 0)
    g = Rng(5).uniforms(nu.count, -1, 1)
    x = nu.positions[20]
    assert sl.maximal(nu, k, g, x) == pytest.approx(
        brute_force_sup(nu, k, g, x), rel=1e-12
    )


def test_maximal_batch_matches_scalar():
    rng = Rng(41)
    nu, g = random_config(rng, 80)
    k = sl.RieszComponent(2, 1)
    pts = rng.points_in_box(25, [(-1, 1)] * 2)
    batch = sl.TruncationTable(nu, k, pts).maximal_values([g])[0]
    for i, x in enumerate(pts):
        assert batch[i] == sl.maximal(nu, k, g, x)


# ---------------------------------------------------------------------------
# hl maximal function
# ---------------------------------------------------------------------------


def test_hl_maximal_two_atoms():
    nu = two_atom_line()
    values, diverges = hl_maximal_batch(nu, None, [[0.0, 0.0]])
    assert values[0] == 1.0 and not diverges[0]


def test_hl_maximal_zero_density():
    assert hl_maximal_batch(two_atom_line(), 0.0, [[0.0, 0.0]])[0][0] == 0.0


def test_hl_maximal_diverges_on_atom():
    nu = two_atom_line()
    values, diverges = hl_maximal_batch(nu, None, [[1.0, 0.0]])
    assert diverges[0] and math.isinf(values[0])


def test_hl_maximal_oracle():
    rng = Rng(53)
    nu, g = random_config(rng, 120)
    x = np.array([0.05, -0.3])
    d = np.linalg.norm(nu.positions - x, axis=1)
    a = np.abs(g) * nu.weights
    best = 0.0
    for r in np.unique(d):
        if r > 0:
            best = max(best, a[d <= r].sum() / r)
    assert hl_maximal_batch(nu, g, [x])[0][0] == pytest.approx(best, rel=1e-12)


# ---------------------------------------------------------------------------
# lp norms
# ---------------------------------------------------------------------------


def test_lp_norm_examples():
    prob = sl.DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]), resolution=0.1)
    assert sl.lp_norm(prob, 1.0, 2.0) == 1.0
    assert sl.lp_norm(prob, 0.0, 3.0) == 0.0
    two = sl.DiscreteMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]), resolution=0.1
    )
    assert sl.lp_norm(two, np.array([1.0, 3.0]), 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_lp_norm_requires_p_at_least_one():
    with pytest.raises(ValueError):
        sl.lp_norm(two_atom_line(), 1.0, 0.5)


def test_lp_norm_rejects_infinite_p():
    # |g|^inf w summed and raised to 1/inf read 1.0 for every g
    for g in (5.0, 0.1):
        with pytest.raises(ValueError, match=r"\[1, inf\)"):
            sl.lp_norm(two_atom_line(), g, math.inf)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [0, 1, 2048])
@pytest.mark.parametrize("d", [1, 7, 50])
def test_lp_norms_equal_one_numpy_sum2_per_density(d, n, p):
    # each norm of the stack is the Sum2 of |g|^p w in atom order, bit for
    # bit the last prefix of a numpy sum2_prefix of that density alone,
    # its root a Python float power, and lp_norm is its one-density call:
    # zero densities, and densities of 1e306 whose powers or sums overflow
    # (inf terms, then NaN sums), beside ordinary ones
    rng = np.random.default_rng(d + n)
    nu = sl.DiscreteMeasure(rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(0.0, 1.0, n), 1e-3)
    gs = rng.uniform(-2.0, 2.0, (d, n)) * np.resize([1e306, 0.0, 1.0], d)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = operators.lp_norms(nu, gs, p)
        expected = np.array([
            float(summation.sum2_prefix((np.abs(g) ** p * nu.weights)[None, :])[0, -1] if n else 0.0) ** (1.0 / p)
            for g in gs
        ])
        singles = np.array([sl.lp_norm(nu, g, p) for g in gs])
    assert norms.shape == (d,) and norms.tobytes() == expected.tobytes() == singles.tobytes()
    assert (norms[1::3] == 0.0).all() and (np.isnan(norms[0]) or n < 2)


@settings(max_examples=40, deadline=None)
@given(
    magnitude=st.floats(min_value=1e-3, max_value=1e3),
    sign=st.sampled_from([-1.0, 1.0]),
    p=st.floats(min_value=1.0, max_value=6.0),
)
def test_lp_norm_homogeneity(magnitude, sign, p):
    c = sign * magnitude
    rng = Rng(61)
    nu, g = random_config(rng, 64)
    base = sl.lp_norm(nu, g, p)
    scaled = sl.lp_norm(nu, c * g, p)
    assert scaled == pytest.approx(abs(c) * base, rel=1e-14)


# ---------------------------------------------------------------------------
# principal values
# ---------------------------------------------------------------------------


def _pv_converged(values, tolerance=1e-3):
    """The Cauchy rule a PV trace is read by: tail <= tolerance * max |value|."""
    return operators.cauchy_tail(values) <= tolerance * max(abs(v) for v in values)


def test_pv_far_outside_support_is_constant():
    nu = sl.cantor_four_corners(4)
    x = np.array([50.0, 50.0])
    schedule = operators.geometric_schedule(0.5, 4 * nu.resolution)
    values = sl.pv_estimate(nu, sl.RieszComponent(2, 0), x, schedule)
    assert len(set(values)) == 1
    assert _pv_converged(values) and operators.cauchy_tail(values) == 0.0


def test_pv_symmetric_atoms_vanish():
    nu = sl.DiscreteMeasure(
        np.array([[0.9, 0.4], [-0.9, -0.4]]), np.array([1.0, 1.0]), resolution=1e-4
    )
    schedule = operators.geometric_schedule(0.3, 4 * nu.resolution)
    values = sl.pv_estimate(nu, sl.RieszComponent(2, 0), [0.0, 0.0], schedule)
    assert all(v == 0.0 for v in values)
    assert _pv_converged(values)


def test_pv_flat_graph_tangential_component():
    g = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    k = sl.RieszComponent(2, 0)
    tails = []
    for m in (2**8, 2**10):
        sigma = sl.graph_measure(g, [(-1.0, 1.0)], m)
        x = sigma.positions[int(0.7 * m)]
        schedule = operators.geometric_schedule(sigma.bounding_diameter() / 4, 4 * sigma.resolution)
        tails.append(operators.cauchy_tail(sl.pv_estimate(sigma, k, x, schedule)))
    # exact left/right tie cancellation: the tail vanishes identically
    assert tails == [0.0, 0.0]


def test_pv_flat_graph_at_origin_vanishes():
    # the origin sits on a grid symmetry point: left/right distances tie
    # exactly and the tangential terms cancel pairwise at every eps
    g = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    k = sl.RieszComponent(2, 0)
    for m in (2**8, 2**10, 2**12):
        sigma = sl.graph_measure(g, [(-1.0, 1.0)], m)
        schedule = operators.geometric_schedule(0.64, 4 * sigma.resolution)
        values = sl.pv_estimate(sigma, k, [0.0, 0.0], schedule)
        assert all(v == 0.0 for v in values)
        assert _pv_converged(values)


@pytest.mark.parametrize("dim", [2, 3])
def test_pv_estimate_matches_truncated_loop(dim):
    # one pair_sum_schedule pass against the per-eps single-point sums
    rng = Rng(97 + dim)
    nu, _ = random_config(rng, 300, dim)
    nu = sl.DiscreteMeasure(nu.positions, nu.weights, resolution=1e-3)
    k = sl.RieszComponent(dim, dim - 1)
    points = [*rng.points_in_box(4, [(-1, 1)] * dim), nu.positions[7]]  # one point on an atom
    schedule = operators.geometric_schedule(1.5, 4 * nu.resolution)
    for x in points:
        values = sl.pv_estimate(nu, k, x, schedule)
        loop = [oracles.truncated(nu, k, None, x, e) for e in schedule]
        assert values == pytest.approx(loop, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("n", range(2, 13))
def test_cauchy_tail_is_spread_of_last_quarter(n):
    values = Rng(90 + n).uniforms(n, -1.0, 1.0).tolist()
    last = values[n - max(2, math.ceil(n / 4)):]
    assert operators.cauchy_tail(values) == max(last) - min(last)


def test_geometric_schedule_rejects_non_finite():
    for eps0, eps_min in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan), (math.inf, math.inf)):
        with pytest.raises(ValueError):
            operators.geometric_schedule(eps0, eps_min)


# ---------------------------------------------------------------------------
# double truncated integrals
# ---------------------------------------------------------------------------


def test_double_truncated_self_pair_cancels():
    mu = sl.cantor_four_corners(4)
    k = sl.RieszComponent(2, 0)
    ball = sl.Ball((0.5, 0.5), 2.0)
    part = mu.restrict_mask(ball.contains_many(mu.positions))
    for eps in (0.5, 0.1, 0.02):
        stats = pair_sum_stats(part.positions, part.weights, part.positions, part.weights, k, eps)
        bound = mu.count**2 * 2.0**-50 * stats.max_abs_term
        assert abs(stats.value) <= bound


def test_double_truncated_separated_regions_eps_independent():
    mu = sl.DiscreteMeasure(
        np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [5.1, 0.0]]),
        np.ones(4),
        resolution=0.01,
    )
    k = sl.RieszComponent(2, 0)
    left = sl.Ball((0.05, 0.0), 0.5)
    right = sl.Ball((5.05, 0.0), 0.5)
    a, b = (mu.restrict_mask(s.contains_many(mu.positions)) for s in (left, right))
    vals = {
        pair_sum_stats(a.positions, a.weights, b.positions, b.weights, k, eps).value for eps in (0.2, 0.5, 1.0, 2.0)
    }
    assert len(vals) == 1  # gap is ~4.9, all eps below it agree


def test_double_truncated_swap_antisymmetry():
    mu = sl.cantor_four_corners(3)
    k = sl.RieszComponent(2, 1)
    a = sl.Ball((0.2, 0.2), 0.4)
    b = sl.Ball((0.7, 0.6), 0.5)
    part_a, part_b = (mu.restrict_mask(s.contains_many(mu.positions)) for s in (a, b))
    fwd = pair_sum_stats(part_a.positions, part_a.weights, part_b.positions, part_b.weights, k, 0.05).value
    back = pair_sum_stats(part_b.positions, part_b.weights, part_a.positions, part_a.weights, k, 0.05).value
    scale = max(abs(fwd), abs(back), 1e-300)
    assert abs(fwd + back) / scale < 1e-12


def test_double_truncated_pair_guard():
    with pytest.raises(ValueError):
        pair_sum_stats(
            np.zeros((200_000, 2)), np.ones(200_000),
            np.zeros((200_000, 2)), np.ones(200_000),
            sl.RieszComponent(2, 0), 1.0,
        )


# ---------------------------------------------------------------------------
# multi-eps pair-sum engine against the per-eps oracle
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    n_a=st.integers(0, 30),
    n_b=st.integers(0, 30),
    squares=st.sets(st.integers(1, 40), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_sum_schedule_matches_oracle_on_grid(dim, n_a, n_b, squares, seed):
    # integer atoms: every squared distance is an integer, so many
    # distances equal a schedule eps = sqrt(k) exactly
    rng = np.random.default_rng(seed)
    pos_a = rng.integers(-3, 4, size=(n_a, dim)).astype(float)
    pos_b = rng.integers(-3, 4, size=(n_b, dim)).astype(float)
    w_a, w_b = rng.uniform(-1.0, 1.0, n_a), rng.uniform(0.0, 1.0, n_b)
    k = sl.RieszComponent(dim, dim - 1)
    schedule = np.sqrt(np.array(sorted(squares, reverse=True), dtype=float))
    got = pair_sum_schedule(pos_a, w_a, pos_b, w_b, k, schedule)
    assert len(got) == len(schedule)
    for eps, stats in zip(schedule, got):
        value, max_term, count = brute_pair_sum(pos_a, w_a, pos_b, w_b, k, eps)
        assert stats.max_abs_term == max_term
        assert stats.pair_count == count
        assert abs(stats.value - value) <= n_a * n_b * 2.0**-50 * max_term


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_sum_stats_bit_equal_to_oracle(dim):
    # 900 x 2400 pairs, 2.16 million terms summed per bin in one pass
    rng = Rng(71 + dim)
    pos_a = rng.points_in_box(900, [(-1, 1)] * dim)
    pos_b = rng.points_in_box(2400, [(-1, 1)] * dim)
    w_a, w_b = rng.uniforms(900, -1.0, 1.0), rng.uniforms(2400, 0.0, 1.0)
    k = sl.RieszComponent(dim, 0)
    for eps in (2.0, 0.05, 1e-3):
        stats = pair_sum_stats(pos_a, w_a, pos_b, w_b, k, eps)
        assert tuple(stats) == brute_pair_sum(pos_a, w_a, pos_b, w_b, k, eps)


def test_pair_sum_schedule_rejects_bad_schedules():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    w = np.ones(2)
    k = sl.RieszComponent(2, 0)
    for schedule in ([], [1.0, 1.0], [0.5, 1.0], [1.0, 0.0], [1.0, -0.5], [math.nan], [1.0, math.nan]):
        with pytest.raises(ValueError):
            pair_sum_schedule(pos, w, pos, w, k, schedule)
    with pytest.raises(ValueError):
        pair_sum_stats(pos, w, pos, w, k, math.nan)


def test_pair_sum_schedule_empty_side_is_zero():
    pos = np.array([[0.0, 0.0], [1.0, 0.0]])
    empty = np.zeros((0, 2))
    k = sl.RieszComponent(2, 0)
    schedule = [2.0, 1.0, 0.5]
    for args in ((pos, np.ones(2), empty, np.zeros(0)), (empty, np.zeros(0), pos, np.ones(2))):
        assert pair_sum_schedule(*args, k, schedule) == [(0.0, 0.0, 0)] * 3


def test_pair_sum_schedule_validates_its_arrays():
    # unchecked, a longer weight array is read out of bounds, and a NaN
    # coordinate drops its pairs
    pos_a, pos_b = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 2.0], [3.0, 1.0]])
    k = sl.RieszComponent(2, 0)
    bad = [
        (pos_a, np.ones(2), pos_b, np.array([1.0, 1.0, 5.0])),
        (pos_a, np.ones(3), pos_b, np.ones(2)),
        (pos_a, np.ones(1), pos_b, np.ones(2)),
        (pos_a, np.ones((2, 1)), pos_b, np.ones(2)),
        (pos_a, np.ones(2), pos_b, np.array([1.0, math.inf])),
        (pos_a, np.ones(2), pos_b, np.array([math.nan, 1.0])),
        (np.array([[0.0, math.nan], [1.0, 0.0]]), np.ones(2), pos_b, np.ones(2)),
        (pos_a, np.ones(2), np.ones((2, 3)), np.ones(2)),
        (pos_a[:, :1], np.ones(2), pos_b, np.ones(2)),
    ]

    for args in bad:
        with pytest.raises(ValueError, match="must be finite"):
            pair_sum_schedule(*args, k, [0.5])
    assert pair_sum_schedule(pos_a, np.ones(2), pos_b, np.ones(2), k, [0.5]) == [(-0.5, 0.4, 4)]  # terms 0, -0.3, 0.2, -0.4


# ---------------------------------------------------------------------------
# cone estimate constants and the lemma inequalities
# ---------------------------------------------------------------------------


def test_bound_constants_paper_values():
    k = sl.RieszComponent(2, 0, 1.0, 1.0)
    c = sl.bound_constants(k, 2.0)
    assert c.d1 == 48.0  # 4^2 * 1 + (16*2)^1 * 1
    assert c.d2 == 18.0  # 4^2 * 1 + 2^1 * 1
    assert c.c_n == 48.0


def test_bound_constants_zero_gradient_fixture():
    fixture = SimpleNamespace(ambient_dim=2, c0_declared=1.0, c1_declared=0.0)
    c = sl.bound_constants(fixture, 2.0)
    assert c.d1 == 32.0  # (16 L)^(n-1) C0 alone


def test_bound_constants_requires_l_above_one():
    with pytest.raises(ValueError):
        sl.bound_constants(sl.RieszComponent(2, 0), 1.0)


def test_lemma_l2_inequalities_small():
    from siolab.harness.scenarios import _lemma_l2_batch

    graph = sl.LipschitzGraph(2, sl.Sawtooth(0.4, 0.5))
    kern = sl.RieszComponent(2, 0)
    nu = sl.graph_measure(graph, [(-1.0, 1.0)], 300, vertical_shift=-0.8)
    c = sl.bound_constants(kern, 2.0)
    viol, worst, count = _lemma_l2_batch(nu, kern, graph, 2.0, c.d1, c.d2, 1500, 777)
    assert viol == 0 and count == 1500
    assert worst >= -1e-9


# ---------------------------------------------------------------------------
# non-tangential maximal function
# ---------------------------------------------------------------------------


def test_nontangential_max_constant():
    g = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    cone = sl.Cone(g, (0.0,), 1.5)
    h = lambda pts: np.full(len(pts), -3.25)
    assert sl.nontangential_max(h, cone, 1.0, 3) == 3.25


def test_nontangential_max_converges_toward_apex_sup():
    g = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    cone = sl.Cone(g, (0.0,), 1.5)
    apex = g.points_on_graph(cone.apex_u)[0]

    def h(pts):
        return -np.linalg.norm(np.atleast_2d(pts) - apex, axis=1)

    vals = [sl.nontangential_max(h, cone, 1.0, depth) for depth in (1, 3, 5, 7)]
    # mesh max of |h| is attained at the highest level; as a lower bound
    # of the true sup it must not decrease under refinement
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= math.hypot(1.0, 1.0 / 6.0) + 1e-12


def test_nontangential_max_bounded_by_cone_estimate():
    # mesh N(T* g) at a graph point obeys the combined cone estimate
    graph = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    kern = sl.RieszComponent(2, 0)
    nu = sl.graph_measure(graph, [(-1.0, 1.0)], 200, vertical_shift=-0.5)
    gv = Rng(3).uniforms(nu.count, -1.0, 1.0)
    aperture = 2.0
    c = sl.bound_constants(kern, aperture)
    cone = sl.Cone(graph, (0.2,), aperture)
    x = graph.points_on_graph(cone.apex_u)[0]
    h = lambda pts: sl.TruncationTable(nu, kern, pts).maximal_values([gv])[0]
    n_val = sl.nontangential_max(h, cone, 1.0, 4)
    tstar = sl.maximal(nu, kern, gv, x)
    mval = hl_maximal_batch(nu, gv, [x])[0][0]
    assert n_val <= c.c_n * (tstar + mval) * (1 + 1e-9)


def test_nontangential_max_validation():
    # the batched form raises what Cone and the single-cone form raise
    g = sl.LipschitzGraph(2, sl.Affine((1.2,)))
    zero = lambda p: np.zeros(len(p))
    cases = [
        (1.5, 0.0, 3), (1.5, -1.0, 3), (1.5, math.nan, 3), (1.5, 1.0, 0), (1.5, 1.0, -2),
        (1.0, 1.0, 3), (1.2, 1.0, 3),  # L must exceed max(1, Lip f) = 1.2
    ]
    for aperture, height_cap, mesh_depth in cases:
        with pytest.raises(ValueError):
            sl.nontangential_max(zero, sl.Cone(g, (0.0,), aperture), height_cap, mesh_depth)
        with pytest.raises(ValueError):
            operators.nontangential_max_many([zero], g, [(0.0,)], aperture, height_cap, mesh_depth)


def test_nontangential_max_many_rejects_wrong_apex_length():
    g = sl.LipschitzGraph(3, sl.Affine((0.0, 0.0)))
    with pytest.raises(ValueError):
        operators.nontangential_max_many([np.cos], g, [(0.0,)], 1.5, 1.0, 3)


def test_cone_mesh_point_guard(monkeypatch):
    # depth 3 in d = 2: K = 8 levels, bound K (2K+1)^2 = 2312 grid points
    g = sl.LipschitzGraph(3, sl.Affine((0.0, 0.0)))
    cone = sl.Cone(g, (0.0, 0.0), 1.5)
    zero = lambda p: np.zeros(len(p))
    monkeypatch.setattr(operators, "MESH_POINTS_GUARD", 8 * 17**2 - 1)
    with pytest.raises(ValueError, match="mesh point guard"):
        sl.nontangential_max(zero, cone, 1.0, 3)
    with pytest.raises(ValueError, match="mesh point guard"):
        operators.nontangential_max_many([np.cos], g, [(0.0, 0.0)], 1.5, 1.0, 3)
    monkeypatch.setattr(operators, "MESH_POINTS_GUARD", 8 * 17**2)
    assert sl.nontangential_max(zero, cone, 1.0, 3) == 0.0
    assert len(operators._cone_template(1.5, 1.0, 3, 2)[0]) < 8 * 17**2


@pytest.mark.parametrize("mesh_depth", [20, 64, 10**9])
def test_cone_mesh_point_guard_before_allocation(mesh_depth):
    # 2^20 levels in d = 1 is about 2e12 points: rejected on the bound alone
    start = time.perf_counter()
    with pytest.raises(ValueError, match="mesh point guard"):
        sl.nontangential_max(np.cos, sl.Cone(sl.LipschitzGraph(2, sl.Affine((0.0,))), (0.0,), 1.5), 1.0, mesh_depth)
    assert time.perf_counter() - start < 1.0


_MESH_DENSITIES = [
    lambda p: np.sin(3.0 * p[:, 0]) * np.exp(-p[:, -1]),
    lambda p: np.exp(-np.sum((p - 0.25) ** 2, axis=1) / 0.5),
    lambda p: p[:, -1] * (p[:, 0] > 0.1),
]


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    profile=st.sampled_from(["sawtooth", "bump"]),
    rotated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    mesh_depth=st.integers(1, 4),
    height_cap=st.floats(0.05, 2.0),
    slack=st.floats(1.001, 3.0),
    per_chunk=st.integers(2, 6),
    full_chunks=st.integers(0, 3),
    data=st.data(),
)
def test_nontangential_max_many_equals_per_cone_loop(
    d, profile, rotated, seed, mesh_depth, height_cap, slack, per_chunk, full_chunks, data
):
    rng = np.random.default_rng(seed)
    rotation = np.linalg.qr(rng.standard_normal((d + 1, d + 1)))[0] if rotated else None
    shape = sl.Sawtooth(0.3, 0.5) if profile == "sawtooth" else sl.SmoothBump(0.4, 0.3)
    graph = sl.LipschitzGraph(d + 1, shape, rotation)
    aperture = slack * max(1.0, graph.lip_declared)
    # a budget that splits the apexes mid-array: the last chunk is short
    n_apex = per_chunk * full_chunks + data.draw(st.integers(1, per_chunk - 1))
    apexes = rng.uniform(-1.0, 1.0, (n_apex, d))
    m = len(operators._cone_template(aperture, height_cap, mesh_depth, d)[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_MESH_CHUNK_POINTS", per_chunk * m + m // 2)
        got = operators.nontangential_max_many(_MESH_DENSITIES, graph, apexes, aperture, height_cap, mesh_depth)
    cones = [sl.Cone(graph, tuple(u), aperture) for u in apexes.tolist()]
    meshes = [cone_mesh_loop(c, height_cap, mesh_depth) for c in cones]
    want = [[float(np.max(np.abs(h(mesh)))) for mesh in meshes] for h in _MESH_DENSITIES]
    assert got.tolist() == want
    # the one-cone call gives the oracle's value too
    assert [sl.nontangential_max(h, cones[0], height_cap, mesh_depth) for h in _MESH_DENSITIES] == [w[0] for w in want]
    # the template placed at all apexes in one block is the per-level loop's, cone after cone, point for point
    template = operators._cone_template(aperture, height_cap, mesh_depth, d)
    assert np.array_equal(operators.cone_mesh(graph, apexes, graph.height(apexes), *template), np.vstack(meshes))


# ---------------------------------------------------------------------------
# truncation tables
# ---------------------------------------------------------------------------


def test_truncated_values_match_scalar_op():
    rng = Rng(71)
    nu, g = random_config(rng, 90)
    k = sl.RieszComponent(2, 0)
    pts = rng.points_in_box(15, [(-1, 1)] * 2)
    table = sl.TruncationTable(nu, k, pts)
    for eps in (0.05, 0.3, 1.1):
        vals = table.truncated_values(g, eps)
        for i, x in enumerate(pts):
            assert vals[i] == pytest.approx(oracles.truncated(nu, k, g, x, eps), rel=1e-13, abs=1e-300)


def test_truncated_values_per_point_eps():
    rng = Rng(73)
    nu, g = random_config(rng, 60)
    k = sl.RieszComponent(2, 1)
    pts = rng.points_in_box(10, [(-1, 1)] * 2)
    eps = rng.uniforms(10, 0.05, 1.0)
    table = sl.TruncationTable(nu, k, pts)
    vals = table.truncated_values_per_point(g, eps)
    for i, x in enumerate(pts):
        assert vals[i] == pytest.approx(oracles.truncated(nu, k, g, x, eps[i]), rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("eps", [np.array([0.5]), np.array(0.5), np.full((10, 1), 0.5), np.full(11, 0.5)],
                         ids=["one_element", "zero_d", "column", "one_too_many"])
def test_truncated_values_per_point_needs_one_eps_per_point(eps):
    # a 1-element eps was broadcast over every row, and a 0-d one raised IndexError
    nu, g = random_config(Rng(74), 30)
    table = sl.TruncationTable(nu, sl.RieszComponent(2, 1), Rng(75).points_in_box(10, [(-1, 1)] * 2))
    with pytest.raises(ValueError, match="one radius per point"):
        table.truncated_values_per_point(g, eps)


@pytest.mark.parametrize("n_atoms", [0, 1, 30])
def test_every_truncated_entry_is_truncated_batch(n_atoms):
    # truncated and the table's truncated_values* are truncated_batch at
    # their points, byte for byte: integer grid atoms (ties), points on
    # atoms (zero distances), each eps exactly an atom distance, a
    # negative density and an empty measure
    rng = np.random.default_rng(n_atoms)
    positions = rng.integers(-2, 3, size=(n_atoms, 2)).astype(float)
    nu = sl.DiscreteMeasure(positions, rng.uniform(0.0, 1.0, n_atoms), 1e-3)
    g = rng.uniform(-1.0, -0.5, n_atoms)
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 0.5], [-2.0, 2.0]])
    eps = np.array([1.0, math.sqrt(2.0), math.sqrt(0.5), 2.0])
    k = sl.RieszComponent(2, 1)
    table = sl.TruncationTable(nu, k, pts)
    batch = truncated_batch(nu, k, g, pts, eps)
    assert table.truncated_values_per_point(g, eps).tobytes() == batch.tobytes()
    assert np.array([sl.truncated(nu, k, g, x, e) for x, e in zip(pts, eps)]).tobytes() == batch.tobytes()
    for e in eps:
        assert table.truncated_values(g, e).tobytes() == truncated_batch(nu, k, g, pts, e).tobytes()
    if n_atoms == 30:
        dist = np.linalg.norm(pts[:, None, :] - positions[None, :, :], axis=2)
        assert np.any(dist == 0.0) and np.all(np.any(dist == eps[:, None], axis=1)) and np.all(batch != 0.0)


def test_truncation_table_byte_guard(monkeypatch):
    # every caller of row_sups, checked on the cells it would sort before
    # the call: the table's two sups and hl_maximal_batch; the limit is
    # 2^30 // 24 cells
    assert operators.SORT_CELLS_GUARD == 44_739_242
    nu, g = random_config(Rng(75), 40)
    pts = Rng(76).points_in_box(10, [(-1, 1)] * 2)
    table = sl.TruncationTable(nu, sl.RieszComponent(2, 0), pts)
    builders = (lambda: table.maximal_values([g]), lambda: table.sups([g], g), lambda: hl_maximal_batch(nu, g, pts))
    for build in builders:
        monkeypatch.setattr(operators, "SORT_CELLS_GUARD", 10 * 40 - 1)
        with pytest.raises(ValueError, match="sort cell guard exceeded: 400 cells, limit 399"):
            build()
        monkeypatch.setattr(operators, "SORT_CELLS_GUARD", 10 * 40)
        build()


def test_table_holds_no_row_array():
    # a table is its measure, its kernel and its own (P, n) points, before
    # and after its sups: each row is sorted and read in the compiled pass
    nu, g = random_config(Rng(75), 40)
    pts = Rng(76).points_in_box(10, [(-1, 1)] * 2)
    table = sl.TruncationTable(nu, sl.RieszComponent(2, 0), pts)
    for read in (lambda: None, lambda: table.maximal_values([g]), lambda: table.sups([g], g)):
        read()
        assert vars(table).keys() == {"measure", "kernel", "points"}
        assert table.points.shape == (10, 2) and table.points.base is None and np.array_equal(table.points, pts)


# the traced peak of the test below: 1,063,940 to 1,064,652 bytes measured
# (the (D, P) output, 819,200, the atom-major (N, D) copy of the stack,
# 204,800, and the table's copy of its points, 32,768), under 2 MiB; a
# (P, N) table of 24 bytes per cell would add 24 MiB
_MAXIMAL_VALUES_PEAK_BYTES = 2 << 20


def test_maximal_values_traced_peak_holds_no_table():
    # a 2048-point chunk of SeparatedBoundedness against 512 atoms with 50
    # densities, the table made and read inside the trace: the numpy side
    # allocates the output and the stack, no (P, N) array
    rng = np.random.default_rng(2048)
    nu = sl.DiscreteMeasure(rng.uniform(-1.0, 1.0, (512, 2)), rng.uniform(0.0, 1.0, 512), 1e-3)
    pts, gs = rng.uniform(-1.0, 1.0, (2048, 2)), rng.uniform(-1.0, 1.0, (50, 512))
    operators._compiled()  # built and loaded before the trace
    tracemalloc.start()
    try:
        values = sl.TruncationTable(nu, sl.RieszComponent(2, 0), pts).maximal_values(gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (50, 2048) and peak <= _MAXIMAL_VALUES_PEAK_BYTES


def _operator_values(nu, kern, g, pts, eps):
    """T* of the stack [g, -g] (D = 2), T* and M of g from one sort (D = 1),
    the divergence flags of M, and T^eps g at one radius per point."""
    table = sl.TruncationTable(nu, kern, pts)
    (tstar,), (mval, diverges) = table.sups([g], g)
    return table.maximal_values([g, -g]), tstar, mval, diverges, truncated_batch(nu, kern, g, pts, eps)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    degree=st.sampled_from([1, 3]),
    k=st.integers(-12, 12).filter(lambda k: k != 0),
    axis=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_of_two_scaling_and_axis_flips_are_exact(dim, degree, k, axis, seed):
    # K has degree -(n-1): atoms, points and eps times 2^k with weights times
    # 2^(k(n-1)) scale every distance, term and mass by a power of two, which
    # rounds nothing; an axis flip keeps every distance and negates each term
    # by (-1)^(power of that axis), which rounds nothing either
    rng = np.random.default_rng(seed)
    n_atoms, n_pts, axis = int(rng.integers(1, 40)), int(rng.integers(1, 20)), axis % dim
    kern = sl.OddHomogeneous(dim, tuple(int(p) for p in rng.multinomial(degree, [1 / dim] * dim)))
    pos = rng.integers(-8, 9, (n_atoms, dim)) / 8.0  # a grid: tied distances
    pts = rng.integers(-8, 9, (n_pts, dim)) / 8.0
    pts[: n_pts // 3] = pos[rng.integers(0, n_atoms, n_pts // 3)]  # on atoms: M diverges where |g| w > 0
    w = rng.uniform(0.0, 1.0, n_atoms) * (rng.uniform(size=n_atoms) < 0.8)
    g = rng.uniform(-1.0, 1.0, n_atoms) * (rng.uniform(size=n_atoms) < 0.8)
    eps = rng.uniform(0.05, 2.0, n_pts)
    base = _operator_values(sl.DiscreteMeasure(pos, w, 1 / 8), kern, g, pts, eps)

    scale = 2.0**k
    scaled = _operator_values(sl.DiscreteMeasure(pos * scale, w * scale ** (dim - 1), scale / 8), kern, g,
                              pts * scale, eps * scale)
    for a, b in zip(base, scaled):
        assert a.tobytes() == b.tobytes()

    flip = np.ones(dim)
    flip[axis] = -1.0
    flipped = _operator_values(sl.DiscreteMeasure(pos * flip, w, 1 / 8), kern, g, pts * flip, eps)
    for a, b in zip(base[:4], flipped[:4]):
        assert a.tobytes() == b.tobytes()
    sign = (-1.0) ** kern.monomial[0][axis]
    np.testing.assert_array_equal(flipped[4], sign * base[4])  # == : T^eps's zeros may change sign


# ---------------------------------------------------------------------------
# density validation
# ---------------------------------------------------------------------------


class _EvaluateMany:
    def __init__(self, fn):
        self.fn = fn

    def evaluate_many(self, positions):
        return self.fn(positions)


def _density_forms(fn):
    return [fn, _EvaluateMany(fn)]


@settings(max_examples=30, deadline=None)
@given(n_atoms=st.integers(1, 20), delta=st.integers(-3, 3).filter(lambda d: d != 0))
def test_density_wrong_length_rejected(n_atoms, delta):
    nu, _ = random_config(Rng(81), n_atoms)
    length = max(0, n_atoms + delta)
    for g in _density_forms(lambda p: np.ones(length)):
        with pytest.raises(ValueError):
            density_values(g, nu)


@settings(max_examples=30, deadline=None)
@given(
    n_atoms=st.integers(1, 20),
    index=st.integers(0, 19),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_density_non_finite_rejected(n_atoms, index, bad):
    nu, _ = random_config(Rng(83), n_atoms)
    vals = np.ones(n_atoms)
    vals[index % n_atoms] = bad
    for g in _density_forms(lambda p: vals):
        with pytest.raises(ValueError):
            density_values(g, nu)


@pytest.mark.parametrize(
    "g",
    [math.nan, math.inf, np.float64(math.nan), np.float32(-math.inf)],
    ids=["nan", "inf", "float64-nan", "float32-neginf"],
)
def test_density_non_finite_scalar_rejected(g):
    nu, _ = random_config(Rng(84), 5)
    with pytest.raises(ValueError):
        density_values(g, nu)


@pytest.mark.parametrize(
    "g", [np.int64(2), np.int32(-3), np.float32(0.5)], ids=["int64", "int32", "float32"]
)
def test_density_numpy_scalar_is_constant(g):
    nu, _ = random_config(Rng(84), 5)
    assert np.array_equal(density_values(g, nu), np.full(5, float(g)))


def test_density_forms_agree():
    nu, g = random_config(Rng(85), 12)
    for form in _density_forms(lambda p: g):
        assert np.array_equal(density_values(form, nu), g)


def test_density_stack_refuses_one_bare_density():
    # a list of numbers or a 1-D array is one per-atom density to
    # density_values; as a stack it would read as D constant densities
    nu, g = random_config(Rng(86), 12)
    table = sl.TruncationTable(nu, sl.RieszComponent(2, 0), np.zeros((3, 2)))
    for bare in (g, g.tolist(), [0.5, None], None, 0.5, g[None, None, :]):
        with pytest.raises(TypeError, match=r"pass \[g\]"):
            table.maximal_values(bare)
    with pytest.raises(ValueError, match="length mismatch"):
        table.maximal_values(g[None, :5])
    with pytest.raises(ValueError, match="finite"):
        table.maximal_values(np.where(np.arange(12) == 3, math.nan, g)[None, :])
    one = table.maximal_values([g])
    assert one.shape == (1, 3)
    for form in ([g.tolist()], (g,), g[None, :], np.asfortranarray(g[None, :])):
        assert table.maximal_values(form).tobytes() == one.tobytes()
    assert table.maximal_values([]).shape == (0, 3)
    assert operators.density_stack([None, g], nu).tolist() == np.column_stack([np.ones(12), g]).tolist()


# ---------------------------------------------------------------------------
# summation policy: Sum2 prefixes and the sups over them
# ---------------------------------------------------------------------------


_scan_values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False),
    st.sampled_from([0.0, 1e16, -1e16, 1.0, -1.0]),
)
_scan_rows = st.lists(st.lists(_scan_values, min_size=1, max_size=150), min_size=1, max_size=3)
_U = Fraction(1, 2**53)


def _gamma(k):
    return k * _U / (1 - k * _U)


def _sum2_bound(exact, n, abs_sum):
    """The documented Sum2 bound u|S| + gamma_{n-1}^2 sum|t|, exactly."""
    return _U * abs(exact) + _gamma(max(n - 1, 0)) ** 2 * abs_sum


def _tiled(rows, n):
    return np.array([(r * (n // len(r) + 1))[:n] for r in rows])


def _exact_prefixes(row):
    """(exact prefix, exact sum|t|) per prefix; math.fsum would round them."""
    out, total, abs_total = [], Fraction(0), Fraction(0)
    for t in row:
        total += Fraction(t)
        abs_total += abs(Fraction(t))
        out.append((total, abs_total))
    return out


def _sequential_sum2(row):
    """Sum2 (Ogita, Rump and Oishi 2005) as the paper writes it, one term at a time."""
    s, sigma, out = 0.0, 0.0, []
    for t in row:
        x = s + t
        z = x - s
        sigma += (s - (x - z)) + (t - z)
        s = x
        out.append(s + sigma)
    return out


def _unit_kernel(dim):
    """A stand-in kernel of monomial form P = 0, q = 0: K = 1 off the pole
    (a term at distance 0 is 0, as for every kernel), so that with unit
    weights a row's terms are its density's values."""
    return SimpleNamespace(monomial=((0,) * dim, 0), evaluate_many=lambda diffs: np.ones(np.shape(diffs)[1]))


def _scan_row(valid, weights=None):
    """(measure, kernel, point): one point, the origin, whose row lists the
    atoms in index order, so the stable order is the identity, at
    non-increasing distances whose group ends are the candidates ``valid``
    (the last index always is one).  Atom j sits on the first axis at the
    number of candidates at or after j, so a tie is a run of coincident
    atoms.  Unit weights by default, which with ``_unit_kernel`` make a
    term the density's value."""
    assert valid[-1]
    positions = np.zeros((len(valid), 2))
    positions[:, 0] = np.cumsum(valid[::-1])[::-1]
    nu = sl.DiscreteMeasure(positions, np.ones(len(valid)) if weights is None else weights, 1.0)
    x = np.zeros((1, 2))
    order, dist_desc, _ = oracles.table_rows(nu, _unit_kernel(2), x)
    assert order.tolist() == [list(range(len(valid)))] and oracles.group_ends(dist_desc).tolist() == [list(valid)]
    return nu, _unit_kernel(2), x


def _assert_sups_within_sum2_bound(terms, valid=None):
    """T* of each row of ``terms`` as the density of a ``_scan_row``: its
    oracle's bits, the max of |Sum2 prefix| at the candidates (all by
    default), and within the largest Sum2 prefix bound of the exact sup,
    since |max|a| - max|b|| <= max|a - b|."""
    valid = np.ones(terms.shape, dtype=bool) if valid is None else valid
    for i, row in enumerate(terms):
        nu, k, x = _scan_row(valid[i])
        compiled = sl.TruncationTable(nu, k, x).maximal_values([row])
        assert compiled.tobytes() == oracles.maximal_values(nu, k, x, [row]).tobytes()
        compiled = compiled[0, 0]
        exact = _exact_prefixes(row)
        kept = [(p, e) for p, (e, _), v in zip(_sequential_sum2(row.tolist()), exact, valid[i]) if v]
        assert compiled == max([abs(p) for p, _ in kept], default=0.0)
        bound = max(_sum2_bound(e, j + 1, a) for j, (e, a) in enumerate(exact))
        assert abs(Fraction(compiled) - max([abs(e) for _, e in kept], default=Fraction(0))) <= bound


@settings(max_examples=60, deadline=None)
@given(rows=_scan_rows, n=st.integers(1, 150))
def test_sup_prefix_error_within_bound(rows, n):
    _assert_sups_within_sum2_bound(_tiled(rows, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 17, 24, 25, 26, 100])
def test_certified_prefix_block_edges(n):
    # row lengths at and around squares
    _assert_sups_within_sum2_bound(Rng(87).uniforms(2 * n, -1.0, 1.0).reshape(2, n))


@settings(max_examples=60, deadline=None)
@given(rows=_scan_rows, n=st.integers(1, 150))
def test_sum2_prefix_is_sequential_sum2_within_bound(rows, n):
    terms = _tiled(rows, n)
    prefix = summation.sum2_prefix(terms.copy())
    for i, row in enumerate(terms):
        assert prefix[i].tolist() == _sequential_sum2(row.tolist())
        for j, (exact, abs_sum) in enumerate(_exact_prefixes(row)):
            assert abs(Fraction(prefix[i, j]) - exact) <= _sum2_bound(exact, j + 1, abs_sum)


def test_sum2_prefix_and_total_write_into_no_argument():
    terms = Rng(88).uniforms(3 * 257, -1.0, 1.0).reshape(3, 257)
    terms[0, :3] = -0.0
    before = terms.tobytes()
    summation.sum2_prefix(terms)
    assert terms.tobytes() == before
    for row in terms:
        oracles.sum2_total(row)
    assert terms.tobytes() == before


def _textbook_sum2(terms):
    """(s, c) of Sum2 as the paper writes it, one term at a time: the
    float64 sum and the sum of its TwoSum errors, unrounded."""
    s, c = terms[0], 0.0
    for t in terms[1:]:
        x = s + t
        z = x - s
        c += (t - z) + (s - (x - z))
        s = x
    return s, c


@settings(max_examples=60, deadline=None)
@given(row=st.lists(_scan_values, min_size=1, max_size=150))
def test_sum2_total_is_sequential_sum2(row):
    # the compiled pair engine adds each error in turn; numpy's pairwise
    # sum would round its partials differently
    assert oracles.sum2_total(np.array(row)) == _textbook_sum2(row)


@settings(max_examples=60, deadline=None)
@given(rows=_scan_rows, n=st.integers(1, 150), seed=st.integers(0, 2**32 - 1))
def test_sup_at_group_ends_within_bound(rows, n, seed):
    # only some positions are candidates, as in a row with distance ties;
    # the last position ends a group in every row
    valid = np.random.default_rng(seed).random((len(rows), n)) < 0.3
    valid[:, -1] = True
    _assert_sups_within_sum2_bound(_tiled(rows, n), valid)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    w_a=st.lists(_scan_values, min_size=0, max_size=12),
    n_b=st.integers(0, 12),
    squares=st.sets(st.integers(1, 40), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_sum_schedule_within_sum2_bound(dim, w_a, n_b, squares, seed):
    rng = np.random.default_rng(seed)
    pos_a = rng.integers(-3, 4, size=(len(w_a), dim)).astype(float)
    pos_b = rng.integers(-3, 4, size=(n_b, dim)).astype(float)
    w_a, w_b = np.array(w_a, dtype=float), rng.uniform(0.0, 1.0, n_b)
    k = sl.RieszComponent(dim, 0)
    schedule = np.sqrt(np.array(sorted(squares, reverse=True), dtype=float))
    got = pair_sum_schedule(pos_a, w_a, pos_b, w_b, k, schedule)
    diffs = (pos_a[:, None, :] - pos_b[None, :, :]).reshape(-1, dim)
    dist = np.sqrt(np.sum(diffs * diffs, axis=1))
    safe = np.where(dist[:, None] > 0, diffs, 1.0)
    terms = k.evaluate_many(safe.T) * (w_a[:, None] * w_b[None, :]).reshape(-1)
    for eps, stats in zip(schedule, got):
        included = terms[dist > eps].tolist()
        assert stats.pair_count == len(included)
        _assert_within_pair_sum_bound(stats.value, included)


def _assert_within_pair_sum_bound(value, included):
    """``pair_sum_schedule``'s documented bound on one value, exactly."""
    n = len(included)
    exact = sum(map(Fraction, included), Fraction(0))
    abs_sum = sum((abs(Fraction(t)) for t in included), Fraction(0))
    # at most n partials: the documented bound with m = n
    partials = (1 + _gamma(n)) ** 2 * _gamma(max(2 * n - 1, 0)) ** 2
    bound = _U * abs(exact) + ((1 + _U) * _gamma(max(n - 1, 0)) ** 2 + partials) * abs_sum
    assert abs(Fraction(value) - exact) <= bound


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    weights=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30),
    scale=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_pv_estimate_within_pair_sum_bound(dim, weights, scale, seed):
    # integer atoms and x, eps0 = sqrt(64 scale): each eps0 2^-j is the
    # correctly rounded sqrt(64 scale / 4^j), so an integer squared
    # distance 64 scale / 4^j ties with that eps exactly
    rng = np.random.default_rng(seed)
    w = np.array(weights)
    positions = rng.integers(-4, 5, size=(len(w), dim)).astype(float)
    x = rng.integers(-4, 5, size=dim).astype(float)
    nu = sl.DiscreteMeasure(positions, w, resolution=2.0**-4)
    k = sl.RieszComponent(dim, 0)
    schedule = operators.geometric_schedule(math.sqrt(64 * scale), 4 * nu.resolution)
    values = sl.pv_estimate(nu, k, x, schedule)
    diffs = x[None, :] - positions
    dist = np.linalg.norm(diffs, axis=1)
    terms = k.evaluate_many(np.where(dist[:, None] > 0, diffs, 1.0).T) * w
    for eps, value in zip(schedule, values):
        _assert_within_pair_sum_bound(value, terms[dist > eps].tolist())


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(_scan_values, min_size=1, max_size=60), seed=st.integers(0, 2**32 - 1))
def test_ball_masses_within_sum2_bound(weights, seed):
    weights = np.abs(np.array(weights))
    rng = np.random.default_rng(seed)
    mu = sl.DiscreteMeasure(rng.integers(-3, 4, size=(len(weights), 2)).astype(float), weights, 1e-3)
    center = np.array([0.5, 0.0])
    radii = np.array([0.5, 1.0, 1.5, 2.5, 4.0, 10.0])
    masses = measure._ball_masses(mu, center, radii)
    dist = np.linalg.norm(mu.positions - center, axis=1)
    for r, mass in zip(radii, masses):
        exact = sum(map(Fraction, weights[dist <= r].tolist()), Fraction(0))
        assert abs(Fraction(mass) - exact) <= _sum2_bound(exact, len(weights), exact)


def test_tie_group_cancellation_matches_truncated():
    # one distance tie group around x = 0 whose float64 and 80-bit sums
    # both lose the 0.6 between the two 1e22 terms
    nu = sl.DiscreteMeasure(np.array([[1.0, 0.0], [0.6, 0.8], [-1.0, 0.0]]), np.ones(3), 1e-3)
    g = np.array([-1e22, -1.0, -1e22])
    k = sl.RieszComponent(2, 0)
    x = np.zeros((1, 2))
    table = sl.TruncationTable(nu, k, x)
    assert sl.truncated(nu, k, g, x[0], 0.5) == 0.6
    assert table.maximal_values([g]).tolist() == [[0.6]]
    assert table.truncated_values_per_point(g, np.array([0.5])).tolist() == [0.6]
    assert truncated_batch(nu, k, g, x, 0.5).tolist() == [0.6]
    assert sl.maximal(nu, k, g, x[0]) == 0.6


@settings(max_examples=60, deadline=None)
@given(
    dens=st.lists(_scan_values, min_size=1, max_size=60),
    n_pts=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_truncated_values_within_sum2_bound(dens, n_pts, seed):
    # integer grid atoms (ties, zero distances) with the cancellation mix
    # as density: every T^eps value is one Sum2 of its row, and the
    # table's values are the batch's, bit for bit
    rng = np.random.default_rng(seed)
    n = len(dens)
    positions = rng.integers(-3, 4, size=(n, 2)).astype(float)
    weights = rng.uniform(0.0, 1.0, n)
    nu = sl.DiscreteMeasure(positions, weights, 1e-3)
    g = np.array(dens)
    pts = rng.integers(-3, 4, size=(n_pts, 2)) + rng.choice([0.0, 0.5], size=(n_pts, 2))
    eps = rng.uniform(0.1, 4.0, n_pts)
    k = sl.RieszComponent(2, 0)
    table = sl.TruncationTable(nu, k, pts)
    batch = truncated_batch(nu, k, g, pts, eps)
    assert table.truncated_values_per_point(g, eps).tobytes() == batch.tobytes()
    for i, x in enumerate(pts):
        diffs = x - positions
        keep = np.sqrt(np.sum(diffs * diffs, axis=1)) > eps[i]
        terms = k.evaluate_many(diffs[keep].T) * (weights * g)[keep]
        exact = sum(map(Fraction, terms.tolist()), Fraction(0))
        abs_sum = sum((abs(Fraction(t)) for t in terms.tolist()), Fraction(0))
        assert abs(Fraction(batch[i]) - exact) <= _sum2_bound(exact, n, abs_sum)


def test_empty_measure_gives_zeros():
    nu = sl.DiscreteMeasure(np.zeros((0, 2)), np.zeros(0), 0.1)
    k = sl.RieszComponent(2, 0)
    pts = np.zeros((2, 2))
    table = sl.TruncationTable(nu, k, pts)
    zeros = [0.0, 0.0]
    assert table.maximal_values([None]).tolist() == [zeros]
    assert table.truncated_values(None, 0.5).tolist() == zeros
    assert table.truncated_values_per_point(None, np.array([0.5, 1.0])).tolist() == zeros
    tstar, (values, diverges) = table.sups([None], None)
    assert tstar.tolist() == [zeros] and values.tolist() == zeros and not diverges.any()
    assert truncated_batch(nu, k, None, pts, 0.5).tolist() == zeros
    values, diverges = sl.operators.hl_maximal_batch(nu, None, pts)
    assert values.tolist() == zeros and not diverges.any()
    assert sl.maximal(nu, k, None, pts[0]) == 0.0
    values, diverges = hl_maximal_batch(nu, None, pts[:1])
    assert (values.tolist(), diverges.tolist()) == ([0.0], [False])
    assert sl.lp_norm(nu, None, 2.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    grid=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=40),
    weights=st.lists(st.floats(0.0, 2.0), min_size=40, max_size=40),
    dens=st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40),
    pole=st.integers(0, 39),
    on_atom=st.booleans(),
    axis=st.integers(0, 1),
)
def test_maximal_values_oracle_ties_and_zero_distances(grid, weights, dens, pole, on_atom, axis):
    # integer grid atoms: many exactly tied distances; the pole sits on
    # an atom (zero distance) or at a half-integer point
    positions = np.array(grid, dtype=float)
    n = len(positions)
    nu = sl.DiscreteMeasure(positions, np.array(weights[:n]), resolution=1e-6)
    g = np.array(dens[:n])
    x = positions[pole % n] if on_atom else positions[pole % n] + np.array([0.5, 0.25])
    k = sl.RieszComponent(2, axis)
    fast = sl.TruncationTable(nu, k, x[None, :]).maximal_values([g])[0, 0]
    assert fast == pytest.approx(brute_force_sup(nu, k, g, x), rel=1e-12, abs=1e-300)


def test_maximal_values_exact_on_cancelling_ties():
    # two atoms at equal distance carry huge opposite terms that cancel
    # exactly inside their tie group; the O(1) sup of the rest is exact
    rng = Rng(89)
    small = rng.points_in_box(30, [(-0.4, 0.4)] * 2) + np.array([0.0, 3.0])
    positions = np.vstack([[[1.0, 0.0], [-1.0, 0.0]], small])
    nu = sl.DiscreteMeasure(positions, np.ones(len(positions)), resolution=1e-6)
    g = np.concatenate([[1e9, 1e9], rng.uniforms(30, -1.0, 1.0)])
    k = sl.RieszComponent(2, 0)
    pts = np.array([[0.0, 0.0], [0.0, 0.0]])
    table = sl.TruncationTable(nu, k, pts)
    compiled = table.maximal_values([g])[0]
    assert compiled.tolist() == oracles.maximal_values(nu, k, pts, [g])[0].tolist()
    order, dist_desc, kw_desc = oracles.table_rows(nu, k, pts)
    terms = kw_desc * g[order]
    for i, row in enumerate(terms):
        exact = max(abs(p) for (p, _), v in zip(_exact_prefixes(row), oracles.group_ends(dist_desc)[i]) if v)
        assert compiled[i] == float(exact)


def _lane_counts():
    """The lane counts of the copies of the compiled loops this host runs:
    1 (the scalar copies) and, where the probe finds AVX-512, 8."""
    return sorted({1, operators._compiled().lanes})


def _call_row_sups(nu, kernel, pts, stack, mass, lanes):
    """(T*, M, diverges) of one direct call of ``row_sups`` in the copy of
    ``lanes``, the stack atom-major (N, D); M and diverges are None
    without mass."""
    tstar = np.empty((stack.shape[1], len(pts)))
    values, diverges = (None, None) if mass is None else (np.empty(len(pts)), np.empty(len(pts), dtype=bool))
    cells = operators._cells(kernel.monomial, pts, nu.positions)
    assert operators._compiled().row_sups(*cells, lanes, nu.weights, stack.shape[1], stack, tstar, mass, values,
                                          diverges) == 0
    return tstar, values, diverges


def _sup_copies(nu, kernel, pts, gs):
    """T* at ``pts`` for the stack ``gs``, (D, P), by each way this host
    computes it: the entries, each copy (``_lane_counts``) with and
    without M, and the loop of one scalar call per density; and by the
    oracle."""
    table = sl.TruncationTable(nu, kernel, pts)
    out = {"entry": table.maximal_values(gs), "sups": table.sups(gs, None)[0]}
    with np.errstate(over="ignore", invalid="ignore"):
        out["oracle"] = oracles.maximal_values(nu, kernel, pts, gs)
    stack = operators.density_stack(gs, nu)
    mass = nu.weights.copy()
    for lanes in _lane_counts():
        out[f"lanes={lanes}"] = _call_row_sups(nu, kernel, pts, stack, None, lanes)[0]
        out[f"lanes={lanes} with M"] = _call_row_sups(nu, kernel, pts, stack, mass, lanes)[0]
    out["per_density"] = np.concatenate(
        [_call_row_sups(nu, kernel, pts, np.ascontiguousarray(stack[:, k : k + 1]), None, 1)[0] for k in range(len(gs))]
    )
    return out


def _assert_copies_bit_equal(nu, kernel, pts, gs):
    copies = _sup_copies(nu, kernel, pts, gs)
    reference = copies["per_density"]
    assert reference.shape == (len(gs), len(pts))
    for name, values in copies.items():
        assert values.shape == reference.shape and values.tobytes() == reference.tobytes(), name
    return reference


def _lane_case(kind, rng):
    """(measure, kernel, points) for the lane tests, 37 atoms on an integer
    grid (exact distance ties): points on atoms (zero distances) and off
    them; off them, ``_unit_kernel`` terms of weights that cancel (1e16, 1
    and 1e-6) or of weights 1e300 whose terms overflow, to +-inf for a
    density near 1e9 and to NaN prefixes where they meet."""
    n = 37
    positions = rng.integers(-2, 3, size=(n, 2)).astype(float)
    if kind == "zero_distance":
        nu = sl.DiscreteMeasure(positions, rng.uniform(0.0, 1.0, n), 1e-3)
        return nu, sl.RieszComponent(2, 1), np.vstack([positions[:4], [[0.5, 0.0]]])
    pts = rng.integers(-2, 3, size=(5, 2)) + rng.choice([0.5, 0.25], (5, 2))
    if kind == "ties":
        return sl.DiscreteMeasure(positions, rng.uniform(0.0, 1.0, n), 1e-3), sl.RieszComponent(2, 0), pts
    if kind == "cancellation":
        weights = rng.choice([1e16, 1.0, 1e-6, 0.0], n)
    else:  # nan_terms
        weights = rng.choice([1e300, 1.0, 2.0], n, p=[0.1, 0.45, 0.45])
    return sl.DiscreteMeasure(positions, weights, 1e-3), _unit_kernel(2), pts


@pytest.mark.parametrize("d", [1, 9, 13, 50])
@pytest.mark.parametrize("kind", ["ties", "zero_distance", "cancellation", "nan_terms"])
def test_sup_copies_bit_equal_to_the_per_density_loop(kind, d):
    # each density is one lane's Sum2, its operations in their order, so
    # every copy gives the bits of one scalar pass per density, with M
    # taken from the same rows or not; D = 9 and 13 leave a partial last
    # block of 8 lanes
    rng = np.random.default_rng(d)
    nu, k, pts = _lane_case(kind, rng)
    gs = rng.uniform(-1.0, 1.0, (d, nu.count)) * rng.choice([1.0, 0.0, 1e9], (d, 1))
    if kind == "nan_terms":
        gs[-1] = rng.uniform(-1.0, 1.0, nu.count) * 1e9  # one density whose terms overflow
    values = _assert_copies_bit_equal(nu, k, pts, gs)
    if kind == "nan_terms":
        assert (values[np.all(gs == 0.0, axis=1)] == 0.0).all() and np.isnan(values).any()


@pytest.mark.parametrize("n", [0, 1, 130])
@pytest.mark.parametrize("n_pts", [1, 7, 8, 9, 17])
def test_tstar_of_one_density_equals_its_oracle_in_each_copy(n_pts, n):
    # at D = 1 the 8-lane copy takes one sorted row per lane, each lane
    # with its own group ends: P = 1 to 17 (partial last blocks of 8), N =
    # 0, 1 and 130 (past two 64-item chunks); integer-grid atoms (exact
    # ties), points on atoms (zero distances) and off them, and an atom
    # far out, first in every row, whose term g w = 1e9 * 1e300 overflows,
    # so that a row not on it starts with inf and turns NaN next; a row on
    # it (every third point) has that term 0 and stays finite
    rng = np.random.default_rng(n + 1000 * n_pts)
    positions = rng.integers(-2, 3, size=(n, 2)).astype(float)
    weights, g = rng.uniform(0.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    pts = rng.integers(-2, 3, size=(n_pts, 2)) + rng.choice([0.0, 0.5], (n_pts, 2))
    if n:
        positions[0], weights[0], g[0] = (50.0, 0.0), 1e300, 1e9
        pts[1::3] = positions[0]
    nu = sl.DiscreteMeasure(positions, weights, 1e-3)
    (values,) = _assert_copies_bit_equal(nu, _unit_kernel(2), pts, [g])
    far = np.arange(n_pts) % 3 == 1
    assert np.isfinite(values[far]).all()
    if n:
        assert (np.isnan(values[~far]) if n > 1 else np.isinf(values[~far])).all()
    else:
        assert values.tolist() == [0.0] * n_pts


@pytest.mark.parametrize("d", [1, 9])
@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0)], ids=["P=0", "N=0", "both"])
def test_sup_copies_on_empty_tables(shape, d):
    rows, n = shape
    nu = sl.DiscreteMeasure(np.arange(2.0 * n).reshape(n, 2), np.ones(n), 1e-3)
    values = _assert_copies_bit_equal(nu, sl.RieszComponent(2, 0), np.zeros((rows, 2)), np.ones((d, n)))
    assert values.tolist() == [[0.0] * rows] * d


def test_nan_lane_leaves_the_other_lanes_bits():
    # density 4 turns the terms of the two atoms of weight 1e300 into +inf
    # and -inf, whose sum is NaN, in its lane alone; the other lanes of
    # its block of 8 and of the next keep the bits of their one-density
    # passes
    rng = np.random.default_rng(5)
    nu, k, pts = _scan_row(np.ones(22, dtype=bool), np.concatenate([[1e300, 1e300], rng.uniform(0.0, 1.0, 20)]))
    pts = np.repeat(pts, 3, axis=0)
    gs = rng.uniform(-1.0, 1.0, (11, 22))
    gs[4, :2] = 1e300, -1e300
    values = _assert_copies_bit_equal(nu, k, pts, gs)
    assert np.isnan(values[4]).all() and np.isfinite(np.delete(values, 4, axis=0)).all()
    table = sl.TruncationTable(nu, k, pts)
    for i, g in enumerate(gs):
        assert table.maximal_values([g]).tobytes() == values[i].tobytes()


def _order_stack(rng, d, n):
    """A (D, N) stack of densities whose Sum2 prefixes show the order of a
    tie: values of 1e16, 1 and 1e-6 with random signs and mantissas, whose
    TwoSum errors the sum c adds with rounding that depends on their
    order."""
    return rng.choice([1e16, 1.0, 1e-6, 0.0], (d, n)) * rng.uniform(-1.0, 1.0, (d, n))


def _row_loops(nu, kernel, g, stack, pts, eps, w_pts, schedule):
    """The three row loops of ``sups.c`` through their package entries:
    the sups (``row_sups``) of the table, T* and M from one sort, T* alone
    and M alone (``hl_maximal_batch``, with no densities), T^eps
    (``truncated_rows``) and the pair engine of the points, of weights
    ``w_pts``, against the atoms (``pair_partials``)."""
    table = sl.TruncationTable(nu, kernel, pts)
    tstar, (values, diverges) = table.sups(stack, g)
    return {
        "row_sups": (tstar, values, diverges, table.maximal_values(stack), *hl_maximal_batch(nu, g, pts)),
        "truncated_rows": (truncated_batch(nu, kernel, g, pts, eps),),
        "pair_partials": operators._pair_partials(pts, w_pts, nu.positions, nu.weights, kernel, schedule),
    }


def _row_oracles(nu, kernel, g, stack, pts, eps, w_pts, schedule):
    """``_row_loops`` by the loops' oracles in ``tests/oracles.py``: the
    sups by ``table_rows`` and the sups over its rows."""
    tstar, hl = oracles.maximal_values(nu, kernel, pts, stack), oracles.hl_maximal_batch(nu, g, pts)
    return {
        "row_sups": (tstar, *hl, tstar, *hl),
        "truncated_rows": (oracles.truncated_batch(nu, kernel, g, pts, eps),),
        "pair_partials": oracles.pair_partials(pts, w_pts, nu.positions, nu.weights, kernel, schedule),
    }


def _row_case(case, n_pts, dim, rng):
    """(measure, density, points, one eps per point, point weights) of
    ``test_row_loop_copies_equal_their_oracles``: integer-grid atoms
    (exact ties) with points off them, on them (zero distances) or with
    every fifth atom moved to 1e300 (infinite distances), or no atoms."""
    n = 0 if case == "no_atoms" else 70  # past the 64 atoms of one M chunk
    positions = rng.integers(-2, 3, size=(n, dim)).astype(float)
    if case == "huge":
        positions[::5, 0] = _HUGE
    nu = sl.DiscreteMeasure(positions, rng.uniform(0.0, 1.0, n), 1e-3)
    g = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-1.0, 1.0, n))  # g w of both signs, and 0
    pts = rng.integers(-2, 3, size=(n_pts, dim)) + (0.0 if case == "on_atoms" else rng.choice([0.0, 0.5], (n_pts, dim)))
    eps = rng.choice([0.5, 1.0, math.sqrt(2.0), 2.0], n_pts)  # often exactly an atom distance
    return nu, g, pts, eps, rng.uniform(-1.0, 1.0, n_pts)


_CASES = ["off_atoms", "on_atoms", "huge", "no_atoms"]


@pytest.mark.parametrize("n_pts", [0, 1, 7, 8, 9, 17])
@pytest.mark.parametrize("case", _CASES)
def test_row_loop_copies_equal_their_oracles(case, n_pts):
    # each copy of each row loop, the entries run with the probe's lane
    # count replaced, bit for bit against its oracle: P = 0, one block of
    # 8 points, partial last blocks (1, 7, 9, 17), both kernel families in
    # dims 2-4 (q odd in dim 3, even in 2 and 4), and D = 0 to 50
    # densities (partial and whole blocks of 8 lanes), a different D per
    # dimension and family; with atoms at 1e300 the odd family's terms are
    # -inf / inf, so the pair engine's max |term| goes NaN
    rng = np.random.default_rng(n_pts + 100 * _CASES.index(case))
    schedule = np.sqrt([9.0, 4.0, 2.0, 1.0])
    counts = iter([0, 1, 7, 8, 9, 50])
    for dim in (2, 3, 4):
        nu, g, pts, eps, w_pts = _row_case(case, n_pts, dim, rng)
        for family in ("riesz", "odd"):
            k = _table_kernel(family, dim)
            stack = _order_stack(rng, next(counts), nu.count)
            with np.errstate(over="ignore", invalid="ignore"):
                reference = _row_oracles(nu, k, g, stack, pts, eps, w_pts, schedule)
            for lanes in _lane_counts():
                with mock.patch.object(operators._compiled(), "lanes", lanes):
                    compiled = _row_loops(nu, k, g, stack, pts, eps, w_pts, schedule)
                for loop, arrays in compiled.items():
                    for a, b in zip(arrays, reference[loop], strict=True):
                        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (loop, lanes)
            if case == "huge" and family == "odd" and n_pts:
                assert np.isnan(compiled["pair_partials"][1]).any()


@pytest.mark.parametrize("d", [0, 1, 7, 8, 9, 50])
@pytest.mark.parametrize("n_pts", [0, 1, 7, 8, 9, 17])
def test_row_sups_copies_equal_their_oracles(n_pts, d):
    # row_sups called directly in each copy, for T* alone, M alone and
    # both, against the oracles: P = 0 to 17 points (partial last blocks
    # of 8) and D = 0 to 50 densities, in each case of _row_case (N = 0,
    # points on atoms and atoms at 1e300), the odd family in dim 3
    rng = np.random.default_rng(n_pts + 100 * d)
    k = _table_kernel("odd", 3)
    for case in _CASES:
        nu, g, pts, _, _ = _row_case(case, n_pts, 3, rng)
        gs = _order_stack(rng, d, nu.count)
        stack, mass = operators.density_stack(gs, nu), np.abs(g) * nu.weights
        with np.errstate(over="ignore", invalid="ignore"):
            tstar, hl = oracles.maximal_values(nu, k, pts, gs), oracles.hl_maximal_batch(nu, g, pts)
        for lanes in _lane_counts():
            for with_tstar, with_mass in ((True, False), (False, True), (True, True)):
                columns = stack if with_tstar else np.empty((nu.count, 0))
                got = _call_row_sups(nu, k, pts, columns, mass if with_mass else None, lanes)
                assert got[0].tobytes() == (tstar if with_tstar else np.empty((0, n_pts))).tobytes(), (case, lanes)
                if with_mass:
                    assert got[1].tobytes() == hl[0].tobytes() and got[2].tobytes() == hl[1].tobytes(), (case, lanes)


@pytest.mark.parametrize("n_pts", [1, 7, 9, 17])
def test_padding_lanes_are_never_written(n_pts):
    # a partial last block repeats the last point in its padding lanes:
    # called with P rows, no copy writes past row P of an output that has
    # room for 8 more, nor into another density's rows of T*
    rng = np.random.default_rng(n_pts)
    nu, g, pts, eps, _ = _row_case("on_atoms", n_pts, 3, rng)
    k = _table_kernel("odd", 3)
    lib = operators._compiled()
    cells = operators._cells(k.monomial, pts, nu.positions)
    d, rows = 9, n_pts + 8
    gs = _order_stack(rng, d, nu.count)
    stack, mass = operators.density_stack(gs, nu), np.abs(g) * nu.weights
    tstar, (hl, hl_diverges) = oracles.maximal_values(nu, k, pts, gs), oracles.hl_maximal_batch(nu, g, pts)
    for lanes in _lane_counts():
        sups, out = np.full(d * n_pts + 8, 7.0), np.full(rows, 7.0)
        values, diverges = np.full(rows, 7.0), np.ones(rows, dtype=bool)
        assert lib.row_sups(*cells, lanes, nu.weights, d, stack, sups, mass, values, diverges) == 0
        lib.truncated_rows(*cells, lanes, eps, nu.weights * g, out)
        assert sups[: d * n_pts].tobytes() == tstar.tobytes(), lanes
        assert values[:n_pts].tobytes() == hl.tobytes() and diverges[:n_pts].tobytes() == hl_diverges.tobytes()
        for array, fill in ((sups[d * n_pts :], 7.0), (out[n_pts:], 7.0), (values[n_pts:], 7.0),
                            (diverges[n_pts:], True)):
            assert (array == fill).all(), lanes


def test_table_sups_m_matches_batch():
    # M from the table's sups, with T*, equals hl_maximal_batch's, which
    # sorts with no densities
    rng = Rng(91)
    nu, g = random_config(rng, 150)
    k = sl.RieszComponent(2, 0)
    pts = np.vstack([rng.points_in_box(20, [(-1, 1)] * 2), nu.positions[7]])
    table = sl.TruncationTable(nu, k, pts)
    tstar, (values, diverges) = table.sups([g], g)
    ref_values, ref_diverges = sl.operators.hl_maximal_batch(nu, g, pts)
    assert np.array_equal(diverges, ref_diverges) and diverges[-1] and not diverges[:-1].any()
    assert math.isinf(values[-1])
    assert np.array_equal(values, ref_values)
    assert tstar.tobytes() == table.maximal_values([g]).tobytes()


def test_table_sups_m_matches_batch_with_ties():
    # both sort descending and stably, so a tie group sums in one order
    nu = sl.graph_measure(sl.LipschitzGraph(2, sl.Affine((0.0,))), [(-1.0, 1.0)], 64)
    g = Rng(93).uniforms(nu.count, -1, 1)
    pts = np.vstack([nu.positions[[3, 20]] + np.array([0.0, 0.5]), nu.positions[40]])
    k = sl.RieszComponent(2, 1)
    _, (values, diverges) = sl.TruncationTable(nu, k, pts).sups([g], g)
    ref_values, ref_diverges = sl.operators.hl_maximal_batch(nu, g, pts)
    assert np.array_equal(diverges, ref_diverges) and diverges[-1]
    assert np.array_equal(values, ref_values)
    dist_desc = oracles.table_rows(nu, k, pts)[1]
    assert np.any(dist_desc[0, :-1] == dist_desc[0, 1:])


def _hl_reference(nu, g, x):
    """M at x one atom at a time: the masses |g| w summed by sequential
    Sum2 in the table's order read backwards (ascending distance, ties in
    reverse index order), each candidate times 1 / (r ... r), n - 1 factors."""
    d = np.sqrt(np.sum((x - nu.positions) ** 2, axis=1)).tolist()
    mass = (np.abs(g) * nu.weights).tolist()
    order = sorted(range(len(d)), key=lambda j: (d[j], -j))
    if any(d[j] == 0.0 and mass[j] > 0.0 for j in order):
        return math.inf
    best = 0.0
    for k, (j, cum) in enumerate(zip(order, _sequential_sum2([mass[j] for j in order]))):
        if d[j] > 0.0 and (k == len(order) - 1 or d[order[k + 1]] != d[j]):
            power = 1.0
            for _ in range(nu.ambient_dim - 1):
                power *= d[j]
            best = max(best, cum * (1.0 / power))
    return best


@settings(max_examples=30, deadline=None)
@example(dim=3, n=40, n_pts=4, on_atoms=False, seed=7)  # the M weight 1 / (r r) in R^3
@given(
    dim=st.sampled_from([2, 3]),
    n=st.integers(0, 40),
    n_pts=st.integers(1, 4),
    on_atoms=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sups_equal_their_oracles(dim, n, n_pts, on_atoms, seed):
    # integer grid atoms: exact distance ties, points on atoms (zero
    # distances), some zero densities, single-atom rows and N = 0; M from
    # the table's sups, with T*, and from hl_maximal_batch's sort
    rng = np.random.default_rng(seed)
    positions = rng.integers(-2, 3, size=(n, dim)).astype(float)
    nu = sl.DiscreteMeasure(positions, rng.uniform(0.0, 1.0, n), 1e-3)
    g = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-1.0, 1.0, n))
    pts = rng.integers(-2, 3, size=(n_pts, dim)) + (0.0 if on_atoms else rng.choice([0.0, 0.5], (n_pts, dim)))
    k = sl.RieszComponent(dim, 0)
    tstar, (values, diverges) = sl.TruncationTable(nu, k, pts).sups([g], g)
    compiled = (tstar[0], values, diverges, *hl_maximal_batch(nu, g, pts))
    reference = (oracles.maximal_values(nu, k, pts, [g])[0], *oracles.hl_maximal_batch(nu, g, pts) * 2)
    for a, b in zip(compiled, reference, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert compiled[1].tolist() == [_hl_reference(nu, g, x) for x in pts]
    for x, value in zip(pts, compiled[0]):
        assert value == pytest.approx(brute_force_sup(nu, k, g, x, grid_size=50), rel=1e-12, abs=1e-300)


def _table_atoms(layout, n, dim, rng):
    """Atoms for ``test_table_builds_equal_their_oracles``:
    an integer grid; one coincident point (every distance tied); or points
    on the first axis at |x| = 1, 1, 2, 2, ... in index order, so from the
    origin each row ascends with ties, whatever the signs."""
    if layout == "grid":
        return rng.integers(-2, 3, size=(n, dim)).astype(float)
    if layout == "coincident":
        return np.tile(rng.integers(-2, 3, size=dim).astype(float), (n, 1))
    positions = np.zeros((n, dim))
    positions[:, 0] = (1 + np.arange(n) // 2) * rng.choice([-1.0, 1.0], n)
    return positions


def _table_kernel(family, dim):
    """A catalog kernel in R^dim with even q (parity 0) or odd q: Riesz
    has q = dim, and x_0^3 / |x|^q has q = dim + 2."""
    if family == "riesz":
        return sl.RieszComponent(dim, dim - 1)
    return sl.OddHomogeneous(dim, (3,) + (0,) * (dim - 1))


@settings(max_examples=60, deadline=None)
@example(layout="ascending", family="riesz", dim=2, n=4, n_pts=1, on_atoms=True, seed=0)  # 1, 1, 2, 2 from the origin
@example(layout="grid", family="riesz", dim=2, n=0, n_pts=2, on_atoms=False, seed=1)  # N = 0
@example(layout="grid", family="odd", dim=3, n=5, n_pts=0, on_atoms=False, seed=2)  # P = 0
@example(layout="coincident", family="odd", dim=4, n=7, n_pts=3, on_atoms=True, seed=3)
@given(
    layout=st.sampled_from(["grid", "coincident", "ascending"]),
    family=st.sampled_from(["riesz", "odd"]),
    dim=st.sampled_from([2, 3, 4]),
    n=st.integers(0, 40),
    n_pts=st.integers(0, 4),
    on_atoms=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_builds_equal_their_oracles(layout, family, dim, n, n_pts, on_atoms, seed):
    # the compiled sups (distances, kernel terms, sort and sups fused), of
    # densities whose sums show the order of a tie, hl_maximal_batch's
    # sort with no terms and truncated_batch's fused masked totals, against
    # numpy's whole-array distances, evaluate_many and stable argsort:
    # both kernel families with odd and even q, exact ties, points on
    # atoms, single-atom rows, N = 0, P = 0
    rng = np.random.default_rng(seed)
    positions = _table_atoms(layout, n, dim, rng)
    nu = sl.DiscreteMeasure(positions, rng.uniform(0.0, 1.0, n), 1e-3)
    g = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-1.0, 1.0, n))
    if layout == "ascending":
        pts = np.zeros((n_pts, dim))
    else:
        pts = rng.integers(-2, 3, size=(n_pts, dim)) + (0.0 if on_atoms else rng.choice([0.0, 0.5], (n_pts, dim)))
    eps = rng.choice([0.5, 1.0, math.sqrt(2.0), 2.0], n_pts)  # often exactly an atom distance
    k = _table_kernel(family, dim)

    gs = np.vstack([g, _order_stack(rng, 4, n)])  # M of the last
    tstar, (values, diverges) = sl.TruncationTable(nu, k, pts).sups(gs, gs[-1])
    compiled = (tstar, values, diverges, *hl_maximal_batch(nu, g, pts), truncated_batch(nu, k, g, pts, eps))
    reference = (oracles.maximal_values(nu, k, pts, gs), *oracles.hl_maximal_batch(nu, gs[-1], pts),
                 *oracles.hl_maximal_batch(nu, g, pts), oracles.truncated_batch(nu, k, g, pts, eps))
    for a, b in zip(compiled, reference, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if layout == "ascending" and n and n_pts:
        # from the origin, each tie group lists its atoms in index order
        assert oracles.table_rows(nu, k, pts)[0][0].tolist() == sorted(range(n), key=lambda j: (-(j // 2), j))


@settings(max_examples=60, deadline=None)
@example(family="riesz", dim=2, n_a=0, n_b=5, squares={4, 1}, huge=False, seed=0)  # empty side
@example(family="odd", dim=3, n_a=6, n_b=0, squares={9}, huge=False, seed=1)
@example(family="riesz", dim=4, n_a=7, n_b=9, squares={2}, huge=False, seed=2)  # one eps
@example(family="odd", dim=2, n_a=5, n_b=8, squares={16, 4, 1}, huge=True, seed=3)
@given(
    family=st.sampled_from(["riesz", "odd"]),
    dim=st.sampled_from([2, 3, 4]),
    n_a=st.integers(0, 12),
    n_b=st.integers(0, 30),
    squares=st.sets(st.integers(1, 40), min_size=1, max_size=8),
    huge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_engines_equal_their_oracles(family, dim, n_a, n_b, squares, huge, seed):
    # integer grids, so distances often equal a schedule eps = sqrt(k)
    # exactly; both kernel families with odd and even q; with huge, atoms
    # near 1e300 (whose squared distances overflow) and weights near 1e300,
    # so that some terms are 0 / inf, inf / inf, K * inf or 0 * inf
    rng = np.random.default_rng(seed)
    pos_a = rng.integers(-3, 4, size=(n_a, dim)).astype(float)
    pos_b = rng.integers(-3, 4, size=(n_b, dim)).astype(float)
    w_a, w_b = rng.uniform(-1.0, 1.0, n_a), rng.uniform(0.0, 1.0, n_b)
    if huge:
        pos_b[::3] *= 1e300
        w_a[::2] *= 1e300
        w_b[1::3] *= 1e300
    k = _table_kernel(family, dim)
    schedule = np.sqrt(np.array(sorted(squares, reverse=True), dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        compiled = operators._pair_partials(pos_a, w_a, pos_b, w_b, k, schedule)
        stats = pair_sum_schedule(pos_a, w_a, pos_b, w_b, k, schedule)
        reference = oracles.pair_partials(pos_a, w_a, pos_b, w_b, k, schedule)
        diffs = (pos_a[:, None, :] - pos_b[None, :, :]).reshape(-1, dim)
        dist = np.sqrt(np.sum(diffs * diffs, axis=1))
        terms = k.evaluate_many(np.where(dist[:, None] > 0, diffs, 1.0).T) * (w_a[:, None] * w_b[None, :]).reshape(-1)
    for a, b in zip(compiled, reference, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    # max |term| is NaN once an included term is, as np.max is
    for eps, (_, max_term, count) in zip(schedule, stats):
        included = terms[dist > eps]
        assert count == len(included)
        assert math.isnan(max_term) == bool(np.isnan(included).any())


@settings(max_examples=40, deadline=None)
@given(
    n_a=st.integers(0, 9),
    n_b=st.integers(0, 12),
    weights=st.lists(_scan_values, min_size=21, max_size=21),
    squares=st.sets(st.integers(1, 20), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_partials_are_textbook_sum2_per_bin(n_a, n_b, weights, squares, seed):
    # the engine's pass and its oracle against one loop over the pairs in
    # row-major order: bin j the first eps[j] < distance, each bin one
    # Sum2; weights near 1e16 and 1 cancel, so another partition or
    # another order of the error sum shows in the bits
    rng = np.random.default_rng(seed)
    pos_a = rng.integers(-3, 4, size=(n_a, 2)).astype(float)
    pos_b = rng.integers(-3, 4, size=(n_b, 2)).astype(float)
    w_a, w_b = np.array(weights[:n_a]), np.array(weights[n_a:n_a + n_b])
    k = sl.RieszComponent(2, 1)
    eps = np.sqrt(np.array(sorted(squares, reverse=True), dtype=float))
    compiled = operators._pair_partials(pos_a, w_a, pos_b, w_b, k, eps)
    reference = oracles.pair_partials(pos_a, w_a, pos_b, w_b, k, eps)
    for a, b in zip(compiled, reference, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    terms = {}
    for i, x in enumerate(pos_a):
        for b, y in enumerate(pos_b):
            d = x - y
            dist = math.sqrt(d[0] * d[0] + d[1] * d[1])
            j = next((j for j, e in enumerate(eps) if dist > e), None)
            if j is not None:
                term = float(k.evaluate_many(d[:, None])[0]) * (w_a[i] * w_b[b])
                terms.setdefault(j, []).append(term)
    partials, max_terms, counts = compiled
    assert partials.shape == (len(eps), 2)
    for j in range(len(eps)):
        in_bin = terms.get(j, [])
        assert tuple(partials[j]) == (_textbook_sum2(in_bin) if in_bin else (0.0, 0.0))
        assert (max_terms[j], counts[j]) == (max(map(abs, in_bin), default=0.0), len(in_bin))


_HUGE = 1e300  # its square overflows: the distance from the origin is inf


@settings(max_examples=60, deadline=None)
@example(rows=[[1.0, 2.0, 2.0, 3.0]], seed=0)  # an ascending run with a tie is not reversed whole
@example(rows=[[3.0, 2.0, 2.0, 1.0, 1.0, 4.0, 4.0]], seed=0)
@example(rows=[[_HUGE, 0.0, 1.0, _HUGE, 0.0]], seed=0)
@given(
    rows=st.integers(1, 30).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, _HUGE]), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_row_sort_is_numpys_stable_argsort(rows, seed):
    # each row is a table of one point, the origin, against atoms on the
    # first axis at +-|x|, so its distances are the row (inf for _HUGE);
    # distances are never NaN, since points and atoms are finite.  The
    # sort shows in the sups of densities whose sums depend on the order
    # of a tie: equal to those over numpy's stable argsort
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], len(rows[0]))
    for row in rows:
        positions = np.zeros((len(row), 2))
        positions[:, 0] = signs * np.array(row)
        nu = sl.DiscreteMeasure(positions, np.ones(len(row)), 1e-3)
        dist = np.where(np.array(row) == _HUGE, math.inf, np.array(row))
        with np.errstate(over="ignore"):  # numpy's squares of _HUGE
            order, dist_desc, _ = oracles.table_rows(nu, sl.RieszComponent(2, 0), np.zeros((1, 2)))
        assert order.tolist() == [np.argsort(-dist, kind="stable").tolist()]
        assert dist_desc.tolist() == [dist[order[0]].tolist()]
        _assert_rows_equal_oracles(nu, sl.RieszComponent(2, 0), np.zeros((1, 2)), rng)


def _origin_tstar(dist, g, lanes):
    """T* of g at the origin in the copy of ``lanes``: atoms on the first
    axis at the distances ``dist``, in index order, of unit weight, and
    ``_unit_kernel``, so that a term is g's value."""
    positions = np.zeros((len(dist), 2))
    positions[:, 0] = dist
    nu = sl.DiscreteMeasure(positions, np.ones(len(dist)), 1.0)
    with mock.patch.object(operators._compiled(), "lanes", lanes):
        return sl.TruncationTable(nu, _unit_kernel(2), np.zeros((1, 2))).maximal_values([g])[0, 0]


def test_a_reversed_tie_changes_the_sum2_bits():
    # four coincident atoms make one tie group, so T* is |Sum2| of the
    # whole row: 1e16, 1.5, -1e16 and 1e-6 in atom order, the stable
    # order, sum to 1.5000010000000001, and with the last two reversed to
    # 1.500001, since the sum of the TwoSum errors rounds in its order
    terms = [1e16, 1.5, -1e16, 1e-6]
    assert _sequential_sum2(terms)[-1] == 1.5000010000000001
    assert _sequential_sum2(terms[:2] + terms[:1:-1])[-1] == 1.500001
    for lanes in _lane_counts():
        assert _origin_tstar([1.0] * 4, terms, lanes) == 1.5000010000000001


# 40 distances alternating up and down, 20 runs, with atoms 10 and 38
# tied at 11: a row that the bucket sort takes
_ZIGZAG = [11.0 if j == 38 else j + 1.0 if j % 2 == 0 else 41.0 - j for j in range(40)]


@pytest.mark.parametrize(
    "dist, g, path",
    [
        # find_runs: 1, 2 ascend and 2, 3 ascend; reversing 1, 2, 2, 3
        # whole would put atom 2 before atom 1
        ([1.0, 2.0, 2.0, 3.0], [0.0, 1e308, -1e308, 1e308], "merge"),
        # merge_runs: the runs 3, 2, 1 and 2 tie at 2; taking the right
        # item would put atom 3 before atom 1
        ([3.0, 2.0, 1.0, 2.0], [1e308, 1e308, 0.0, -1e308], "merge"),
        # the buckets and the insertion sort: atom 10 before atom 38
        (_ZIGZAG, [1e308 if j in (1, 10) else -1e308 if j == 38 else 0.0 for j in range(40)], "bucket"),
    ],
    ids=["find_runs", "merge_runs", "bucket_sort"],
)
def test_a_tie_across_runs_keeps_atom_order(dist, g, path):
    # in atom order the tie group adds 1e308 to the prefix 1e308 first,
    # which overflows (and TwoSum's error of inf is NaN), so T* is NaN;
    # in the order with the tie reversed, -1e308 comes first and T* is
    # 1e308
    assert _sort_path(np.array(dist)) == path
    for lanes in _lane_counts():
        assert math.isnan(_origin_tstar(dist, g, lanes)), lanes
    order = sorted(range(len(dist)), key=lambda j: (-dist[j], -j))  # the tie reversed
    assert abs(max(_sequential_sum2([g[j] for j in order]))) == 1e308


def _sort_path(dist):
    """The sort ``sups.c``'s ``row_sups`` gives a row of distances (in
    atom order): "merge" for at most 16 natural runs, else "bucket", or
    "refused" where its bucket sort hands the row back to the merge (an
    infinite distance, no spread, or more than 32 items in a bucket)."""
    n, runs, a = len(dist), 0, 0
    while a < n:  # find_runs: non-increasing, or strictly increasing
        runs, b = runs + 1, a + 1
        while b < n and dist[b] <= dist[b - 1]:
            b += 1
        if b == a + 1 and b < n:
            while b < n and dist[b] > dist[b - 1]:
                b += 1
        a = b
    if runs <= 16:
        return "merge"
    hi, lo = float(np.max(dist)), float(np.min(dist))
    if not (hi < math.inf and hi > lo and n / (hi - lo) < math.inf):
        return "refused"
    buckets = np.minimum(n - 1, ((hi - dist) * (n / (hi - lo))).astype(np.int64))
    return "bucket" if np.bincount(buckets).max() <= 32 else "refused"


def _axis_row(dist, dim, rng):
    """Atoms at the given distances from the origin, each on a random axis
    with a random sign, so that the origin's row reads ``dist`` exactly
    (inf for _HUGE) and equal distances tie exactly."""
    positions = np.zeros((len(dist), dim))
    positions[np.arange(len(dist)), rng.integers(0, dim, len(dist))] = dist * rng.choice([-1.0, 1.0], len(dist))
    return positions


def _assert_rows_equal_oracles(nu, kernel, pts, rng):
    """The table's sups and ``hl_maximal_batch`` (which sorts the same
    way) equal the sups over the rows of ``oracles.table_rows`` byte for
    byte, for a ramp and densities whose sums show the order of a tie."""
    gs = np.vstack([np.linspace(-1.0, 1.0, nu.count), _order_stack(rng, 8, nu.count)])
    tstar, (values, diverges) = sl.TruncationTable(nu, kernel, pts).sups(gs, gs[-1])
    compiled = (tstar, values, diverges, *hl_maximal_batch(nu, gs[0], pts))
    with np.errstate(over="ignore", invalid="ignore"):  # numpy's squares of _HUGE
        reference = (oracles.maximal_values(nu, kernel, pts, gs), *oracles.hl_maximal_batch(nu, gs[-1], pts),
                     *oracles.hl_maximal_batch(nu, gs[0], pts))
    for a, b in zip(compiled, reference, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_ROW_LAYOUTS = {  # name: (distances from the origin, the sort they take)
    "few_runs": (lambda rng: np.tile(np.arange(60.0, 0.0, -1.0), 4) * 0.37, "merge"),
    "spread": (lambda rng: rng.uniform(1.0, 2.0, 300), "bucket"),
    "outlier": (lambda rng: np.append(rng.uniform(1.0, 1.001, 299), 1e6), "refused"),
    "all_equal": (lambda rng: np.full(200, 1.5), "merge"),
    "huge": (lambda rng: np.where(np.arange(200) % 7 == 3, _HUGE, rng.uniform(1.0, 2.0, 200)), "refused"),
    "on_atoms": (lambda rng: np.where(np.arange(200) % 10 == 0, 0.0, rng.uniform(0.0, 1.0, 200)), "bucket"),
    "ties": (lambda rng: rng.integers(1, 40, 300).astype(float), "bucket"),
}


@pytest.mark.parametrize("layout", sorted(_ROW_LAYOUTS))
def test_each_row_sort_equals_numpys_stable_argsort(layout):
    # one layout per branch of row_sups' choice, each checked to take it:
    # few runs merge; spread distances are bucketed; a far outlier crowds
    # the rest into the last buckets, and an infinite distance leaves no
    # scale, so the bucket sort refuses both; all-equal rows are one run;
    # zero distances (points on atoms) and exact ties spread across many
    # runs must keep atom order through the buckets and insertion sort
    make, path = _ROW_LAYOUTS[layout]
    rng = np.random.default_rng(sorted(_ROW_LAYOUTS).index(layout))
    dist = make(rng)
    assert _sort_path(np.where(dist == _HUGE, math.inf, dist)) == path
    nu = sl.DiscreteMeasure(_axis_row(dist, 3, rng), rng.uniform(0.5, 1.0, len(dist)), 1e-3)
    _assert_rows_equal_oracles(nu, sl.RieszComponent(3, 2), np.zeros((1, 3)), rng)
    if layout in ("on_atoms", "ties"):
        _, counts = np.unique(dist, return_counts=True)
        assert counts.max() > 1  # ties inside the bucket path


def test_outlier_and_cluster_row_of_4096_atoms_equals_its_oracle():
    # the layout the bucket sort could make quadratic: 4095 atoms within
    # 1e-3 of distance 1 and one at 1e6, last, so every cluster distance
    # falls in one of the last buckets; the sort refuses the row at the
    # 33rd item of a bucket and merges it (a bounded cost; no timing here)
    rng = np.random.default_rng(4096)
    dist = np.append(rng.uniform(1.0, 1.001, 4095), 1e6)
    assert _sort_path(dist) == "refused"
    nu = sl.DiscreteMeasure(_axis_row(dist, 2, rng), rng.uniform(0.5, 1.0, len(dist)), 1e-3)
    _assert_rows_equal_oracles(nu, sl.RieszComponent(2, 0), np.zeros((3, 2)), rng)


@settings(max_examples=40, deadline=None)
@example(layout="uniform", dim=2, n=50, n_pts=1, on_atoms=False, seed=0)
@example(layout="grid", dim=3, n=400, n_pts=2, on_atoms=True, seed=1)
@given(
    layout=st.sampled_from(["uniform", "clusters", "grid"]),
    dim=st.sampled_from([2, 3]),
    n=st.integers(50, 400),
    n_pts=st.integers(1, 3),
    on_atoms=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_many_run_table_rows_equal_their_oracles(layout, dim, n, n_pts, on_atoms, seed):
    # rows long enough for more than 16 runs, so most take the bucket
    # sort: continuous uniform or clustered atoms (crowded clusters make
    # the sort refuse some rows), or a grid of exact ties; points off the
    # atoms or on them (zero distances)
    rng = np.random.default_rng(seed)
    if layout == "uniform":
        positions = rng.uniform(-1.0, 1.0, (n, dim))
    elif layout == "clusters":
        positions = rng.uniform(-1.0, 1.0, (4, dim))[rng.integers(0, 4, n)] + rng.normal(0.0, 0.01, (n, dim))
    else:
        positions = rng.integers(-3, 4, (n, dim)) * 0.25
    pts = positions[rng.integers(0, n, n_pts)] if on_atoms else rng.uniform(-1.5, 1.5, (n_pts, dim))
    nu = sl.DiscreteMeasure(positions, rng.uniform(0.0, 1.0, n), 1e-3)
    _assert_rows_equal_oracles(nu, _table_kernel("odd" if seed % 2 else "riesz", dim), pts, rng)


@pytest.mark.parametrize("kernel", [sl.RieszComponent(2, 0), sl.RieszComponent(4, 3)])
def test_kernel_of_another_dimension_raises_on_both_paths(kernel):
    # the compiled pass reads the kernel's exponents by the measure's dimension
    nu = sl.DiscreteMeasure(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5]]), np.ones(2), 0.1)
    pts = np.array([[0.5, 0.5, 0.5], [0.0, 1.0, 2.0]])
    table = sl.TruncationTable(nu, kernel, pts)
    calls = (lambda: table.maximal_values([None]), lambda: table.sups([None], None),
             lambda: truncated_batch(nu, kernel, None, pts, 0.1))
    for call in calls:
        with pytest.raises(ValueError):
            call()
    with pytest.raises(ValueError):
        sl.maximal(nu, kernel, None, pts[0])


def test_row_sups_and_pair_partials_out_of_memory_raise():
    # the row scratch of the sups (each caller of row_sups) and of the
    # pair engine; truncated_batch allocates none
    nu = sl.DiscreteMeasure(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), 0.1)
    no_memory = SimpleNamespace(row_sups=lambda *args: -1, pair_partials=lambda *args: -1, lanes=1)
    table = sl.TruncationTable(nu, sl.RieszComponent(2, 0), np.zeros((3, 2)))
    with mock.patch.object(operators, "_compiled", lambda: no_memory):
        for call in (lambda: table.maximal_values([None]), lambda: table.sups([None], None),
                     lambda: hl_maximal_batch(nu, None, np.zeros((3, 2)))):
            with pytest.raises(MemoryError, match="row_sups"):
                call()
        with pytest.raises(MemoryError, match="pair_partials"):
            pair_sum_schedule(nu.positions, nu.weights, nu.positions, nu.weights, sl.RieszComponent(2, 0), [0.5])


def test_truncated_batch_matches_scalar():
    rng = Rng(95)
    nu, g = random_config(rng, 120)
    k = sl.OddHomogeneous(2, (1, 2))
    pts = rng.points_in_box(30, [(-1, 1)] * 2)
    eps = rng.uniforms(30, 0.02, 1.5)
    # every third radius is exactly an atom distance: that atom is excluded
    for i in range(0, 30, 3):
        eps[i] = np.linalg.norm(pts[i] - nu.positions[i])
    vals = truncated_batch(nu, k, g, pts, eps)
    for i, x in enumerate(pts):
        assert vals[i] == pytest.approx(oracles.truncated(nu, k, g, x, eps[i]), rel=1e-13, abs=1e-300)
    scalar_eps = truncated_batch(nu, k, g, pts, 0.4)
    for i, x in enumerate(pts):
        assert scalar_eps[i] == pytest.approx(oracles.truncated(nu, k, g, x, 0.4), rel=1e-13, abs=1e-300)


def test_truncated_batch_strict_at_breakpoint():
    nu = two_atom_line()
    k = sl.RieszComponent(2, 0)
    vals = truncated_batch(nu, k, None, np.zeros((3, 2)), np.array([0.5, 1.0, 2.0]))
    assert vals.tolist() == [-1.5, -0.5, 0.0]
    with pytest.raises(ValueError):
        truncated_batch(nu, k, None, np.zeros((1, 2)), 0.0)


# ---------------------------------------------------------------------------
# Cantor atoms: zero distances and exact ties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", ["cantor_on_atoms", "random_3d"])
def test_hl_maximal_batch_equals_the_table_and_its_oracle(case):
    # hl_maximal_batch's sort with no densities gives the bits of the
    # table's M, sorted with T*, and of the oracle; on the Cantor atoms themselves (mu = nu) rows hold zero
    # distances and exact ties
    rng = Rng(97)
    if case == "cantor_on_atoms":
        nu = sl.cantor_four_corners(2)
        pts = nu.positions[:10]
        k = sl.RieszComponent(2, 0)
    else:
        nu, _ = random_config(rng, 16, dim=3)
        pts = np.vstack([rng.points_in_box(9, [(-1, 1)] * 3), nu.positions[4]])
        k = sl.OddHomogeneous(3, (1, 0, 2))
    g = rng.uniforms(nu.count, -1.0, 1.0)
    batch = hl_maximal_batch(nu, g, pts)
    _, sups = sl.TruncationTable(nu, k, pts).sups([g], g)
    for a, b, c in zip(batch, sups, oracles.hl_maximal_batch(nu, g, pts), strict=True):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    if case == "cantor_on_atoms":
        dist_desc = oracles.table_rows(nu, k, pts)[1]
        assert np.any(dist_desc == 0.0) and not oracles.group_ends(dist_desc).all()


def test_pair_sum_schedule_within_bound_on_cantor_atoms():
    # Cantor atoms against themselves and random points: the partials are
    # the oracle's, and each value is within its bound
    rng = Rng(99)
    nu = sl.cantor_four_corners(2)
    pos_a = np.vstack([nu.positions[:6], rng.points_in_box(4, [(-0.2, 1.2)] * 2)])
    w_a, w_b = rng.uniforms(10, -1.0, 1.0), nu.weights
    k = sl.RieszComponent(2, 1)
    schedule = [2.0, 0.5, 0.25, 0.0625]
    partials = operators._pair_partials(pos_a, w_a, nu.positions, w_b, k, np.array(schedule))
    reference = oracles.pair_partials(pos_a, w_a, nu.positions, w_b, k, np.array(schedule))
    for a, b in zip(partials, reference, strict=True):
        assert a.tobytes() == b.tobytes()
    diffs = (pos_a[:, None, :] - nu.positions[None, :, :]).reshape(-1, 2)
    dist = np.sqrt(np.sum(diffs * diffs, axis=1))
    terms = k.evaluate_many(np.where(dist[:, None] > 0, diffs, 1.0).T) * (w_a[:, None] * w_b[None, :]).reshape(-1)
    for eps, stats in zip(schedule, pair_sum_schedule(pos_a, w_a, nu.positions, w_b, k, schedule)):
        _, max_term, count = brute_pair_sum(pos_a, w_a, nu.positions, w_b, k, eps)
        assert (stats.max_abs_term, stats.pair_count) == (max_term, count)
        _assert_within_pair_sum_bound(stats.value, terms[dist > eps].tolist())


# the traced peak of the test below: 10,012 to 12,081 bytes measured (the per-bin
# outputs, the flat partials and the returned list), plus a 12.2 KiB margin,
# less than one 2048-float row
_COMPILED_PAIR_SUM_PEAK_BYTES = 24 * 1024


def _pair_sum_traced_peak():
    """The tracemalloc peak of DoubleIntegral's size: 2048 x 2048 pairs,
    16 eps."""
    graph = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    above = sl.slab_above_graph(graph, [(-1.0, 1.0)], 128, 0.4, 16, 0.0)
    below = sl.slab_above_graph(graph, [(-1.0, 1.0)], 128, 0.4, 16, -0.4)
    assert above.count == below.count == 2048
    schedule = [2.0**-j for j in range(16)]
    tracemalloc.start()
    try:
        pair_sum_schedule(above.positions, above.weights, below.positions, below.weights,
                          sl.RieszComponent(2, 1), schedule)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compiled_pair_sum_schedule_traced_peak_is_pinned():
    # the compiled pass holds no per-pair or per-row array
    operators._compiled()  # built and loaded before the trace
    assert _pair_sum_traced_peak() <= _COMPILED_PAIR_SUM_PEAK_BYTES

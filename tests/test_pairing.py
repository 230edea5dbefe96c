import math

import numpy as np
import pytest

import siolab as sl
from siolab.operators import cauchy_tail, pair_sum_stats
from siolab.pairing import CANCELLATION_FACTOR
from siolab.harness.rng import Rng


def four_corner_square():
    """Unit weights at the four points (+-1, +-1)."""
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return sl.DiscreteMeasure(pts, np.ones(4), resolution=0.01)


def random_setup(rng, n_atoms=300):
    mu = sl.DiscreteMeasure(
        rng.points_in_box(n_atoms, [(-1, 1), (-1, 1)]),
        rng.uniforms(n_atoms, 0.0, 1.0),
        resolution=1e-5,
    )
    return mu, sl.RieszComponent(2, 0)


def pairing_oracle(mu, kernel, f, g, eps):
    """Direct double sum over atoms, bypassing the bilinear expansion."""
    fv = f.evaluate_many(mu.positions)
    gv = g.evaluate_many(mu.positions)
    total = 0.0
    for a in range(mu.count):
        diffs = mu.positions[a] - mu.positions
        dist = np.linalg.norm(diffs, axis=1)
        mask = dist > eps
        if not np.any(mask):
            continue
        inner = np.sum(
            kernel.evaluate_many(diffs[mask].T) * fv[mask] * mu.weights[mask]
        )
        total += gv[a] * mu.weights[a] * inner
    return total


# ---------------------------------------------------------------------------
# SimpleFunction
# ---------------------------------------------------------------------------


def test_simple_function_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        sl.SimpleFunction(
            [
                (1.0, sl.Ball((0.0, 0.0), 1.0)),
                (1.0, sl.Rectangle((0.0, 0.0), (1.0, 1.0))),
            ]
        )


def test_simple_function_evaluates_closed_indicators():
    f = sl.SimpleFunction([(2.0, sl.Ball((0.0, 0.0), 1.0)), (-0.5, sl.Ball((1.0, 0.0), 1.0))])
    assert f.evaluate_many([-0.5, 0.0])[0] == 2.0
    assert f.evaluate_many([1.0, 0.0])[0] == 1.5  # boundary of the first counts (closed)
    assert f.evaluate_many([1.5, 0.0])[0] == -0.5
    assert f.evaluate_many([5.0, 5.0])[0] == 0.0


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_full_overlap_cancels():
    mu, k = random_setup(Rng(1))
    full = sl.SimpleFunction([(1.0, sl.Ball((0.0, 0.0), 5.0))])
    for eps in (0.5, 0.1, 0.02):
        val = sl.pairing(mu, k, full, full, eps)
        assert abs(val) <= mu.count**2 * CANCELLATION_FACTOR * 10.0


def test_pairing_separated_supports_eps_independent():
    mu = sl.DiscreteMeasure(
        np.array([[0.0, 0.0], [0.2, 0.0], [6.0, 0.0], [6.2, 0.0]]),
        np.ones(4),
        resolution=0.01,
    )
    k = sl.RieszComponent(2, 0)
    f = sl.SimpleFunction([(1.0, sl.Ball((0.1, 0.0), 1.0))])
    g = sl.SimpleFunction([(1.0, sl.Ball((6.1, 0.0), 1.0))])
    vals = {sl.pairing(mu, k, f, g, eps) for eps in (0.3, 1.0, 3.0)}
    assert len(vals) == 1


def test_pairing_four_atom_hand_value():
    mu = four_corner_square()
    k = sl.RieszComponent(2, 0)
    f = sl.SimpleFunction([(1.0, sl.Rectangle((-1.0, 0.0), (0.5, 1.5)))])  # left pair
    g = sl.SimpleFunction([(1.0, sl.Rectangle((1.0, 0.0), (0.5, 1.5)))])  # right pair
    # cross pairs: K(2,0) + K(2,2) + K(2,-2) + K(2,0) = .5 + .25 + .25 + .5
    val = sl.pairing(mu, k, f, g, 0.5)
    assert val == pytest.approx(1.5, rel=1e-15)
    assert val == pytest.approx(pairing_oracle(mu, k, f, g, 0.5), rel=1e-15)


def test_pairing_matches_direct_double_sum():
    rng = Rng(7)
    mu, k = random_setup(rng, 150)
    f = sl.SimpleFunction(
        [(0.7, sl.Ball((0.2, 0.1), 0.8)), (-1.2, sl.Ball((-0.4, -0.2), 0.5))]
    )
    g = sl.SimpleFunction(
        [(0.3, sl.Ball((0.0, 0.4), 0.9)), (0.9, sl.Ball((0.5, -0.5), 0.6))]
    )
    for eps in (0.4, 0.1):
        assert sl.pairing(mu, k, f, g, eps) == pytest.approx(
            pairing_oracle(mu, k, f, g, eps), rel=1e-11, abs=1e-14
        )


def test_pairing_bilinearity():
    rng = Rng(11)
    mu, k = random_setup(rng, 200)
    f1 = sl.SimpleFunction([(1.0, sl.Ball((0.1, 0.0), 0.7))])
    f2 = sl.SimpleFunction([(1.0, sl.Ball((-0.3, 0.2), 0.5))])
    g = sl.SimpleFunction([(1.0, sl.Ball((0.0, -0.2), 0.8))])
    a, b = 0.6, -2.3
    combined = sl.SimpleFunction(
        [(a, f1.terms[0][1]), (b, f2.terms[0][1])]
    )
    eps = 0.15
    lhs = sl.pairing(mu, k, combined, g, eps)
    rhs = a * sl.pairing(mu, k, f1, g, eps) + b * sl.pairing(mu, k, f2, g, eps)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-16)


def test_pairing_antisymmetric_in_f_g():
    rng = Rng(13)
    mu, k = random_setup(rng, 180)
    f = sl.SimpleFunction([(1.0, sl.Ball((0.2, 0.2), 0.7))])
    g = sl.SimpleFunction([(1.0, sl.Ball((-0.1, -0.3), 0.9))])
    eps = 0.1
    fwd = sl.pairing(mu, k, f, g, eps)
    back = sl.pairing(mu, k, g, f, eps)
    scale = max(abs(fwd), abs(back), 1e-300)
    assert abs(fwd + back) / scale < 1e-11


# ---------------------------------------------------------------------------
# overlap decomposition
# ---------------------------------------------------------------------------


def test_i_decomposition_identical_shapes():
    mu, k = random_setup(Rng(17))
    ball = sl.Ball((0.0, 0.0), 0.8)
    d = sl.i_decomposition(mu, k, ball, ball, 0.1)
    assert d.i2 == 0.0 and d.i3 == 0.0 and d.i4 == 0.0
    assert abs(d.i1) <= mu.count**2 * CANCELLATION_FACTOR * d.max_abs_term


def test_i_decomposition_disjoint_shapes():
    mu, k = random_setup(Rng(19))
    p = sl.Ball((-0.5, 0.0), 0.3)
    q = sl.Ball((0.5, 0.0), 0.3)
    d = sl.i_decomposition(mu, k, p, q, 0.05)
    assert d.i1 == 0.0 and d.i2 == 0.0 and d.i3 == 0.0
    assert d.i4 != 0.0


def test_i_decomposition_completeness():
    rng = Rng(23)
    mu, k = random_setup(rng, 400)
    p = sl.Ball((0.1, 0.1), 0.7)
    q = sl.Ball((-0.2, 0.0), 0.6)
    for eps in (0.3, 0.08):
        d = sl.i_decomposition(mu, k, p, q, eps)
        part_p, part_q = (mu.restrict_mask(s.contains_many(mu.positions)) for s in (p, q))
        direct = pair_sum_stats(part_p.positions, part_p.weights, part_q.positions, part_q.weights, k, eps).value
        bound = max(d.pair_count, 1) * 2.0**-46 * max(d.max_abs_term, 1e-300)
        assert abs(d.total - direct) <= bound


def test_fubini_residuals():
    rng = Rng(29)
    mu, k = random_setup(rng, 350)
    cases = [
        (sl.Ball((0.0, 0.0), 0.8), sl.Ball((0.0, 0.0), 0.8)),
        (sl.Ball((-0.5, 0.0), 0.3), sl.Ball((0.5, 0.0), 0.3)),
        (sl.Ball((0.1, 0.1), 0.7), sl.Ball((-0.2, 0.0), 0.6)),
    ]
    for p, q in cases:
        for eps in (0.25, 0.06):
            res = sl.fubini_check(mu, k, p, q, eps)
            assert res <= mu.count**2 * CANCELLATION_FACTOR * 10.0


def test_region_routing_equivalence():
    # summing x over the complement regions of Q must equal the direct
    # P-minus-Q sum: same atoms, different grouping
    rng = Rng(31)
    mu, k = random_setup(rng, 500)
    p = sl.Ball((0.15, 0.0), 0.8)
    q = sl.Ball((-0.25, 0.1), 0.55)
    eps = 0.1
    in_p = p.contains_many(mu.positions)
    in_q = q.contains_many(mu.positions)
    p_only = in_p & ~in_q
    both = in_p & in_q
    from siolab.operators import pair_sum_stats

    direct = pair_sum_stats(
        mu.positions[p_only], mu.weights[p_only],
        mu.positions[both], mu.weights[both], k, eps,
    )
    dec = sl.decompose_complement(q)
    region = dec.assign(mu.positions)
    routed_parts = []
    for r in range(len(dec.graphs)):
        m = p_only & (region == r)
        routed_parts.append(
            pair_sum_stats(
                mu.positions[m], mu.weights[m],
                mu.positions[both], mu.weights[both], k, eps,
            ).value
        )
    routed = math.fsum(routed_parts)
    bound = max(direct.pair_count, 1) * 2.0**-46 * max(direct.max_abs_term, 1e-300)
    assert abs(routed - direct.value) <= bound
    # the regions cover P \ Q without overlap
    assert np.all(region[p_only] >= 0)


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def geometric(eps0, n, ratio=0.5):
    return [eps0 * ratio**k for k in range(n)]


def test_convergence_study_separated_supports():
    mu = sl.DiscreteMeasure(
        np.array([[0.0, 0.0], [0.2, 0.0], [6.0, 0.0], [6.2, 0.0]]),
        np.ones(4),
        resolution=1e-4,
    )
    k = sl.RieszComponent(2, 0)
    f = sl.SimpleFunction([(1.0, sl.Ball((0.1, 0.0), 1.0))])
    g = sl.SimpleFunction([(1.0, sl.Ball((6.1, 0.0), 1.0))])
    trace = sl.convergence_study(mu, k, f, g, geometric(1.0, 8))
    assert len(set(trace.values)) == 1
    assert cauchy_tail(trace.values) == 0.0


def test_convergence_study_identical_functions_vanishes():
    mu, k = random_setup(Rng(37), 120)
    f = sl.SimpleFunction([(1.0, sl.Ball((0.0, 0.0), 3.0))])
    trace = sl.convergence_study(mu, k, f, f, geometric(1.0, 8))
    assert all(abs(v) <= trace.cancellation_noise for v in trace.values)


def test_convergence_study_totals_match_pairing():
    mu, k = random_setup(Rng(41), 250)
    f = sl.SimpleFunction([(0.8, sl.Ball((0.2, 0.1), 0.7))])
    g = sl.SimpleFunction([(-1.1, sl.Ball((-0.1, -0.2), 0.8))])
    schedule = geometric(0.8, 8)
    trace = sl.convergence_study(mu, k, f, g, schedule)
    for eps, val in zip(trace.eps_schedule, trace.values):
        assert val == pytest.approx(sl.pairing(mu, k, f, g, eps), rel=1e-10, abs=1e-14)
    # the diagonal block column is pure cancellation noise in every row
    assert all(abs(r.i1) <= trace.cancellation_noise for r in trace.rows)


def test_convergence_study_graph_measure_cauchy():
    # the tail is dominated by the shape-interface band at the schedule
    # floor, so it scales with eps_min = 4h and shrinks under refinement
    graph = sl.LipschitzGraph(2, sl.SmoothBump(0.3, 0.6))
    k = sl.RieszComponent(2, 0)
    tails = []
    for m in (2**8, 2**10):
        sigma = sl.graph_measure(graph, [(-1.0, 1.0)], m)
        f = sl.SimpleFunction([(1.0, sl.Ball((0.3, 0.1), 0.6))])
        g = sl.SimpleFunction([(1.0, sl.Ball((-0.2, 0.0), 0.7))])
        eps0 = sigma.bounding_diameter() / 4.0
        n_steps = max(8, int(math.floor(math.log2(eps0 / (4 * sigma.resolution)))) + 1)
        ratio = (4 * sigma.resolution / eps0) ** (1.0 / (n_steps - 1))
        trace = sl.convergence_study(mu=sigma, kernel=k, f=f, g=g,
                                     eps_schedule=[eps0 * ratio**j for j in range(n_steps)])
        scale = max(abs(v) for v in trace.values)
        tails.append(cauchy_tail(trace.values) / max(scale, 1e-300))
    assert tails[1] < tails[0]
    assert tails[1] < 1e-2  # measured 7.0e-3 at m = 2^10


def test_convergence_study_schedule_validation():
    mu, k = random_setup(Rng(43), 50)
    f = sl.SimpleFunction([(1.0, sl.Ball((0.0, 0.0), 1.0))])
    with pytest.raises(ValueError):
        sl.convergence_study(mu, k, f, f, geometric(1.0, 5))  # too short
    with pytest.raises(ValueError):
        sl.convergence_study(mu, k, f, f, [1.0, 0.5, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01])
    tiny = geometric(1e-5, 8)
    with pytest.raises(ValueError):
        sl.convergence_study(mu, k, f, f, tiny)  # below the resolution floor
    with pytest.raises(ValueError):
        sl.convergence_study(mu, k, f, f, [1.0, 0.5, 0.0, -0.5, -1.0, -2.0, -4.0, -8.0])
    with pytest.raises(ValueError):
        sl.convergence_study(mu, k, f, f, geometric(1.0, 8)[::-1])  # increasing

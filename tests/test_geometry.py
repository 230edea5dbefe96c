import math

import numpy as np
import pytest

import siolab as sl
from siolab.geometry import ON_TOLERANCE
from siolab.harness.rng import Rng

from oracles import lipschitz_estimate


def flat_graph(n=2):
    return sl.LipschitzGraph(n, sl.Affine((0.0,) * (n - 1)))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_flat_above():
    assert flat_graph().classify_many([0.0, 1.0])[0] == 1


def test_classify_cone_profile_below():
    g = sl.LipschitzGraph(2, sl.ConeProfile(1.0))
    # f(1) = 1 > 0.5
    assert g.classify_many([1.0, 0.5])[0] == -1


def test_classify_on_graph():
    assert flat_graph().classify_many([3.0, 0.0])[0] == 0


def test_classify_on_tolerance_scales_with_point():
    g = flat_graph()
    # within the relative band at large |p|
    assert g.classify_many([1e6, 1e-7])[0] == 0
    assert g.classify_many([0.0, 1e-7])[0] == 1


def test_classify_rotation_invariance():
    rng = Rng(31)
    base = sl.LipschitzGraph(2, sl.Sawtooth(0.4, 0.7))
    pts = rng.points_in_box(500, [(-3, 3), (-3, 3)])
    labels = base.classify_many(pts)
    for trial in range(5):
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        moved = sl.LipschitzGraph(2, sl.Sawtooth(0.4, 0.7), rotation=rot)
        assert np.array_equal(moved.classify_many(pts @ rot.T), labels)


def test_rotation_must_be_orthogonal():
    with pytest.raises(ValueError):
        sl.LipschitzGraph(2, sl.Affine((0.0,)), rotation=np.array([[1.0, 0.1], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# lipschitz constants
# ---------------------------------------------------------------------------


def test_lip_declared_exact_values():
    assert sl.LipschitzGraph(2, sl.Affine((0.5,))).lip_declared == 0.5
    assert sl.LipschitzGraph(3, sl.Affine((3.0, 4.0))).lip_declared == 5.0
    assert sl.LipschitzGraph(2, sl.ConeProfile(1.0)).lip_declared == 1.0
    saw = sl.LipschitzGraph(3, sl.Sawtooth(0.3, 0.5))
    assert saw.lip_declared == pytest.approx(0.6 * math.sqrt(2.0))
    bump = sl.LipschitzGraph(2, sl.SmoothBump(0.5, 0.35))
    assert bump.lip_declared == pytest.approx(0.5 / (0.35 * math.sqrt(math.e)))


@pytest.mark.parametrize(
    "profile,expected",
    [
        (sl.Affine((0.5,)), 0.5),
        (sl.ConeProfile(1.0), 1.0),
        (sl.Affine((0.0,)), 0.0),
    ],
)
def test_lipschitz_estimate_matches_declared(profile, expected):
    g = sl.LipschitzGraph(2, profile)
    est = lipschitz_estimate(g, 20_000, [(-2.0, 2.0)], Rng(5))
    assert est <= g.lip_declared * (1 + 1e-9)
    assert est == pytest.approx(expected, abs=1e-3)


def test_lipschitz_estimate_all_profiles_bounded_by_declared():
    rng = Rng(8)
    profiles = [
        sl.Sawtooth(0.7, 0.3),
        sl.SmoothBump(1.2, 0.4),
        sl.ConeProfile(1.7),
        sl.BallCap(1.0, (0.0,)),
    ]
    for prof in profiles:
        g = sl.LipschitzGraph(2, prof)
        est = lipschitz_estimate(g, 50_000, [(-2.0, 2.0)], rng)
        assert est <= g.lip_declared * (1 + 1e-9)


def test_lipschitz_estimate_rejects_tiny_sample():
    with pytest.raises(ValueError):
        lipschitz_estimate(flat_graph(), 1, [(-1.0, 1.0)], Rng(1))


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def test_cone_membership_examples():
    g = flat_graph()
    cone = sl.Cone(g, (0.0,), 1.0 + 1e-9)
    # 1 > 4L * 0.1 = 0.4
    assert cone.contains_many([0.1, 1.0])[0]
    # 2 > 4L * 1 = 4 is false
    assert not cone.contains_many([1.0, 2.0])[0]
    # apex itself: strict inequality fails
    assert not cone.contains_many(g.points_on_graph(cone.apex_u))[0]


def test_cone_requires_large_aperture():
    g = sl.LipschitzGraph(2, sl.ConeProfile(1.5))
    with pytest.raises(ValueError):
        sl.Cone(g, (0.0,), 1.2)  # below Lip(f)
    with pytest.raises(ValueError):
        sl.Cone(flat_graph(), (0.0,), 1.0)  # L must exceed 1 strictly


def test_cone_separation_inequality_sampled():
    from siolab.harness.scenarios import sample_cone_separation

    rng = Rng(77)
    for profile in [sl.Affine((0.3,)), sl.Sawtooth(0.4, 0.5), sl.ConeProfile(0.8), sl.SmoothBump(0.6, 0.5)]:
        g = sl.LipschitzGraph(2, profile)
        aperture = 1.5 * max(1.0, g.lip_declared)
        slack = sample_cone_separation(g, aperture, [(-1.5, 1.5)], 10_000, rng)
        assert np.min(slack) >= -1e-12


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        sl.Ball((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        sl.Rectangle((0.0, 0.0), (1.0, 0.0))


def test_closed_membership():
    ball = sl.Ball((0.0, 0.0), 1.0)
    assert ball.contains_many([1.0, 0.0])[0]  # boundary belongs
    rect = sl.Rectangle((0.0, 0.0), (1.0, 2.0))
    assert rect.contains_many([1.0, 2.0])[0]
    assert not rect.contains_many([1.0 + 1e-12, 0.0])[0]


def test_rotated_rectangle_membership():
    theta = math.pi / 4
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rect = sl.Rectangle((0.0, 0.0), (1.0, 0.1), rotation=rot)
    inside = np.array([0.5, 0.5]) * math.sqrt(2.0) * 0.9
    assert rect.contains_many(inside)[0]
    assert not rect.contains_many([0.5, -0.5])[0]


# ---------------------------------------------------------------------------
# complement decomposition
# ---------------------------------------------------------------------------


def test_square_decomposition_top_region():
    square = sl.Rectangle((0.0, 0.0), (0.5, 0.5))
    dec = sl.decompose_complement(square)
    assert len(dec.graphs) == 4
    idx = dec.assign([0.0, 10.0])[0]
    graph = dec.graphs[idx]
    assert np.allclose(graph.rotation[:, -1], [0.0, 1.0])
    # the separating graph is the horizontal line y = 1/2
    assert isinstance(graph.profile, sl.Affine)
    assert graph.profile.offset == 0.5
    assert graph.lip_declared == 0.0


def test_ball_decomposition_assigns_far_point():
    ball = sl.Ball((0.0, 0.0), 1.0)
    dec = sl.decompose_complement(ball)
    point = np.array([0.0, 10.0])
    idx = dec.assign(point)[0]
    graph = dec.graphs[idx]
    # every separating graph of a ball is a cap-cone; the assigned one
    # must hold the point strictly above it
    assert isinstance(graph.profile, sl.BallCap)
    assert graph.signed_height(point)[0] > 0
    # the upward region's graph is the unit-slope cap-cone of the plane
    top = next(g for g in dec.graphs if np.allclose(g.rotation[:, -1], [0.0, 1.0]))
    assert top.lip_declared == 1.0
    assert top.signed_height(point)[0] > 0


def test_interior_point_reports_inside():
    ball = sl.Ball((0.0, 0.0), 1.0)
    dec = sl.decompose_complement(ball)
    assert dec.assign([0.1, -0.2])[0] == -1


def _check_decomposition(shape, rng, n_samples=100_000):
    """Sampling oracle: every exterior point in exactly one region, the
    shape below-or-on every graph, every region above its own graph."""
    dec = sl.decompose_complement(shape)
    box = shape.bounding_box()
    span = max(hi - lo for lo, hi in box)
    wide = [(lo - 1.5 * span, hi + 1.5 * span) for lo, hi in box]
    pts = rng.points_in_box(n_samples, wide)
    exterior = pts[~shape.contains_many(pts)]
    tol = ON_TOLERANCE * (1.0 + np.linalg.norm(exterior, axis=1))
    heights = np.stack([g.signed_height(exterior) for g in dec.graphs])
    strictly_above = heights > tol
    # no gaps: every exterior sample is strictly above some graph
    assert np.all(np.any(strictly_above, axis=0))
    # first-match assignment is a partition
    idx = dec.assign(exterior)
    assert np.all(idx >= 0)
    # assigned region is above its own graph
    assert np.all(np.take_along_axis(strictly_above, idx[None, :], axis=0)[0])
    # shape samples are below-or-on every graph
    inner = pts[shape.contains_many(pts)]
    if len(inner):
        tol_in = ON_TOLERANCE * (1.0 + np.linalg.norm(inner, axis=1))
        for graph in dec.graphs:
            assert np.all(graph.signed_height(inner) <= tol_in)


def test_ball_decomposition_sampling_oracle():
    _check_decomposition(sl.Ball((0.2, -0.1), 1.3), Rng(11))


def test_ball_decomposition_sampling_oracle_3d():
    _check_decomposition(sl.Ball((0.1, 0.0, -0.3), 0.9), Rng(12), n_samples=60_000)


def test_rectangle_decomposition_sampling_oracle():
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    _check_decomposition(sl.Rectangle((0.4, 0.2), (0.8, 0.3), rotation=rot), Rng(13))


def test_just_outside_shell_is_covered():
    # the thinnest margin: points barely outside the sphere, including
    # diagonal directions where the cap-cone coverage is tightest
    rng = Rng(14)
    for n in (2, 3, 4):
        ball = sl.Ball((0.0,) * n, 1.0)
        dec = sl.decompose_complement(ball)
        dirs = rng.unit_vectors(20_000, n)
        diag = np.ones((1, n)) / math.sqrt(n)
        dirs = np.vstack([dirs, diag, -diag])
        pts = dirs * (1.0 + 1e-9)
        assert np.all(dec.assign(pts) >= 0)

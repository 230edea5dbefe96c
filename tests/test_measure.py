import math

import numpy as np
import pytest

import siolab as sl
from siolab.harness.rng import Rng


def flat_graph():
    return sl.LipschitzGraph(2, sl.Affine((0.0,)))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_cantor_generation_one():
    mu = sl.cantor_four_corners(1)
    expected = {(0.125, 0.125), (0.875, 0.125), (0.125, 0.875), (0.875, 0.875)}
    got = {tuple(p) for p in mu.positions}
    assert got == expected
    assert np.all(mu.weights == 0.25)


def test_cantor_mass_and_cap():
    mu = sl.cantor_four_corners(4)
    assert mu.count == 256
    assert mu.total_mass == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sl.cantor_four_corners(11)


def test_cantor_restrict_to_quadrant():
    mu = sl.cantor_four_corners(2)
    quadrant = sl.Rectangle((0.125, 0.125), (0.125, 0.125))
    sub = sl.restrict(mu, quadrant)
    # one of the four level-1 squares holds 4 of the 16 atoms
    assert sub.count == 4


def test_flat_graph_measure():
    mu = sl.graph_measure(flat_graph(), [(0.0, 1.0)], 4)
    assert mu.count == 4
    assert np.allclose(mu.weights, 0.25)
    assert np.allclose(mu.positions[:, 1], 0.0)
    assert np.allclose(sorted(mu.positions[:, 0]), [0.125, 0.375, 0.625, 0.875])


def test_sloped_graph_measure_weights():
    g = sl.LipschitzGraph(2, sl.Affine((1.0,)))
    mu = sl.graph_measure(g, [(0.0, 1.0)], 4)
    # surface element sqrt(2): total mass equals the segment length
    assert np.allclose(mu.weights, 0.25 * math.sqrt(2.0))
    assert mu.total_mass == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_affine_mass_exact_for_any_resolution():
    g = sl.LipschitzGraph(3, sl.Affine((0.75, -0.5)))
    area = math.sqrt(1.0 + 0.75**2 + 0.5**2)  # over the unit box
    for m in (2, 5, 16):
        mu = sl.graph_measure(g, [(0.0, 1.0), (0.0, 1.0)], m)
        assert mu.total_mass == pytest.approx(area, rel=1e-9)


def test_bump_graph_mass_converges_to_quadrature():
    from scipy.integrate import quad

    prof = sl.SmoothBump(0.5, 0.35)
    g = sl.LipschitzGraph(2, prof)

    def surface_element(u):
        du = -0.5 * u / 0.35**2 * math.exp(-(u * u) / (2 * 0.35**2))
        return math.sqrt(1.0 + du * du)

    exact, _ = quad(surface_element, -1.0, 1.0, epsabs=1e-12)
    errors = []
    for m in (64, 256, 1024):
        mu = sl.graph_measure(g, [(-1.0, 1.0)], m)
        errors.append(abs(mu.total_mass - exact))
    assert errors[-1] < 1e-6
    assert errors[2] < errors[0]


def test_graph_measure_rotated_frame():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = sl.LipschitzGraph(2, sl.Affine((0.0,)), rotation=rot)
    mu = sl.graph_measure(g, [(0.0, 1.0)], 4)
    # the flat patch now lies along the rotated horizontal axis
    assert np.allclose(mu.positions @ rot[:, 1], 0.0, atol=1e-15)


def test_uniform_on_shape_total_mass():
    mu = sl.uniform_on_shape(sl.Ball((0.0, 0.0), 1.0), 32)
    assert mu.total_mass == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.linalg.norm(mu.positions, axis=1) <= 1.0)


def test_slab_above_graph_strictly_above():
    g = flat_graph()
    mu = sl.slab_above_graph(g, [(-1.0, 1.0)], 32, thickness=0.5, levels=8)
    assert mu.count == 32 * 8
    side = g.classify_many(mu.positions)
    assert np.all(side == 1)
    # density 1/thickness: projected mass equals the box length
    assert mu.total_mass == pytest.approx(2.0, rel=1e-12)


def test_slab_shift_mirrors_heights():
    g = flat_graph()
    up = sl.slab_above_graph(g, [(-1.0, 1.0)], 8, 0.5, levels=4)
    down = sl.slab_above_graph(g, [(-1.0, 1.0)], 8, 0.5, levels=4, vertical_shift=-0.5)
    assert np.all(g.classify_many(down.positions) == -1)
    assert sorted(np.unique(down.positions[:, 1])) == sorted(-np.unique(up.positions[:, 1]))


def test_atom_count_guard():
    with pytest.raises(ValueError):
        sl.uniform_on_shape(sl.Ball((0.0, 0.0, 0.0), 1.0), 10_000)


def test_build_dispatch():
    spec = sl.GraphMeasureSpec(flat_graph(), [(0.0, 1.0)], 4)
    mu = sl.build(spec)
    assert mu.count == 4
    assert sl.build(sl.CantorFourCornersSpec(2)).count == 16


# ---------------------------------------------------------------------------
# growth and lower density
# ---------------------------------------------------------------------------


def _segment_measure(n_atoms=1000):
    xs = (np.arange(n_atoms) + 0.5) / n_atoms
    positions = np.column_stack([xs, np.zeros(n_atoms)])
    return sl.DiscreteMeasure(positions, np.full(n_atoms, 1.0 / n_atoms), resolution=1.0 / n_atoms)


def _oracle_growth(mu, centers, radii, reduce=max):
    # independent direct evaluation, no sorting tricks
    out = None
    n = mu.ambient_dim
    for c in centers:
        d = np.linalg.norm(mu.positions - c, axis=1)
        for r in radii:
            val = mu.weights[d <= r].sum() / r ** (n - 1)
            out = val if out is None else reduce(out, val)
    return out


def test_growth_constant_segment():
    mu = _segment_measure()
    rng = Rng(3)
    centers = np.column_stack([rng.uniforms(100, 0.0, 1.0), np.zeros(100)])
    radii = np.exp(np.linspace(math.log(0.02), math.log(2.0), 50))
    est = sl.growth_constant(mu, centers, radii)
    # a radius-r interval captures mass about 2r
    assert est == pytest.approx(2.0, rel=0.05)
    assert est == pytest.approx(_oracle_growth(mu, centers[:20], radii[:10]), rel=0.2)


def test_growth_constant_single_atom():
    mu = sl.DiscreteMeasure(np.array([[0.0, 0.0]]), np.array([1.0]), resolution=1.0)
    est = sl.growth_constant(mu, np.array([[0.0, 0.0]]), np.array([1.0, 2.0]))
    assert est == 1.0


def test_growth_constant_matches_oracle_random():
    rng = Rng(17)
    positions = rng.points_in_box(200, [(-1, 1), (-1, 1)])
    weights = rng.uniforms(200, 0.0, 1.0)
    mu = sl.DiscreteMeasure(positions, weights, resolution=0.01)
    centers = rng.points_in_box(20, [(-1, 1), (-1, 1)])
    radii = np.exp(np.linspace(math.log(0.05), math.log(3.0), 15))
    assert sl.growth_constant(mu, centers, radii) == pytest.approx(
        _oracle_growth(mu, centers, radii), rel=1e-12
    )


def test_growth_constant_guards():
    mu = _segment_measure(100)
    with pytest.raises(ValueError):
        sl.growth_constant(mu, mu.positions[:1], np.array([]))
    with pytest.raises(ValueError):
        sl.growth_constant(mu, mu.positions[:1], np.array([1e-6]))


def test_growth_constant_rejects_nan_radius():
    mu = _segment_measure(100)
    with pytest.raises(ValueError):
        sl.growth_constant(mu, mu.positions[:1], np.array([0.5, math.nan]))


def test_cantor_growth_stable_across_generations():
    estimates = []
    rng = Rng(23)
    for gen in (3, 4, 5):
        mu = sl.cantor_four_corners(gen)
        idx = (rng.uniforms(100) * mu.count).astype(int)
        radii = np.exp(np.linspace(math.log(mu.resolution), math.log(2.0), 40))
        radii = np.maximum(radii, mu.resolution)
        estimates.append(sl.growth_constant(mu, mu.positions[idx], radii))
    for a, b in zip(estimates, estimates[1:]):
        assert max(a / b, b / a) <= 1.2
    assert estimates[-1] <= 3.0 * math.sqrt(2.0)


def test_lower_density_segment():
    mu = _segment_measure()
    radii = np.exp(np.linspace(math.log(0.02), math.log(0.9), 30))
    est = sl.lower_density(mu, mu.positions[::37], radii)
    # at least one side of every interval is full
    assert est == pytest.approx(1.0, rel=0.06)
    assert est == pytest.approx(
        _oracle_growth(mu, mu.positions[::37][:10], radii[:10], reduce=min), rel=0.1
    )


def test_lower_density_two_distant_atoms():
    mu = sl.DiscreteMeasure(
        np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([1.0, 1.0]), resolution=0.5
    )
    est = sl.lower_density(mu, mu.positions, np.array([5.0]))
    assert est == pytest.approx(1.0 / 5.0)


# ---------------------------------------------------------------------------
# split / restrict
# ---------------------------------------------------------------------------


def test_split_by_graph_three_parts():
    mu = sl.DiscreteMeasure(
        np.array([[0.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
        np.array([1.0, 2.0, 3.0]),
        resolution=0.1,
    )
    on, above, below = sl.split_by_graph(mu, flat_graph())
    assert on.count == above.count == below.count == 1
    assert on.weights[0] == 1.0 and above.weights[0] == 2.0 and below.weights[0] == 3.0


def test_split_by_graph_empty_parts():
    mu = sl.DiscreteMeasure(np.array([[0.0, 1.0], [1.0, 2.0]]), np.ones(2), resolution=0.1)
    on, above, below = sl.split_by_graph(mu, flat_graph())
    assert above.count == 2 and on.count == 0 and below.count == 0


def test_split_conserves_mass_exactly():
    rng = Rng(9)
    mu = sl.DiscreteMeasure(
        rng.points_in_box(500, [(-1, 1), (-1, 1)]), rng.uniforms(500), resolution=0.01
    )
    parts = sl.split_by_graph(mu, sl.LipschitzGraph(2, sl.Sawtooth(0.3, 0.4)))
    total = math.fsum(w for part in parts for w in part.weights.tolist())
    assert total == mu.total_mass  # weights copied, never recomputed


def test_restrict_identity_and_empty():
    mu = sl.cantor_four_corners(2)
    assert sl.restrict(mu, sl.Ball((0.5, 0.5), 10.0)).count == mu.count
    assert sl.restrict(mu, sl.Ball((50.0, 50.0), 0.1)).count == 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_hex_round_trip(tmp_path):
    rng = Rng(101)
    mu = sl.DiscreteMeasure(
        rng.points_in_box(57, [(-1, 1), (-1, 1), (0, 2)]),
        rng.uniforms(57),
        resolution=math.pi * 1e-3,
    )
    path = tmp_path / "measure.txt"
    sl.save_measure(mu, path)
    back = sl.load_measure(path)
    assert back.ambient_dim == 3
    assert back.resolution == mu.resolution  # bitwise
    assert np.array_equal(back.positions, mu.positions)
    assert np.array_equal(back.weights, mu.weights)


def test_serialization_header_format(tmp_path):
    mu = sl.cantor_four_corners(1)
    path = tmp_path / "m.txt"
    sl.save_measure(mu, path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("n=2 count=4 h=")
    assert float.fromhex(header.split("h=")[1]) == mu.resolution


@pytest.mark.parametrize(
    "text, problem",
    [
        pytest.param(
            "n=2 count=1 h=0x1p-4\n0x1p-1 0x0p+0 0x1p+0\n0x1p+0 0x0p+0 0x1p+0\n", "atom lines",
            id="extra-atom-line",
        ),
        pytest.param("n=2 count=2 h=0x1p-4\n0x1p-1 0x0p+0 0x1p+0\n", "atom lines", id="missing-atom-line"),
        pytest.param("n=2 count=-1 h=0x1p-4\n", "atom lines", id="negative-count"),
        pytest.param("count=0 h=0x1p-4\n", "header", id="no-n"),
        pytest.param("n=2 h=0x1p-4\n", "header", id="no-count"),
        pytest.param("n=2 count=0\n", "header", id="no-h"),
        pytest.param("", "header", id="empty-file"),
    ],
)
def test_load_measure_rejects_inconsistent_files(tmp_path, text, problem):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=problem):
        sl.load_measure(path)


def test_load_measure_reads_atoms_and_trailing_newline(tmp_path):
    path = tmp_path / "m.txt"
    for text in ("n=2 count=1 h=0x1p-4\n0x1p-1 0x0p+0 0x1p+0\n", "n=2 count=1 h=0x1p-4\n0x1p-1 0x0p+0 0x1p+0"):
        path.write_text(text)
        mu = sl.load_measure(path)
        assert mu.count == 1 and mu.resolution == 0.0625
        assert mu.positions.tolist() == [[0.5, 0.0]] and mu.weights.tolist() == [1.0]

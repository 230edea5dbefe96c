from types import SimpleNamespace

import numpy as np
import pytest

import siolab as sl
from siolab import kernel as kn
from siolab.harness.rng import Rng


def test_riesz_evaluate_examples():
    k = sl.RieszComponent(2, 0)
    assert k.evaluate_many([[1.0], [0.0]])[0] == 1.0
    assert k.evaluate_many([[0.0], [1.0]])[0] == 0.0
    assert k.evaluate_many([[1.0], [1.0]])[0] == 0.5


def test_evaluate_at_origin_rejected():
    k = sl.RieszComponent(2, 0)
    with pytest.raises(ValueError):
        k.evaluate_many([[0.0], [0.0]])
    with pytest.raises(ValueError):
        k.evaluate_many(np.array([[1.0, 0.0], [0.0, 0.0]]).T)


def _row_formula(k, x):
    """K at each row of x, with |x|^2 as np.sum over the row."""
    norm2 = np.sum(x * x, axis=1)
    if isinstance(k, sl.RieszComponent):
        return x[:, k.axis] / norm2 ** (k.ambient_dim / 2.0)
    num = np.ones(len(x))
    for i, p in enumerate(k.exponents):
        for _ in range(p):
            num = num * x[:, i]
    return num / norm2 ** ((k.ambient_dim - 1 + k.degree) / 2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_columns_equal_row_formula_bitwise(n):
    # numpy adds rows of fewer than 8 entries in order, which is the
    # kernels' coordinate loop
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3000, n)) * np.exp(rng.uniform(-20.0, 20.0, (3000, 1)))
    x[:5] = np.eye(n)[np.arange(5) % n]  # on the axes
    for k in (sl.RieszComponent(n, n - 1), sl.OddHomogeneous(n, (1,) + (0,) * (n - 2) + (2,))):
        assert np.array_equal(k.evaluate_many(x.T), _row_formula(k, x))
        with pytest.raises(ValueError, match="origin"):
            k.evaluate_many(np.column_stack([x[0], np.zeros(n)]))
    with pytest.raises(ValueError, match="coordinate columns"):
        k.evaluate_many(x)  # rows, not columns


def test_odd_homogeneous_requires_odd_degree():
    with pytest.raises(ValueError):
        sl.OddHomogeneous(2, (2, 0))
    k = sl.OddHomogeneous(2, (3, 0))
    assert k.degree == 3
    # x1^3 / |x|^4 at (1, 1): 1 / 4
    assert k.evaluate_many([[1.0], [1.0]])[0] == pytest.approx(0.25)


def test_oddness_is_bitwise():
    rng = Rng(4)
    x = rng.points_in_box(2000, [(-3, 3)] * 3)
    for k in (sl.RieszComponent(3, 1), sl.OddHomogeneous(3, (1, 1, 1))):
        assert np.array_equal(k.evaluate_many(-x.T), -k.evaluate_many(x.T))


def test_homogeneity():
    rng = Rng(6)
    for k in (sl.RieszComponent(2, 0), sl.OddHomogeneous(2, (1, 2))):
        n = k.ambient_dim
        x = rng.points_in_box(500, [(-2, 2)] * n)
        x = x[np.linalg.norm(x, axis=1) > 1e-3]
        for lam in (0.25, 3.0, 17.5):
            expected = lam ** -(n - 1) * k.evaluate_many(x.T)
            got = k.evaluate_many((lam * x).T)
            assert np.max(np.abs(got - expected) / np.abs(expected).clip(1e-300)) < 1e-12


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


def test_antisymmetry_residual_zero_for_catalog():
    assert kn.antisymmetry_residual(sl.RieszComponent(2, 0), 1000, Rng(1)) == 0.0


class _Corrupted:
    """Riesz component with a constant added; breaks antisymmetry."""

    ambient_dim = 2
    c0_declared = 1.0
    c1_declared = 1.0

    def evaluate_many(self, cols):
        return sl.RieszComponent(2, 0).evaluate_many(cols) + 1.0


def test_antisymmetry_residual_detects_corruption():
    assert kn.antisymmetry_residual(_Corrupted(), 500, Rng(2)) == pytest.approx(2.0)


def test_antisymmetry_rejects_empty_sample():
    with pytest.raises(ValueError):
        kn.antisymmetry_residual(sl.RieszComponent(2, 0), 0, Rng(3))


def test_riesz_size_sup_is_one():
    k = sl.RieszComponent(2, 0)
    sup = kn.size_bound_sup(k, 2000, Rng(5))
    assert sup == 1.0  # attained exactly on the axis
    assert sup <= k.c0_declared * (1 + 1e-9)


def test_cubed_coordinate_size_sup():
    k = sl.OddHomogeneous(3, (3, 0, 0))
    assert k.c0_declared == 1.0
    sup = kn.size_bound_sup(k, 5000, Rng(7))
    assert sup == pytest.approx(1.0, abs=1e-9)


def test_size_validation_fails_for_understated_constant():
    k = sl.RieszComponent(2, 0, 0.5, 1.0)  # corrupted declaration c0 = 0.5
    result = kn.validate(k, Rng(8), 2000)
    assert not result.size_ok
    assert result.antisymmetry_ok


def test_riesz_gradient_plane():
    # |grad K| = |x|^-2 exactly in the plane; FD should match to 1e-5
    k = sl.RieszComponent(2, 0)
    rng = Rng(9)
    x = kn._shell_samples(k, rng, 1000)
    grad = kn.gradient_fd(k, x)
    r = np.linalg.norm(x, axis=1)
    rel = np.abs(np.linalg.norm(grad, axis=1) * r**2 - 1.0)
    assert np.max(rel) < 1e-5


def test_riesz_gradient_sup_dimension_constant():
    # exact sup is n - 1; a declared constant of n + 1 dominates
    k = sl.RieszComponent(3, 0, c1_declared=4.0)
    sup = kn.gradient_bound_sup(k, 3000, Rng(10))
    assert sup <= 2.0 * (1 + 1e-4)
    assert sup == pytest.approx(2.0, rel=1e-3)
    assert kn.validate(k, Rng(11), 2000).gradient_ok


def test_gradient_sup_zero_kernel():
    zero = SimpleNamespace(
        ambient_dim=2,
        c0_declared=1.0,
        c1_declared=1.0,
        evaluate_many=lambda cols: np.zeros(np.shape(cols)[1]),
    )
    assert kn.gradient_bound_sup(zero, 100, Rng(12)) == 0.0


def test_validate_catalog_kernels_pass():
    rng = Rng(13)
    for k in (
        sl.RieszComponent(2, 0),
        sl.RieszComponent(3, 2),
        sl.OddHomogeneous(2, (3, 0)),
        sl.OddHomogeneous(3, (1, 1, 1)),
    ):
        result = kn.validate(k, rng, 2000)
        assert result.ok, (type(k).__name__, result)

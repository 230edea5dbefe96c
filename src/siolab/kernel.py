"""Odd C^1 convolution kernels with certified size and gradient constants.

The catalog is one family of homogeneous kernels of degree -(n-1),
``OddHomogeneous(n, exponents)``: K(x) = x^P / |x|^(n-1+d) for a
monomial exponent vector P of odd total degree d.  Each exposes its
(P, q) with K(x) = x^P / |x|^q as ``monomial``.  A Riesz component
``RieszComponent(n, axis)``, K(x) = x_i / |x|^n, is its degree-1 member
P = e_i, q = n, which declares the exact gradient constant.
``evaluate_many`` and the compiled loops of ``sups.c`` share one rule,
so they give the same bits: |x|^2 adds the squares one coordinate at a
time, the numerator multiplies its factors in coordinate order from 1.0,
and |x|^q is q // 2 factors |x|^2 from 1.0, times sqrt(|x|^2) when q is
odd (numpy's ``**`` may round differently with its SIMD dispatch).

Oddness is exact at the formula level: negating the argument negates
the numerator bit-for-bit while |x| is unchanged, so K(-x) == -K(x)
holds bitwise.  The size constant c0 (sup of |K(x)| |x|^(n-1)) is known
in closed form; the gradient constant c1 (sup of |grad K(x)| |x|^n) is
exact for Riesz components and a safe upper bound for general
monomials.  Declared constants can be overridden upward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _monomial_values(cols, n: int, exponents, q: int) -> np.ndarray:
    """x^P / |x|^q at each column of coordinate-major (n, M) differences,
    by the rule of the module docstring, as ``sups.c``'s ``cells`` takes
    it: |x|^2 as the squares added one coordinate at a time (for n < 8
    that is np.sum over a row, bit for bit), and the numerator and |x|^q
    as products from 1.0, each factor multiplied in from the left.  Writes
    into no argument; raises at the origin."""
    cols = np.asarray(cols, dtype=float)
    if cols.ndim != 2 or len(cols) != n:
        raise ValueError(f"expected ({n}, M) coordinate columns, got shape {cols.shape}")
    norm2 = cols[0] * cols[0]
    for k in range(1, n):
        norm2 = norm2 + cols[k] * cols[k]
    if np.any(norm2 == 0.0):
        raise ValueError("kernel evaluated at the origin")
    num = power = 1.0
    for i, p in enumerate(exponents):
        for _ in range(p):
            num = num * cols[i]
    for _ in range(q // 2):
        power = power * norm2
    if q % 2:
        power = power * np.sqrt(norm2)
    return num / power


@dataclass(eq=False)
class OddHomogeneous:
    """K(x) = x^P / |x|^(n-1+d) with P a monomial of odd total degree d."""

    ambient_dim: int
    exponents: tuple[int, ...]
    c0_declared: float | None = None
    c1_declared: float | None = None
    degree: int = field(init=False)

    def __post_init__(self):
        n = self.ambient_dim
        if n < 2:
            raise ValueError("ambient_dim must be >= 2")
        if len(self.exponents) != n or any(p < 0 for p in self.exponents):
            raise ValueError("exponents must be a nonnegative vector of length n")
        self.degree = int(sum(self.exponents))
        if self.degree % 2 == 0:
            raise ValueError("total degree must be odd (antisymmetry)")
        if self.c0_declared is None:
            # sup of |x^P| over the unit sphere: prod (p_i/d)^(p_i/2).
            d = self.degree
            val = 1.0
            for p in self.exponents:
                if p > 0:
                    val *= (p / d) ** (p / 2.0)
            self.c0_declared = val
        if self.c1_declared is None:
            # crude sphere bound: |grad x^P| <= d, |x^P| <= 1, homogeneity -(n-1).
            self.c1_declared = float(self.degree + (n - 1 + self.degree))
        if not (self.c0_declared > 0 and self.c1_declared > 0):
            raise ValueError("declared constants must be > 0")

    @property
    def monomial(self) -> tuple[tuple[int, ...], int]:
        """(P, q) with K(x) = x^P / |x|^q: (P, n-1+d)."""
        return tuple(self.exponents), self.ambient_dim - 1 + self.degree

    def evaluate_many(self, cols: np.ndarray) -> np.ndarray:
        """K at each column of coordinate-major (n, M) differences."""
        return _monomial_values(cols, self.ambient_dim, *self.monomial)


class RieszComponent(OddHomogeneous):
    """K(x) = x_i / |x|^n, the i-th component of the Riesz kernel: the
    degree-1 ``OddHomogeneous`` with P = e_i, whose sphere bounds give
    c0 = 1 exactly and whose c1 defaults to the exact n - 1."""

    def __init__(self, ambient_dim: int, axis: int, c0_declared: float | None = None,
                 c1_declared: float | None = None):
        if ambient_dim < 2:
            raise ValueError("ambient_dim must be >= 2")
        if not 0 <= axis < ambient_dim:
            raise ValueError("axis must index a coordinate")
        self.axis = axis
        # |grad K|^2 = (|x|^2 + (n^2 - 2n) x_i^2) / |x|^(2n+2),
        # maximized on the axis: |grad K| |x|^n = n - 1.
        super().__init__(ambient_dim, tuple(int(i == axis) for i in range(ambient_dim)), c0_declared,
                         float(ambient_dim - 1) if c1_declared is None else c1_declared)

    evaluate_many = OddHomogeneous.evaluate_many  # bound here too, where perfbench/tracing.py wraps it


# ---------------------------------------------------------------------------
# Numerical validation of the three defining conditions
# ---------------------------------------------------------------------------


def _shell_samples(kernel, rng, count: int) -> np.ndarray:
    """Random sample points with log-uniform radii over [1e-3, 1e3]; every check draws here."""
    if count < 1:
        raise ValueError("sample_count must be >= 1")
    dirs = rng.unit_vectors(count, kernel.ambient_dim)
    radii = np.exp(rng.uniforms(count, math.log(1e-3), math.log(1e3)))
    return dirs * radii[:, None]


def _with_axes(kernel, rng, count: int):
    """(x, |x|) for x the ``_shell_samples`` and then the 2n axis points."""
    n = kernel.ambient_dim
    x = np.vstack([_shell_samples(kernel, rng, count), np.eye(n), -np.eye(n)])
    return x, np.linalg.norm(x, axis=1)


def _antisymmetry(kernel, sample_count: int, rng) -> tuple[float, bool]:
    """(max of |K(x) + K(-x)|, whether each is <= 1e-12 |K(x)|) over random samples x."""
    x = _shell_samples(kernel, rng, sample_count)
    kx = kernel.evaluate_many(x.T)
    residuals = np.abs(kx + kernel.evaluate_many(-x.T))
    return float(np.max(residuals)), bool(np.all(residuals <= 1e-12 * np.abs(kx)))


def antisymmetry_residual(kernel, sample_count: int, rng) -> float:
    """Max of |K(x) + K(-x)| over random samples; 0 for catalog kernels."""
    return _antisymmetry(kernel, sample_count, rng)[0]


def size_bound_sup(kernel, sample_count: int, rng) -> float:
    """Sampled sup of |K(x)| |x|^(n-1).

    Homogeneity makes one shell enough; sampling several radii
    cross-checks the scaling.  Axis points are always included so the
    Riesz sup is attained exactly.
    """
    x, r = _with_axes(kernel, rng, sample_count)
    return float(np.max(np.abs(kernel.evaluate_many(x.T)) * r ** (kernel.ambient_dim - 1)))


def gradient_fd(kernel, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient rows; the step is 1e-6 |x| because the
    kernel varies on the scale of its argument.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[1]
    r = np.linalg.norm(x, axis=1)
    h = 1e-6 * r
    grad = np.empty_like(x)
    for j in range(n):
        step = np.zeros_like(x)
        step[:, j] = h
        grad[:, j] = (kernel.evaluate_many((x + step).T) - kernel.evaluate_many((x - step).T)) / (2.0 * h)
    return grad

def gradient_bound_sup(kernel, sample_count: int, rng) -> float:
    """Sampled sup of |grad K(x)| |x|^n, gradient by central differences."""
    x, r = _with_axes(kernel, rng, sample_count)
    return float(np.max(np.linalg.norm(gradient_fd(kernel, x), axis=1) * r**kernel.ambient_dim))


@dataclass
class KernelValidation:
    antisymmetry_residual: float
    size_sup: float
    gradient_sup: float
    size_ok: bool
    gradient_ok: bool
    antisymmetry_ok: bool

    @property
    def ok(self) -> bool:
        return self.size_ok and self.gradient_ok and self.antisymmetry_ok


# tolerances: size is sampled exactly; the gradient check is looser
# because central differences carry O(step^2) truncation error.
SIZE_SLACK = 1e-9
GRADIENT_SLACK = 1e-4


def validate(kernel, rng, sample_count: int) -> KernelValidation:
    """Check the declared constants against sampled suprema, drawing the
    antisymmetry, size and gradient samples in that order."""
    anti, anti_ok = _antisymmetry(kernel, sample_count, rng)
    size = size_bound_sup(kernel, sample_count, rng)
    grad = gradient_bound_sup(kernel, sample_count, rng)
    return KernelValidation(
        antisymmetry_residual=anti,
        size_sup=size,
        gradient_sup=grad,
        size_ok=size <= kernel.c0_declared * (1.0 + SIZE_SLACK),
        gradient_ok=grad <= kernel.c1_declared * (1.0 + GRADIENT_SLACK),
        antisymmetry_ok=anti_ok,
    )

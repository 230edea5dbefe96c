"""Lipschitz graphs, half-space classification, aperture cones, and shapes.

Conventions used throughout the package:

* A graph lives in its own frame: a point splits as (u, t) with u in
  R^(n-1) and t the vertical coordinate.  The graph's ``rotation`` maps
  graph-frame coordinates into ambient coordinates; classification pulls
  ambient points back with the transpose.
* "Above" / "Below" are strict up to the relative tolerance
  ``ON_TOLERANCE * (1 + |p|)``; the residual band classifies as On.
* Shape membership is closed: boundary points belong to the shape.
* Every profile is closed-form, so its Lipschitz constant is known
  exactly and stored at construction.

Point arguments are accepted as 1-D arrays (single point) or (N, n)
stacks; the vectorized variants return arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

ON_TOLERANCE = 1e-12
ORTHOGONALITY_TOL = 1e-12


class Side(Enum):
    BELOW = -1
    ON = 0
    ABOVE = 1


# ---------------------------------------------------------------------------
# Profile catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Affine:
    """f(u) = slope . u + offset."""

    slope: tuple[float, ...]
    offset: float = 0.0

    def value(self, u: np.ndarray) -> np.ndarray:
        return u @ np.asarray(self.slope, dtype=float) + self.offset

    def lip(self, param_dim: int) -> float:
        if len(self.slope) != param_dim:
            raise ValueError("slope length must equal ambient_dim - 1")
        return float(np.linalg.norm(self.slope))


@dataclass(frozen=True)
class Sawtooth:
    """Sum of per-coordinate triangle waves.

    f(u) = amplitude * sum_k dist(u_k / period, Z); each coordinate
    contributes slope +-amplitude/period, so Lip(f) is exactly
    (amplitude/period) * sqrt(param_dim).
    """

    amplitude: float
    period: float

    def __post_init__(self):
        if not (self.amplitude >= 0 and self.period > 0):
            raise ValueError("amplitude must be >= 0 and period > 0")

    def value(self, u: np.ndarray) -> np.ndarray:
        s = u / self.period
        tri = np.abs(s - np.round(s))
        return self.amplitude * tri.sum(axis=-1)

    def lip(self, param_dim: int) -> float:
        return self.amplitude / self.period * math.sqrt(param_dim)


@dataclass(frozen=True)
class ConeProfile:
    """f(u) = slope * |u|; the vertex sits at the origin."""

    slope: float

    def __post_init__(self):
        if not self.slope >= 0:
            raise ValueError("slope must be >= 0")

    def value(self, u: np.ndarray) -> np.ndarray:
        return self.slope * np.linalg.norm(u, axis=-1)

    def lip(self, param_dim: int) -> float:
        return self.slope


@dataclass(frozen=True)
class SmoothBump:
    """Gaussian bump f(u) = amplitude * exp(-|u|^2 / (2 width^2)).

    |grad f| peaks at |u| = width with value amplitude/(width*sqrt(e)).
    """

    amplitude: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be > 0")

    def value(self, u: np.ndarray) -> np.ndarray:
        r2 = np.sum(u * u, axis=-1)
        return self.amplitude * np.exp(-r2 / (2.0 * self.width**2))

    def lip(self, param_dim: int) -> float:
        return abs(self.amplitude) / (self.width * math.sqrt(math.e))


@dataclass(frozen=True)
class BallCap:
    """Spherical cap continued by its tangent cone; the separating graph
    used when decomposing a ball complement.

    In the frame whose vertical axis is the outward direction,

        f(u) = level + sqrt(radius^2 - rho^2)          rho <= radius*sin(theta)
        f(u) = level + radius*sqrt(n) - tan(theta)*rho   otherwise

    with rho = |u - center_u| and the junction angle theta fixed by
    tan(theta) = sqrt(n - 1) for ambient dimension n = param_dim + 1.
    The cone is tangent to the sphere at the junction, so the whole ball
    stays weakly below the graph while every strictly exterior point is
    strictly above the graph of its largest-coordinate direction.  For
    n = 2 this is the familiar 45-degree cap with apex height
    level + radius*sqrt(2) and unit slope.
    """

    radius: float
    center_u: tuple[float, ...]
    level: float = 0.0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be > 0")

    def value(self, u: np.ndarray) -> np.ndarray:
        param_dim = len(self.center_u)
        r = self.radius
        slope = math.sqrt(param_dim)  # tan(theta) = sqrt(n-1), n-1 = param_dim
        rho = np.linalg.norm(u - np.asarray(self.center_u, dtype=float), axis=-1)
        rho_junction = r * slope / math.sqrt(1.0 + slope * slope)
        cap = np.sqrt(np.maximum(r * r - np.minimum(rho, r) ** 2, 0.0))
        cone = r * math.sqrt(1.0 + slope * slope) - slope * rho
        return self.level + np.where(rho <= rho_junction, cap, cone)

    def lip(self, param_dim: int) -> float:
        return math.sqrt(param_dim)


Profile = Affine | Sawtooth | ConeProfile | SmoothBump | BallCap


# ---------------------------------------------------------------------------
# Lipschitz graphs and cones
# ---------------------------------------------------------------------------


def _check_orthogonal(m: np.ndarray, dim: int) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (dim, dim):
        raise ValueError(f"rotation must be {dim}x{dim}")
    if np.max(np.abs(m.T @ m - np.eye(dim))) > ORTHOGONALITY_TOL:
        raise ValueError("rotation is not orthogonal to tolerance 1e-12")
    return m


@dataclass(eq=False)
class LipschitzGraph:
    """Graph of a catalog profile f: R^(n-1) -> R placed in R^n.

    ``rotation`` maps graph-frame coordinates (u, t) into ambient
    coordinates; identity by default.  ``lip_declared`` is the exact
    Lipschitz constant of the profile, computed at construction.
    """

    ambient_dim: int
    profile: Profile
    rotation: np.ndarray | None = None
    lip_declared: float = field(init=False)

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError("ambient_dim must be >= 2")
        if self.rotation is None:
            self.rotation = np.eye(self.ambient_dim)
        else:
            self.rotation = _check_orthogonal(self.rotation, self.ambient_dim)
        self.lip_declared = self.profile.lip(self.ambient_dim - 1)

    @property
    def param_dim(self) -> int:
        return self.ambient_dim - 1

    def height(self, u) -> np.ndarray:
        """Profile value f(u); u is (param_dim,) or (N, param_dim)."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        return self.profile.value(u)

    def to_graph_frame(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.rotation

    def from_graph_frame(self, coords) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        return coords @ self.rotation.T

    def points_on_graph(self, u) -> np.ndarray:
        """Ambient points (u, f(u)) for parameter rows u."""
        u = np.atleast_2d(np.asarray(u, dtype=float))
        coords = np.column_stack([u, self.profile.value(u)])
        return self.from_graph_frame(coords)

    def signed_height(self, points) -> np.ndarray:
        """Vertical offset t - f(u) of each point, in the graph frame."""
        g = self.to_graph_frame(points)
        return g[:, -1] - self.profile.value(g[:, :-1])

    def classify_many(self, points) -> np.ndarray:
        """Side of each point: -1 below, 0 on, +1 above (int array)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        delta = self.signed_height(pts)
        tol = ON_TOLERANCE * (1.0 + np.linalg.norm(pts, axis=1))
        out = np.zeros(len(pts), dtype=np.int8)
        out[delta > tol] = 1
        out[delta < -tol] = -1
        return out

    def classify(self, point) -> Side:
        """Side of ``point`` relative to the graph: Above, On, or Below."""
        return Side(int(self.classify_many(point)[0]))


def check_aperture(graph: LipschitzGraph, aperture: float) -> None:
    """A cone of aperture parameter L over ``graph`` needs L > max(1, Lip(f))."""
    if not (aperture > 1.0 and aperture > graph.lip_declared):
        raise ValueError("aperture L must exceed max(1, Lip(f))")


@dataclass(eq=False)
class Cone:
    """Open upward cone at a graph point with aperture parameter 4L:
    Gamma(x0) = {(u, t): t - f(u0) > 4 L |u - u0|} in the graph frame.
    Requires L > max(1, Lip(f)).
    """

    graph: LipschitzGraph
    apex_u: tuple[float, ...]
    aperture: float  # the parameter L

    def __post_init__(self):
        check_aperture(self.graph, self.aperture)
        if len(self.apex_u) != self.graph.param_dim:
            raise ValueError("apex_u must have length ambient_dim - 1")

    @property
    def apex(self) -> np.ndarray:
        """Apex (u0, f(u0)) in ambient coordinates."""
        return self.graph.points_on_graph(np.asarray(self.apex_u))[0]

    def contains_many(self, points) -> np.ndarray:
        g = self.graph.to_graph_frame(points)
        u0 = np.asarray(self.apex_u, dtype=float)
        f_u0 = float(self.graph.height(u0)[0])
        horiz = np.linalg.norm(g[:, :-1] - u0, axis=1)
        return (g[:, -1] - f_u0) > 4.0 * self.aperture * horiz

    def contains(self, point) -> bool:
        return bool(self.contains_many(point)[0])


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Ball:
    """Closed ball."""

    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be > 0")

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = np.linalg.norm(pts - np.asarray(self.center, dtype=float), axis=1)
        return d <= self.radius

    def contains(self, point) -> bool:
        return bool(self.contains_many(point)[0])

    def bounding_box(self) -> list[tuple[float, float]]:
        return [(c - self.radius, c + self.radius) for c in self.center]


@dataclass(eq=False)
class Rectangle:
    """Closed, possibly rotated box: |(R^T (p - center))_k| <= half_widths[k]."""

    center: tuple[float, ...]
    half_widths: tuple[float, ...]
    rotation: np.ndarray | None = None

    def __post_init__(self):
        if len(self.half_widths) != len(self.center):
            raise ValueError("half_widths and center must have equal length")
        if not all(h > 0 for h in self.half_widths):
            raise ValueError("half_widths must be > 0")
        if self.rotation is None:
            self.rotation = np.eye(len(self.center))
        else:
            self.rotation = _check_orthogonal(self.rotation, len(self.center))

    @property
    def dim(self) -> int:
        return len(self.center)

    def local_coords(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - np.asarray(self.center, dtype=float)) @ self.rotation

    def contains_many(self, points) -> np.ndarray:
        local = np.abs(self.local_coords(points))
        return np.all(local <= np.asarray(self.half_widths), axis=1)

    def contains(self, point) -> bool:
        return bool(self.contains_many(point)[0])

    def bounding_box(self) -> list[tuple[float, float]]:
        # axis-aligned box of the rotated rectangle
        reach = np.abs(self.rotation) @ np.asarray(self.half_widths)
        return [(c - r, c + r) for c, r in zip(self.center, reach)]


Shape = Ball | Rectangle


# ---------------------------------------------------------------------------
# Complement decomposition into 2n regions bounded by Lipschitz graphs
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RegionPiece:
    """One of the 2n pieces: outward direction and its separating graph."""

    index: int
    direction: np.ndarray
    graph: LipschitzGraph


@dataclass(eq=False)
class RegionDecomposition:
    """Partition of the complement of a shape into 2n disjoint regions,
    each lying strictly above a rotated Lipschitz graph that supports the
    shape from below.  Region membership is first-match in piece order.
    """

    shape: Shape
    pieces: list[RegionPiece]

    def assign(self, points) -> np.ndarray:
        """Region index per point; -1 marks points inside the shape.

        Exterior points are assigned to the first piece whose graph they
        lie strictly above.  A numerically marginal exterior point (on
        every candidate graph to tolerance) falls back to the largest
        signed height, keeping the predicate total on the complement.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(len(pts), -1, dtype=int)
        inside = self.shape.contains_many(pts)
        ext = ~inside
        if not np.any(ext):
            return out
        ext_pts = pts[ext]
        tol = ON_TOLERANCE * (1.0 + np.linalg.norm(ext_pts, axis=1))
        heights = np.stack([p.graph.signed_height(ext_pts) for p in self.pieces])
        unassigned = np.ones(len(ext_pts), dtype=bool)
        chosen = np.empty(len(ext_pts), dtype=int)
        for i in range(len(self.pieces)):
            take = unassigned & (heights[i] > tol)
            chosen[take] = i
            unassigned &= ~take
        if np.any(unassigned):
            chosen[unassigned] = np.argmax(heights[:, unassigned], axis=0)
        out[ext] = chosen
        return out

    def region_of(self, point) -> int | None:
        """Region index of a single point, or None when inside the shape."""
        idx = int(self.assign(point)[0])
        return None if idx < 0 else idx


def decompose_complement(shape: Shape) -> RegionDecomposition:
    """Split R^n minus a shape into 2n regions, one per outward direction.

    Rectangle: each face extends to its hyperplane, an affine graph with
    zero slope in the frame whose vertical axis is the outward face
    normal.  Ball: each of the 2n signed coordinate directions carries a
    cap-cone graph (see BallCap) supporting the ball.  Piece order is
    +a_1, -a_1, +a_2, -a_2, ... (a_k the rectangle axes, or the standard
    basis for a ball); membership is first match.
    """
    n = shape.dim
    if isinstance(shape, Rectangle):
        axes = shape.rotation
    elif isinstance(shape, Ball):
        axes = np.eye(n)
    else:
        raise TypeError(f"unsupported shape {type(shape).__name__}")
    center = np.asarray(shape.center)
    pieces: list[RegionPiece] = []
    for k in range(n):
        for sign in (+1.0, -1.0):
            direction = sign * axes[:, k]
            frame = _face_frame(axes, k, sign)
            if isinstance(shape, Rectangle):
                level = float(center @ direction) + shape.half_widths[k]
                prof = Affine(slope=(0.0,) * (n - 1), offset=level)
            else:
                local_center = center @ frame
                prof = BallCap(
                    radius=shape.radius,
                    center_u=tuple(local_center[:-1]),
                    level=float(local_center[-1]),
                )
            graph = LipschitzGraph(n, prof, rotation=frame)
            pieces.append(RegionPiece(len(pieces), direction, graph))
    return RegionDecomposition(shape, pieces)


def _face_frame(axes: np.ndarray, k: int, sign: float) -> np.ndarray:
    """Frame whose vertical axis is sign * axes[:, k]; the other axes
    fill the horizontal slots in index order.
    """
    n = axes.shape[0]
    cols = [axes[:, j] for j in range(n) if j != k]
    cols.append(sign * axes[:, k])
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def lipschitz_estimate(graph: LipschitzGraph, sample_count: int, box, rng) -> float:
    """Max sampled difference quotient |f(u) - f(v)| / |u - v| over random
    pairs in ``box`` (a list of (lo, hi) per parameter axis).  A lower
    bound on Lip(f); must not exceed lip_declared * (1 + 1e-9).
    """
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    u = rng.points_in_box(sample_count, box)
    v = rng.points_in_box(sample_count, box)
    gap = np.linalg.norm(u - v, axis=1)
    keep = gap > 0
    if not np.any(keep):
        return 0.0
    fu = graph.height(u[keep])
    fv = graph.height(v[keep])
    return float(np.max(np.abs(fu - fv) / gap[keep]))

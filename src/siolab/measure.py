"""Discrete (atomic) approximations of finite Radon measures with an
(n-1)-dimensional growth bound, plus the measure families the scenarios
exercise: surface measures on graph patches, the four-corners Cantor
measure, uniform measures on shapes, and normalized slabs above graphs.

Each measure carries a resolution floor ``h``: the spatial scale of its
discretization.  Growth and density estimation, and every truncation
parameter used elsewhere, are restricted to radii >= h because an atomic
approximation has no meaning below its own grid scale (a lone point mass
violates the growth bound as r -> 0).

Ball membership is closed (<=) everywhere in this package, matching the
truncation convention of the operators (strict >).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LipschitzGraph, Shape
from .summation import sum2_prefix

ATOM_COUNT_GUARD = 10**7
CANTOR_MAX_GENERATION = 10


@dataclass(eq=False)
class DiscreteMeasure:
    """Finite list of weighted atoms.

    positions: (N, n) float array; weights: (N,) nonnegative.
    """

    positions: np.ndarray
    weights: np.ndarray
    resolution: float

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.positions) != len(self.weights):
            raise ValueError("positions and weights must have equal length")
        if not np.all((self.weights >= 0) & (self.weights < math.inf)):
            raise ValueError("weights must be finite and >= 0")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if not 0 < self.resolution < math.inf:
            raise ValueError("resolution must be finite and > 0")

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[1]

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    def bounding_box(self) -> list[tuple[float, float]]:
        lo = self.positions.min(axis=0)
        hi = self.positions.max(axis=0)
        return list(zip(lo.tolist(), hi.tolist()))

    def bounding_diameter(self) -> float:
        """Diagonal of the bounding box; an upper bound for diam(spt)."""
        lo = self.positions.min(axis=0)
        hi = self.positions.max(axis=0)
        return float(np.linalg.norm(hi - lo))

    def restrict_mask(self, mask: np.ndarray) -> "DiscreteMeasure":
        mask = np.asarray(mask, dtype=bool)
        return DiscreteMeasure(
            self.positions[mask].copy(),
            self.weights[mask].copy(),
            self.resolution,
        )


def split_by_graph(mu: DiscreteMeasure, graph: LipschitzGraph):
    """Partition atoms by side of the graph: (on, above, below).

    Weights are copied, never recomputed, so the three parts conserve
    mass exactly.
    """
    side = graph.classify_many(mu.positions)
    return (
        mu.restrict_mask(side == 0),
        mu.restrict_mask(side == 1),
        mu.restrict_mask(side == -1),
    )


def concat(measures: list[DiscreteMeasure]) -> DiscreteMeasure:
    """Union of atom lists; resolution is the coarsest of the parts."""
    if not measures:
        raise ValueError("need at least one measure")
    dims = {m.ambient_dim for m in measures}
    if len(dims) != 1:
        raise ValueError("ambient dimensions differ")
    return DiscreteMeasure(
        np.vstack([m.positions for m in measures]),
        np.concatenate([m.weights for m in measures]),
        max(m.resolution for m in measures),
    )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _grid_centers(box, cells_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell centers of a uniform grid over ``box`` and the cell sizes."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box sides must have positive length")
    if cells_per_axis < 1:
        raise ValueError("grid resolution must be >= 1")
    if cells_per_axis ** len(box) > ATOM_COUNT_GUARD:
        raise ValueError(f"atom count guard exceeded: {cells_per_axis ** len(box)} atoms, limit {ATOM_COUNT_GUARD}")
    axes = [
        lo + (np.arange(cells_per_axis) + 0.5) * (hi - lo) / cells_per_axis
        for lo, hi in box
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.column_stack([m.reshape(-1) for m in mesh])
    sizes = np.array([(hi - lo) / cells_per_axis for lo, hi in box])
    return centers, sizes


def graph_measure(
    graph: LipschitzGraph,
    box,
    cells_per_axis: int,
    vertical_shift: float = 0.0,
) -> DiscreteMeasure:
    """Surface measure of a graph patch: one atom per grid cell of the
    parameter box at (u_c, f(u_c) + shift), weighted by the surface
    element sqrt(1 + |grad f|^2) times the cell volume.  The gradient is
    taken by central differences with step cell/100, so the total mass
    approximates the (n-1)-dimensional area of the patch.
    """
    if len(box) != graph.param_dim:
        raise ValueError("box must have ambient_dim - 1 sides")
    centers, sizes = _grid_centers(box, cells_per_axis)
    cell_volume = float(np.prod(sizes))
    grad_sq = np.zeros(len(centers))
    for j, size in enumerate(sizes):
        step = np.zeros(graph.param_dim)
        step[j] = size / 100.0
        dj = (graph.height(centers + step) - graph.height(centers - step)) / (2 * step[j])
        grad_sq += dj * dj
    weights = cell_volume * np.sqrt(1.0 + grad_sq)
    coords = np.column_stack([centers, graph.height(centers) + vertical_shift])
    return DiscreteMeasure(
        graph.from_graph_frame(coords),
        weights,
        resolution=float(np.linalg.norm(sizes)),
    )


def cantor_four_corners(generation: int) -> DiscreteMeasure:
    """Four-corners Cantor measure on the unit square (R^2 only):
    4^g atoms of weight 4^-g at the centers of the generation-g squares
    of the contraction-ratio-1/4 corner construction.
    """
    if generation < 0:
        raise ValueError("generation must be >= 0")
    if generation > CANTOR_MAX_GENERATION:
        raise ValueError(f"generation capped at {CANTOR_MAX_GENERATION}")
    corners = np.zeros((1, 2))
    side = 1.0
    for _ in range(generation):
        offsets = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]]) * side
        corners = (corners[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
        side /= 4.0
    centers = corners + side / 2.0
    weights = np.full(len(centers), 4.0 ** (-generation))
    return DiscreteMeasure(centers, weights, resolution=side * math.sqrt(2.0))


def uniform_on_shape(shape: Shape, cells_per_axis: int) -> DiscreteMeasure:
    """Equal-weight atoms on the grid cells whose centers fall in the
    shape, normalized to total mass 1.
    """
    centers, sizes = _grid_centers(shape.bounding_box(), cells_per_axis)
    keep = shape.contains_many(centers)
    if not np.any(keep):
        raise ValueError("no grid cell centers inside the shape")
    pts = centers[keep]
    weights = np.full(len(pts), 1.0 / len(pts))
    return DiscreteMeasure(pts, weights, resolution=float(np.linalg.norm(sizes)))


def slab_above_graph(
    graph: LipschitzGraph,
    box,
    cells_per_axis: int,
    thickness: float,
    levels: int,
    vertical_shift: float = 0.0,
) -> DiscreteMeasure:
    """Lebesgue slab {(u, t): u in box, 0 < t - f(u) <= thickness},
    discretized as ``levels`` graph-parallel layers and normalized by
    1/thickness so the growth constant stays O(1) independently of the
    thickness.  ``vertical_shift`` translates the slab; a shift of
    -thickness mirrors the layer heights exactly across the graph.
    """
    if thickness <= 0:
        raise ValueError("thickness must be > 0")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if len(box) != graph.param_dim:
        raise ValueError("box must have ambient_dim - 1 sides")
    centers, sizes = _grid_centers(box, cells_per_axis)
    if len(centers) * levels > ATOM_COUNT_GUARD:
        raise ValueError(f"atom count guard exceeded: {len(centers) * levels} atoms, limit {ATOM_COUNT_GUARD}")
    cell_volume = float(np.prod(sizes))
    heights = (np.arange(levels) + 0.5) * thickness / levels
    f = graph.height(centers)
    pts = []
    for t in heights:
        coords = np.column_stack([centers, f + t + vertical_shift])
        pts.append(graph.from_graph_frame(coords))
    positions = np.vstack(pts)
    weights = np.full(len(positions), cell_volume / levels)
    h = float(math.hypot(np.linalg.norm(sizes), thickness / levels))
    return DiscreteMeasure(positions, weights, resolution=h)


def build(kind: str, *args) -> DiscreteMeasure:
    """The measure of a config ``kind``: its builder called with ``args``
    (``graph_measure``, ``cantor`` for ``cantor_four_corners``,
    ``uniform_on_shape`` or ``slab_above_graph``), looked up at call time."""
    builders = {"graph_measure": graph_measure, "cantor": cantor_four_corners,
                "uniform_on_shape": uniform_on_shape, "slab_above_graph": slab_above_graph}
    if kind not in builders:
        raise ValueError(f"unknown measure kind {kind!r}")
    return builders[kind](*args)


# ---------------------------------------------------------------------------
# Growth estimation
# ---------------------------------------------------------------------------


def _ball_masses(mu: DiscreteMeasure, center: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """mu(B(center, r)) for each r; closed balls, the masses summed by
    Sum2 in distance order (``summation.sum2_prefix``)."""
    d = np.linalg.norm(mu.positions - center, axis=1)
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    cum = sum2_prefix(mu.weights[order][None, :])[0]
    idx = np.searchsorted(d_sorted, radii, side="right")
    masses = np.zeros(len(radii))
    pos = idx > 0
    masses[pos] = cum[idx[pos] - 1]
    return masses


def growth_constant(mu: DiscreteMeasure, centers, radii) -> float:
    """Max over (center, r) of mu(B(x, r)) / r^(n-1).

    All radii must sit at or above the resolution floor; below it the
    atomic approximation degenerates to point masses.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(radii >= mu.resolution):
        raise ValueError("radii below the measure resolution floor")
    if radii.size == 0:
        raise ValueError("empty radii grid")
    scale = radii ** (mu.ambient_dim - 1)
    ratios = [_ball_masses(mu, c, radii) / scale for c in np.atleast_2d(np.asarray(centers, dtype=float))]
    return float(np.max(np.array(ratios), initial=0.0))

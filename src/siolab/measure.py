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
from dataclasses import dataclass, field

import numpy as np

from .geometry import LipschitzGraph, Shape

ATOM_COUNT_GUARD = 10**8
CANTOR_MAX_GENERATION = 10


@dataclass(frozen=True)
class Atom:
    position: tuple[float, ...]
    weight: float


@dataclass(eq=False)
class DiscreteMeasure:
    """Finite list of weighted atoms.

    positions: (N, n) float array; weights: (N,) nonnegative.
    ``growth_declared`` optionally records an intended growth constant
    for the (n-1)-dimensional bound mu(B(x, r)) <= C r^(n-1), r >= h.
    """

    positions: np.ndarray
    weights: np.ndarray
    resolution: float
    growth_declared: float | None = None

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.positions) != len(self.weights):
            raise ValueError("positions and weights must have equal length")
        if np.any(self.weights < 0):
            raise ValueError("weights must be >= 0")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")

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

    def atoms(self):
        for p, w in zip(self.positions, self.weights):
            yield Atom(tuple(p.tolist()), float(w))

    def restrict_mask(self, mask: np.ndarray) -> "DiscreteMeasure":
        mask = np.asarray(mask, dtype=bool)
        return DiscreteMeasure(
            self.positions[mask].copy(),
            self.weights[mask].copy(),
            self.resolution,
            self.growth_declared,
        )


def restrict(mu: DiscreteMeasure, region) -> DiscreteMeasure:
    """Atoms filtered by membership, weights unchanged.

    ``region`` is a Shape, a boolean mask over atoms, or a callable
    mapping an (N, n) position array to a boolean mask.
    """
    if isinstance(region, np.ndarray):
        mask = region
    elif hasattr(region, "contains_many"):
        mask = region.contains_many(mu.positions)
    elif callable(region):
        mask = np.asarray(region(mu.positions), dtype=bool)
    else:
        raise TypeError("region must be a shape, mask, or predicate")
    return mu.restrict_mask(mask)


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
        raise ValueError("atom count guard exceeded")
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
    levels: int = 8,
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
        raise ValueError("atom count guard exceeded")
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


# --- catalog specs -------------------------------------------------------


@dataclass(eq=False)
class GraphMeasureSpec:
    graph: LipschitzGraph
    box: list
    cells_per_axis: int
    vertical_shift: float = 0.0


@dataclass(eq=False)
class CantorFourCornersSpec:
    generation: int


@dataclass(eq=False)
class UniformOnShapeSpec:
    shape: Shape
    cells_per_axis: int


@dataclass(eq=False)
class SlabAboveGraphSpec:
    graph: LipschitzGraph
    box: list
    cells_per_axis: int
    thickness: float
    levels: int = 8
    vertical_shift: float = 0.0


MeasureSpec = GraphMeasureSpec | CantorFourCornersSpec | UniformOnShapeSpec | SlabAboveGraphSpec


def build(spec: MeasureSpec) -> DiscreteMeasure:
    """Materialize a catalog measure spec."""
    if isinstance(spec, GraphMeasureSpec):
        return graph_measure(spec.graph, spec.box, spec.cells_per_axis, spec.vertical_shift)
    if isinstance(spec, CantorFourCornersSpec):
        return cantor_four_corners(spec.generation)
    if isinstance(spec, UniformOnShapeSpec):
        return uniform_on_shape(spec.shape, spec.cells_per_axis)
    if isinstance(spec, SlabAboveGraphSpec):
        return slab_above_graph(
            spec.graph, spec.box, spec.cells_per_axis, spec.thickness,
            spec.levels, spec.vertical_shift,
        )
    raise TypeError(f"unknown measure spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Growth and lower-density estimation
# ---------------------------------------------------------------------------


def _ball_masses(mu: DiscreteMeasure, center: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """mu(B(center, r)) for each r; closed balls."""
    d = np.linalg.norm(mu.positions - center, axis=1)
    order = np.argsort(d, kind="stable")
    d_sorted = d[order]
    cum = np.cumsum(mu.weights[order].astype(np.longdouble))
    idx = np.searchsorted(d_sorted, radii, side="right")
    masses = np.zeros(len(radii))
    pos = idx > 0
    masses[pos] = cum[idx[pos] - 1].astype(float)
    return masses


def growth_constant(mu: DiscreteMeasure, centers, radii) -> float:
    """Max over (center, r) of mu(B(x, r)) / r^(n-1).

    All radii must sit at or above the resolution floor; below it the
    atomic approximation degenerates to point masses.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("empty radii grid")
    if not np.all(radii >= mu.resolution):
        raise ValueError("radii below the measure resolution floor")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    n = mu.ambient_dim
    best = 0.0
    for c in centers:
        masses = _ball_masses(mu, c, radii)
        best = max(best, float(np.max(masses / radii ** (n - 1))))
    return best


def lower_density(mu: DiscreteMeasure, centers, radii) -> float:
    """Min over (center, r) of mu(B(x, r)) / r^(n-1); centers should be
    atom positions (support points).
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("empty radii grid")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    n = mu.ambient_dim
    worst = math.inf
    for c in centers:
        masses = _ball_masses(mu, c, radii)
        worst = min(worst, float(np.min(masses / radii ** (n - 1))))
    return worst


# ---------------------------------------------------------------------------
# Flat text serialization (hex floats, exact round trip)
# ---------------------------------------------------------------------------


def save_measure(mu: DiscreteMeasure, path) -> None:
    """Write ``n=<dim> count=<N> h=<res>`` then one ``x1 ... xn w`` line
    per atom, all floats in C99 hex so the round trip is exact.
    """
    with open(path, "w") as fh:
        fh.write(f"n={mu.ambient_dim} count={mu.count} h={mu.resolution.hex()}\n")
        for p, w in zip(mu.positions, mu.weights):
            coords = " ".join(float(v).hex() for v in p)
            fh.write(f"{coords} {float(w).hex()}\n")


def load_measure(path) -> DiscreteMeasure:
    """Read a ``save_measure`` file.  ValueError on a header without n,
    count and h, a negative count, or atom lines other than count.
    """
    with open(path) as fh:
        header, *lines = fh.read().splitlines() or [""]
    fields = dict(item.partition("=")[::2] for item in header.split())
    if not {"n", "count", "h"} <= fields.keys():
        raise ValueError("measure header needs n=, count= and h= fields")
    n, count = int(fields["n"]), int(fields["count"])
    if count < 0 or len(lines) != count:
        raise ValueError(f"header counts {count} atoms, the file has {len(lines)} atom lines")
    rows = [line.split() for line in lines]
    for i, parts in enumerate(rows):
        if len(parts) != n + 1:
            raise ValueError(f"atom line {i} malformed")
    data = np.array([[float.fromhex(v) for v in parts] for parts in rows]).reshape(count, n + 1)
    return DiscreteMeasure(data[:, :n], data[:, n], resolution=float.fromhex(fields["h"]))

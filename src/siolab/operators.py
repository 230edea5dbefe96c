"""Truncated and maximal singular integral operators on discrete measures.

Summation conventions, fixed package-wide:

* Truncation is strict: the closed ball B(x, eps) is removed, so atoms
  at distance exactly eps are excluded; the maximal-function ball is
  closed, so atoms at distance exactly r are included.
* The single-point ``truncated`` uses error-free accumulation
  (math.fsum) in atom index order.
* Every other sum follows ``summation``: a total (T^eps rows, L^p
  norms, pair sums) is one Sum2, and a sup over prefixes (T* and the
  maximal function) is a scan certified against the sup it reports.
* The supremum over all truncation radii is exact, not sampled: the
  truncated transform is piecewise constant in eps with jumps only at
  distinct atom distances, so the supremum is a maximum over suffix
  sums by distance group, plus the empty truncation value 0.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Cone, check_aperture
from .measure import DiscreteMeasure
from .summation import certified_sums, sum2_prefix, sum2_rows, sum2_total

PAIR_COUNT_GUARD = 10**10
# a TruncationTable stores P x N int64 order, float64 distances and
# kernel terms and a bool candidate mask: 25 bytes per cell.  The guard
# admits 2048-point chunks against the 4^6 atoms of a generation-6
# Cantor set (210 MB) with room to spare.
TABLE_BYTES_GUARD = 1 << 30
_TABLE_BYTES_PER_CELL = 25
_BLOCK_ELEMENTS = 1 << 21  # target elements per temporary block
# a cone mesh template holds fewer than K (2K+1)^d points for K = 2^mesh_depth
# levels; 2^22 admits depth 10 in d = 1, 6 in d = 2 and 4 in d = 3
MESH_POINTS_GUARD = 1 << 22
_MESH_CHUNK_POINTS = 1 << 16  # mesh points per apex chunk of nontangential_max_many


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def density_values(g, mu: DiscreteMeasure) -> np.ndarray:
    """Per-atom values of a density: None or a scalar (constant), an
    array of per-atom values, a simple function (anything exposing
    ``evaluate_many``), or a callable on an (N, n) position array.
    The values must be finite and one per atom.
    """
    if g is None:
        return np.ones(mu.count)
    if isinstance(g, (np.ndarray, list, tuple)):
        vals = np.asarray(g, dtype=float).reshape(-1)
    elif isinstance(g, numbers.Real):
        vals = np.full(mu.count, float(g))
    elif hasattr(g, "evaluate_many"):
        vals = np.asarray(g.evaluate_many(mu.positions), dtype=float).reshape(-1)
    elif callable(g):
        vals = np.asarray(g(mu.positions), dtype=float).reshape(-1)
    else:
        raise TypeError("unsupported density")
    if len(vals) != mu.count:
        raise ValueError("per-atom table length mismatch")
    if not np.all(np.isfinite(vals)):
        raise ValueError("density values must be finite")
    return vals


# ---------------------------------------------------------------------------
# Kernel term helpers
# ---------------------------------------------------------------------------


def _kernel_at_diffs(kernel, diffs: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """K at each coordinate-major difference column of ``diffs`` (n, B, N),
    with 0 where dist == 0 (those atoms are excluded from every truncated
    sum anyway): there the first coordinate is replaced by 1 in place.
    """
    zero = dist == 0.0
    if np.any(zero):
        np.copyto(diffs[0], 1.0, where=zero)
        vals = kernel.evaluate_many(diffs.reshape(len(diffs), -1)).reshape(dist.shape)
        vals[zero] = 0.0
        return vals
    return kernel.evaluate_many(diffs.reshape(len(diffs), -1)).reshape(dist.shape)


def _distance_blocks(pts: np.ndarray, positions: np.ndarray):
    """(slice, differences, distances) over consecutive blocks of the
    points, about _BLOCK_ELEMENTS point-atom pairs per block.  The
    differences are coordinate-major, (n, B, N): row k holds coordinate k
    of x - y.  Both arrays are views of buffers allocated once per call
    and overwritten by the next block.

    The squares are added one coordinate at a time, in the order
    np.linalg.norm adds them, so a distance here equals the one the
    single-point ``truncated`` compares with eps, bit for bit.
    """
    n_pts, n_atoms = len(pts), len(positions)
    block = max(1, min(n_pts, _BLOCK_ELEMENTS // max(1, n_atoms)))
    cols = np.ascontiguousarray(positions.T)[:, None, :]
    diffs = np.empty((positions.shape[1], block, n_atoms))
    sq = np.empty((block, n_atoms))
    dist = np.empty((block, n_atoms))
    for start in range(0, n_pts, block):
        sl = slice(start, min(start + block, n_pts))
        r = sl.stop - start
        d, s, t = diffs[:, :r], sq[:r], dist[:r]
        np.subtract(pts[sl].T[:, :, None], cols, out=d)
        np.multiply(d[0], d[0], out=s)
        for k in range(1, len(d)):
            s += np.multiply(d[k], d[k], out=t)
        yield sl, d, np.sqrt(s, out=t)


# ---------------------------------------------------------------------------
# Truncated transform
# ---------------------------------------------------------------------------


def truncated(nu: DiscreteMeasure, kernel, g, x, eps: float) -> float:
    """T^eps g(x) = sum over atoms y with |x - y| > eps (strict) of
    K(x - y) g(y) w(y), accumulated error-free in atom index order.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    x = np.asarray(x, dtype=float)
    diffs = x[None, :] - nu.positions
    dist = np.linalg.norm(diffs, axis=1)
    mask = dist > eps
    if not np.any(mask):
        return 0.0
    gv = density_values(g, nu)
    terms = kernel.evaluate_many(diffs[mask].T) * gv[mask] * nu.weights[mask]
    return math.fsum(terms.tolist())


def truncated_batch(nu: DiscreteMeasure, kernel, g, points, eps) -> np.ndarray:
    """T^eps g at every point, eps a scalar or one radius per point, by a
    masked Sum2 over atoms (strict truncation); no distance sort, so it
    suits one radius per point.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (len(pts),))
    if not np.all(eps > 0):
        raise ValueError("eps must be > 0")
    out = np.zeros(len(pts))
    gw = nu.weights * density_values(g, nu)
    for sl, diffs, dist in _distance_blocks(pts, nu.positions):
        out[sl] = sum2_rows(np.where(dist > eps[sl, None], _kernel_at_diffs(kernel, diffs, dist) * gw, 0.0))
    return out


# ---------------------------------------------------------------------------
# Maximal transform via distance breakpoints
# ---------------------------------------------------------------------------


class TruncationTable:
    """Distance-sorted kernel table for a batch of evaluation points.

    Sorting is done once per (measure, points) pair; evaluating a
    transform for another density then only needs a gather and one sum
    per row (see ``summation``).  A truncated value is one Sum2.  A sup
    (T* or the maximal function) is one blocked float64 prefix scan, with
    the rows whose a priori bound gamma_k sum|t| exceeds 1e-13 of their
    sup redone by Sum2 and counted in ``fallback_rows``.  Distances
    are sorted descending so prefix sums ARE the truncated sums: the
    prefix through distance group d equals T^eps for eps in [next
    smaller distance, d).  Read backwards, the same sort serves the
    (n-1)-dimensional maximal function.

    A table takes 25 bytes per (point, atom) cell; building one larger
    than ``TABLE_BYTES_GUARD`` raises ValueError.
    """

    def __init__(self, nu: DiscreteMeasure, kernel, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n_pts, n_atoms = len(pts), nu.count
        n_bytes = n_pts * n_atoms * _TABLE_BYTES_PER_CELL
        if n_bytes > TABLE_BYTES_GUARD:
            raise ValueError(f"truncation table byte guard exceeded: {n_bytes} bytes, limit {TABLE_BYTES_GUARD}")
        self.measure = nu
        self.fallback_rows = 0
        self.order = np.empty((n_pts, n_atoms), dtype=np.int64)
        self.dist_desc = np.empty((n_pts, n_atoms))
        self.kw_desc = np.empty((n_pts, n_atoms))
        # candidate positions: last index of each distance group
        self.valid = np.empty((n_pts, n_atoms), dtype=bool)
        for sl, diffs, dist in _distance_blocks(pts, nu.positions):
            kvals = _kernel_at_diffs(kernel, diffs, dist) * nu.weights[None, :]
            order = np.argsort(-dist, axis=1, kind="stable")
            self.order[sl] = order
            self.dist_desc[sl] = np.take_along_axis(dist, order, axis=1)
            self.kw_desc[sl] = np.take_along_axis(kvals, order, axis=1)
        self.valid[:, :-1] = self.dist_desc[:, :-1] != self.dist_desc[:, 1:]
        self.valid[:, -1:] = True
        # zero-distance groups never enter a truncated sum (their kernel
        # terms are zeroed) and their trailing candidate duplicates the
        # previous one, so no special casing is needed.

    def _sorted_terms(self, g) -> np.ndarray:
        terms = density_values(g, self.measure)[self.order]
        terms *= self.kw_desc
        return terms

    def maximal_values(self, g) -> np.ndarray:
        """sup over eps > 0 of |T^eps g| at every point (exact sup)."""
        if self.kw_desc.shape[1] == 0:
            return np.zeros(len(self.kw_desc))

        def sup(prefix, rows):  # empty truncation (eps >= max distance) contributes 0
            values = np.max(np.abs(prefix, out=prefix), axis=1, where=self.valid[rows], initial=0.0)
            return values, values

        values, redone = certified_sums(self._sorted_terms(g), sup)
        self.fallback_rows += redone
        return values

    def truncated_values(self, g, eps: float) -> np.ndarray:
        """T^eps g at every point."""
        if not eps > 0:
            raise ValueError("eps must be > 0")
        return self.truncated_values_per_point(g, np.full(len(self.dist_desc), float(eps)))

    def truncated_values_per_point(self, g, eps: np.ndarray) -> np.ndarray:
        """T^eps g with an individual truncation radius per point, one Sum2 per row."""
        eps = np.asarray(eps, dtype=float)
        if not np.all(eps > 0):
            raise ValueError("eps must be > 0")
        return sum2_rows(np.where(self.dist_desc > eps[:, None], self._sorted_terms(g), 0.0))

    def hl_maximal_values(self, g):
        """``hl_maximal_batch`` at the table's points, read from the
        descending sort backwards instead of sorting again."""
        nu = self.measure
        values, diverges, fallback = _hl_from_ascending(
            np.abs(density_values(g, nu)) * nu.weights,
            nu.ambient_dim,
            self.dist_desc[:, ::-1],
            self.order[:, ::-1],
        )
        self.fallback_rows += fallback
        return values, diverges


def maximal(nu: DiscreteMeasure, kernel, g, x) -> float:
    """T* g(x) = sup over eps > 0 of |T^eps g(x)|, computed exactly by
    the breakpoint algorithm (suffix sums by distance group).
    """
    return float(TruncationTable(nu, kernel, x).maximal_values(g)[0])


# ---------------------------------------------------------------------------
# (n-1)-dimensional maximal function
# ---------------------------------------------------------------------------


def _hl_from_ascending(atom_mass: np.ndarray, n: int, dist_asc: np.ndarray, order_asc: np.ndarray):
    """(values, diverges, uncertified row count) of the maximal function
    with per-atom masses |g| w in ambient dimension n, from per-point
    atom distances sorted ascending and their atom indices.

    Candidate radii are the distinct atom distances: mass is constant
    between them while r^(1-n) decreases, so breakpoints realize the sup.
    The masses are nonnegative, so the scan's bound over the total mass
    bounds the relative error of every prefix.
    """
    if dist_asc.shape[1] == 0:
        return np.zeros(len(dist_asc)), np.zeros(len(dist_asc), dtype=bool), 0
    mass = atom_mass[order_asc]
    diverges = np.any((dist_asc == 0.0) & (mass > 0.0), axis=1)
    usable = np.empty(dist_asc.shape, dtype=bool)
    usable[:, :-1] = dist_asc[:, :-1] != dist_asc[:, 1:]
    usable[:, -1] = True
    usable &= dist_asc > 0.0

    def sup(cum, rows):
        total = cum[:, -1].copy()
        cum *= np.where(usable[rows], dist_asc[rows], 1.0) ** (1 - n)
        return np.max(cum, axis=1, where=usable[rows], initial=0.0), total

    values, redone = certified_sums(mass, sup)
    values[diverges] = math.inf
    return values, diverges, redone


def hl_maximal_batch(nu: DiscreteMeasure, g, points):
    """sup over r > 0 of r^(1-n) * integral of |g| over the closed ball
    B(x, r), per point.  Returns (values, diverges); a point sitting on
    an atom with |g| w > 0 diverges (r^(1-n) blows up as r -> 0) and its
    value entry is +inf.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.zeros(len(pts))
    diverges = np.zeros(len(pts), dtype=bool)
    a = np.abs(density_values(g, nu)) * nu.weights
    for sl, _, dist in _distance_blocks(pts, nu.positions):
        order = np.argsort(dist, axis=1, kind="stable")
        d_sorted = np.take_along_axis(dist, order, axis=1)
        values[sl], diverges[sl], _ = _hl_from_ascending(a, nu.ambient_dim, d_sorted, order)
    return values, diverges


# ---------------------------------------------------------------------------
# Non-tangential maximal function on a cone mesh
# ---------------------------------------------------------------------------


def _cone_template(aperture: float, height_cap: float, mesh_depth: int, d: int):
    """Apex-free cone mesh: graph-frame offsets (M, d) from u0 and level
    heights (M,) above f(u0).  2^mesh_depth height levels; level k's
    cross-section is a (2k+1)^d grid filtered strictly inside the cone.
    The grid count sum_k (2k+1)^d is at most K (2K+1)^d for K levels;
    above ``MESH_POINTS_GUARD`` that raises ValueError before any array
    is built.
    """
    if not height_cap > 0:
        raise ValueError("height_cap must be > 0")
    if mesh_depth < 1:
        raise ValueError("mesh_depth must be >= 1")
    # past the guard's bit length, 2^mesh_depth alone exceeds it: cap the shift
    levels = 1 << min(mesh_depth, MESH_POINTS_GUARD.bit_length())
    if levels * (2 * levels + 1) ** d > MESH_POINTS_GUARD:
        raise ValueError(f"mesh_depth {mesh_depth} exceeds the cone mesh point guard {MESH_POINTS_GUARD}")
    offsets, heights = [], []
    for level in range(1, levels + 1):
        t = height_cap * level / levels
        rho = t / (4.0 * aperture)
        k = level  # proportional refinement
        ticks = np.linspace(-1.0, 1.0, 2 * k + 1) * rho * (1.0 - 1e-12)
        mesh = np.meshgrid(*([ticks] * d), indexing="ij")
        grid = np.column_stack([m.reshape(-1) for m in mesh])
        kept = grid[np.linalg.norm(grid, axis=1) < rho]
        offsets.append(kept)
        heights.append(np.full(len(kept), t))
    return np.vstack(offsets), np.concatenate(heights)


def cone_mesh(cone: Cone, height_cap: float, mesh_depth: int) -> np.ndarray:
    """Deterministic dyadic mesh of the truncated cone
    Gamma(x0) intersected with {t - f(u0) <= height_cap}, in ambient
    coordinates: the apex-free template of ``_cone_template`` (and its
    point guard) placed at (u0, f(u0)).
    """
    graph = cone.graph
    offsets, heights = _cone_template(cone.aperture, height_cap, mesh_depth, graph.param_dim)
    u0 = np.asarray(cone.apex_u, dtype=float)
    f0 = float(graph.height(u0)[0])
    return graph.from_graph_frame(np.column_stack([u0[None, :] + offsets, f0 + heights]))


def nontangential_max(h, cone: Cone, height_cap: float, mesh_depth: int) -> float:
    """Mesh maximum of |h| over the truncated cone; a certified lower
    bound on the true supremum (the mesh refines as mesh_depth grows).
    ``h`` maps an (N, n) array of ambient points to N values.  The
    single-cone form of ``nontangential_max_many``.
    """
    pts = cone_mesh(cone, height_cap, mesh_depth)
    vals = np.asarray(h(pts), dtype=float)
    return float(np.max(np.abs(vals)))


def nontangential_max_many(hs, graph, apex_u, aperture: float, height_cap: float, mesh_depth: int) -> np.ndarray:
    """(len(hs), len(apex_u)) array of ``nontangential_max`` values, one
    per density and apex, bit for bit.  The template is built once and
    f(u0) taken for every apex in one call; apexes then go in chunks of
    about ``_MESH_CHUNK_POINTS`` mesh points, each chunk mapped to the
    ambient frame once and evaluated once per density.  Raises the
    ValueErrors of ``Cone`` and ``_cone_template``.
    """
    check_aperture(graph, aperture)
    u0 = np.atleast_2d(np.asarray(apex_u, dtype=float))
    if u0.shape[1] != graph.param_dim:
        raise ValueError("apex_u must have length ambient_dim - 1")
    offsets, heights = _cone_template(aperture, height_cap, mesh_depth, graph.param_dim)
    f0 = graph.height(u0)
    out = np.empty((len(hs), len(u0)))
    step = max(1, _MESH_CHUNK_POINTS // len(offsets))
    for start in range(0, len(u0), step):
        sl = slice(start, start + step)
        u = u0[sl, None, :] + offsets[None, :, :]
        t = f0[sl, None] + heights[None, :]
        pts = graph.from_graph_frame(np.concatenate([u, t[:, :, None]], axis=2).reshape(-1, graph.ambient_dim))
        for i, h in enumerate(hs):
            vals = np.asarray(h(pts), dtype=float).reshape(len(t), -1)
            out[i, sl] = np.max(np.abs(vals), axis=1)
    return out


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def lp_norm(mu: DiscreteMeasure, g, p: float) -> float:
    """(sum |g|^p w)^(1/p), the sum one Sum2; 0 on an empty measure."""
    if not p >= 1:
        raise ValueError("p must be >= 1")
    powered = np.abs(density_values(g, mu)) ** p * mu.weights
    return float(sum2_rows(powered[None, :])[0]) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Principal value estimation
# ---------------------------------------------------------------------------


@dataclass
class PVResult:
    """Truncated values along a decreasing eps schedule.

    ``tail`` is the ``cauchy_tail`` of the values; ``limit_estimate`` is
    the final value.  Convergence means tail <= 1e-3 max |value|; the
    criterion is a Cauchy check, not a rate claim.
    """

    eps_schedule: list[float]
    values: list[float]
    converged: bool
    tail: float
    limit_estimate: float

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.eps_schedule, self.eps_schedule[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        if self.tail < 0:
            raise ValueError("tail must be >= 0")


def cauchy_tail(values) -> float:
    """max - min over the last quarter (at least the last two) of a trace
    along a decreasing eps schedule: the Cauchy criterion, read finitely."""
    last = values[-max(2, -(-len(values) // 4)):]
    return max(last) - min(last)


def geometric_schedule(eps0: float, eps_min: float) -> list[float]:
    """eps0 * 2^-k down to (not below) eps_min."""
    if not 0 < eps_min <= eps0 < math.inf:
        raise ValueError("need finite eps0 >= eps_min > 0")
    out = []
    e = eps0
    while e >= eps_min * (1.0 - 1e-12):
        out.append(e)
        e *= 0.5
    return out


def pv_estimate(nu: DiscreteMeasure, kernel, x, schedule) -> PVResult:
    """Principal-value study of int K(x - y) dnu(y): truncated values
    along a strictly decreasing eps schedule of at least 4 entries (as
    ``geometric_schedule`` builds, down to a floor such as floor_factor * h,
    below which the discretization carries no information), converged
    when the Cauchy tail is at most 1e-3 of the largest |value|.  The
    whole trace is one ``pair_sum_schedule`` pass with x as the single
    unit-weight point, so each value carries that engine's Sum2 bound.
    """
    if len(schedule) < 4:
        raise ValueError("schedule shorter than 4 entries")
    pole = np.asarray(x, dtype=float).reshape(1, -1)
    trace = pair_sum_schedule(pole, np.ones(1), nu.positions, nu.weights, kernel, schedule)
    values = [stats.value for stats in trace]
    tail = cauchy_tail(values)
    scale = max(abs(v) for v in values)
    return PVResult(
        eps_schedule=schedule,
        values=values,
        converged=tail <= 1e-3 * scale,
        tail=tail,
        limit_estimate=values[-1],
    )


# ---------------------------------------------------------------------------
# Double truncated integrals
# ---------------------------------------------------------------------------


class PairSumStats(NamedTuple):
    value: float
    max_abs_term: float
    pair_count: int


def _bin_sums(kernel, diffs: np.ndarray, wprod: np.ndarray, mask: np.ndarray):
    """(max |term|, term count, unrounded Sum2) of the pair terms
    K(diff) w_a w_b in ``mask``, gathered in row-major order by one flat
    index; no term outlives the call."""
    idx = np.flatnonzero(mask)
    terms = kernel.evaluate_many(diffs.reshape(len(diffs), -1).take(idx, axis=1))
    terms *= wprod.take(idx)
    return float(np.max(np.abs(terms))), len(terms), sum2_total(terms)


def pair_sum_schedule(
    pos_a: np.ndarray, w_a: np.ndarray, pos_b: np.ndarray, w_b: np.ndarray, kernel, schedule
) -> list[PairSumStats]:
    """``pair_sum_stats`` at every eps of a strictly decreasing schedule,
    from one pass over the pairs.  Bin j holds the pairs with
    eps[j] < |x_a - y_b| <= eps[j-1], each kernel term evaluated once.
    Each (distance block, bin) is summed by Sum2 in row-major order and
    kept unrounded (its float64 total and the sum of its TwoSum errors);
    the value at eps[k] is one Sum2 over the m partials of bins 0..k.
    For the exact value T of its N terms it is within u|T| +
    ((1 + u) gamma_{N-1}^2 + (1 + gamma_N)^2 gamma_{2m-1}^2) sum|t|.
    """
    eps = np.asarray(schedule, dtype=float).reshape(-1)
    if len(eps) == 0 or not np.all(eps > 0) or np.any(eps[1:] >= eps[:-1]):
        raise ValueError("eps schedule must be nonempty, positive and strictly decreasing")
    if len(pos_a) * len(pos_b) > PAIR_COUNT_GUARD:
        raise ValueError(f"pair count guard exceeded: {len(pos_a) * len(pos_b)} pairs, limit {PAIR_COUNT_GUARD}")
    partials = [[] for _ in eps]  # per bin: sum2_total of each block's terms
    max_terms = np.zeros(len(eps))
    counts = np.zeros(len(eps), dtype=np.int64)
    for sl, diffs, dist in _distance_blocks(pos_a, pos_b):
        wprod = w_a[sl][:, None] * w_b[None, :]
        outside = False  # pairs binned already: dist > eps[j-1]
        for j, e in enumerate(eps):
            # outside is a subset of dist > e, so xor leaves bin j
            mask = (dist > e) ^ outside
            outside ^= mask
            if not np.any(mask):
                continue
            max_term, count, sums = _bin_sums(kernel, diffs, wprod, mask)
            max_terms[j] = max(max_terms[j], max_term)
            counts[j] += count
            partials[j] += sums
    flat = np.array([0.0] + [x for part in partials for x in part])  # 0: no pair yet
    values = sum2_prefix(flat[None, :])[0, np.cumsum([len(part) for part in partials])]
    return [
        PairSumStats(float(v), float(m), int(c))
        for v, m, c in zip(values, np.maximum.accumulate(max_terms), np.cumsum(counts))
    ]


def pair_sum_stats(
    pos_a: np.ndarray,
    w_a: np.ndarray,
    pos_b: np.ndarray,
    w_b: np.ndarray,
    kernel,
    eps: float,
) -> PairSumStats:
    """sum over pairs (a, b) with |x_a - y_b| > eps of K(x_a - y_b) w_a w_b,
    one bin of ``pair_sum_schedule``, a Sum2 over the unrounded Sum2 of
    each distance block, with its bound.  Also reports the largest |term|
    and the number of included pairs (for cancellation bounds).
    """
    return pair_sum_schedule(pos_a, w_a, pos_b, w_b, kernel, [eps])[0]


# ---------------------------------------------------------------------------
# Explicit constants for the cone estimates
# ---------------------------------------------------------------------------


class BoundConstants(NamedTuple):
    d1: float
    d2: float
    c_n: float


def bound_constants(kernel, aperture: float) -> BoundConstants:
    """The explicit constants of the two cone estimates:
    D1 = 4^n C1 + (16 L)^(n-1) C0 and D2 = 4^n C1 + 2^(n-1) C0,
    plus C_N = max(3, D1, D2).

    Combining the two estimates with the factor 3 in front of the
    maximal transform needs C_N at least max(3, D1, D2), not D1 alone;
    the larger value is exposed deliberately.
    """
    if not aperture > 1:
        raise ValueError("aperture L must be > 1")
    n = kernel.ambient_dim
    c0, c1 = kernel.c0_declared, kernel.c1_declared
    d1 = 4.0**n * c1 + (16.0 * aperture) ** (n - 1) * c0
    d2 = 4.0**n * c1 + 2.0 ** (n - 1) * c0
    return BoundConstants(d1, d2, max(3.0, d1, d2))

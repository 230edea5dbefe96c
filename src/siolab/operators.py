"""Truncated and maximal singular integral operators on discrete measures.

Summation conventions, fixed package-wide:

* Truncation is strict: the closed ball B(x, eps) is removed, so atoms
  at distance exactly eps are excluded; the maximal-function ball is
  closed, so atoms at distance exactly r are included.
* The single-point ``truncated`` uses error-free accumulation
  (math.fsum) in atom index order.
* Every other sum follows ``summation``: a total (T^eps rows, L^p
  norms, pair sums) is one Sum2, and a sup over prefixes (T* and the
  maximal function) is a max over the Sum2 prefixes of each row; the
  table's rows (distances, kernel terms and their stable sort), the
  T^eps rows, the pair sums' partials and the sups run in the loops of
  ``sups.c``, which need a C compiler (``_compiled``).
* The supremum over all truncation radii is exact, not sampled: the
  truncated transform is piecewise constant in eps with jumps only at
  distinct atom distances, so the supremum is a maximum over suffix
  sums by distance group, plus the empty truncation value 0.

A principal value is a trace, not a verdict: ``pv_estimate`` returns the
truncated values along its caller's eps schedule, and the caller judges
convergence by ``cauchy_tail`` against its own tolerance.
"""
from __future__ import annotations

import functools
import math
import numbers
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import Cone, check_aperture
from .measure import DiscreteMeasure
from .summation import sum2_prefix, sum2_rows

PAIR_COUNT_GUARD = 10**10
# a TruncationTable stores P x N int64 order and float64 distances and
# kernel terms: 24 bytes per cell.  The guard admits 2048-point chunks
# against the 4^6 atoms of a generation-6 Cantor set (201 MB) with room
# to spare.
TABLE_BYTES_GUARD = 1 << 30
_TABLE_BYTES_PER_CELL = 24
_BLOCK_ELEMENTS = 1 << 21  # target elements per temporary block
# a cone mesh template holds fewer than K (2K+1)^d points for K = 2^mesh_depth
# levels; 2^22 admits depth 10 in d = 1, 6 in d = 2 and 4 in d = 3
MESH_POINTS_GUARD = 1 << 22
_MESH_CHUNK_POINTS = 1 << 16  # mesh points per apex chunk of nontangential_max_many


# ---------------------------------------------------------------------------
# Densities and points
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


def density_stack(gs, mu: DiscreteMeasure) -> np.ndarray:
    """Per-atom values of a stack of densities, atom-major (N, D): ``gs``
    is a sequence of densities, each as ``density_values`` reads it, or a
    2-D (D, N) array of per-atom values.  A bare number or a 1-D array is
    refused: a list of numbers is one per-atom density to
    ``density_values``, not D constant ones."""
    if isinstance(gs, np.ndarray):
        if gs.ndim != 2:
            raise TypeError(f"a density stack array must be 2-D (D, N), got {gs.ndim}-D; for one density g pass [g]")
        if gs.shape[1] != mu.count:
            raise ValueError("per-atom table length mismatch")
        vals = np.ascontiguousarray(gs.T, dtype=float)  # no copy of an atom-major stack's transpose
        if not np.all(np.isfinite(vals)):
            raise ValueError("density values must be finite")
        return vals
    if not isinstance(gs, (list, tuple)) or any(isinstance(g, numbers.Real) for g in gs):
        raise TypeError("a density stack is a sequence of densities, none a bare number, or a 2-D (D, N) array;"
                        " for one density g pass [g]")
    vals = np.empty((mu.count, len(gs)))
    for k, g in enumerate(gs):
        vals[:, k] = density_values(g, mu)
    return vals


def _points(points, dim: int) -> np.ndarray:
    """The points as a (P, dim) float array, one point as P = 1; ValueError
    unless each has ``dim`` coordinates and all are finite."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != dim or not np.all(np.isfinite(pts)):
        raise ValueError(f"points must be finite with {dim} coordinates each, got shape {pts.shape}")
    return pts


# ---------------------------------------------------------------------------
# Kernel term helpers
# ---------------------------------------------------------------------------


def _cells(monomial, pts: np.ndarray, positions: np.ndarray):
    """The leading arguments of ``sups.c``'s ``table_rows``,
    ``truncated_rows`` and ``pair_partials``: the point and atom counts,
    the dimension, the points and the atoms, and a kernel's ``monomial``
    form (P, q).  Raises ValueError unless P has the atoms' dimension."""
    powers, q = monomial
    n_atoms, dim = positions.shape
    if len(powers) != dim:
        raise ValueError(f"expected a kernel on R^{dim}, got one on R^{len(powers)}")
    pts, positions = np.ascontiguousarray(pts), np.ascontiguousarray(positions)
    return len(pts), n_atoms, dim, pts, positions, np.array(powers, np.int64), q


def _rows_per_block(n_pts: int, n_atoms: int) -> int:
    """The points per block of ``hl_maximal_batch`` and of the pair
    engine's partials: about _BLOCK_ELEMENTS point-atom pairs, at least
    one point."""
    return max(1, min(n_pts, _BLOCK_ELEMENTS // max(1, n_atoms)))


# ---------------------------------------------------------------------------
# Truncated transform
# ---------------------------------------------------------------------------


def truncated(nu: DiscreteMeasure, kernel, g, x, eps: float) -> float:
    """T^eps g(x) = sum over atoms y with |x - y| > eps (strict) of
    K(x - y) g(y) w(y), accumulated error-free in atom index order.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    (x,) = _points(x, nu.ambient_dim)  # exactly one point
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
    suits one radius per point.  One compiled pass per point computes
    each distance and kernel term and sums them (``sups.c``).
    """
    pts = _points(points, nu.ambient_dim)
    eps = np.ascontiguousarray(np.broadcast_to(np.asarray(eps, dtype=float), (len(pts),)))
    if not np.all(eps > 0):
        raise ValueError("eps must be > 0")
    out = np.zeros(len(pts))
    gw = nu.weights * density_values(g, nu)
    _compiled().truncated_rows(*_cells(kernel.monomial, pts, nu.positions), eps, gw, out)
    return out


# ---------------------------------------------------------------------------
# Maximal transform via distance breakpoints
# ---------------------------------------------------------------------------

_SUPS_SOURCE = Path(__file__).with_name("sups.c")
# FMA contraction or fast-math would round differently from the oracles
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _compiled():
    """The loops of ``sups.c`` through ctypes (the table build, T^eps, the
    pair engine and the two sups), built with ``cc`` on first use (never
    at import) into ``build/`` beside it under the CRC of source and flags
    (a per-process name renamed into place, so forked workers may race).
    They are the only implementation: where no compiler, compile, writable
    directory or loadable library is found, RuntimeError names ``cc``,
    the build directory and the tail of the compiler's message.  A compile
    removes the libraries of earlier sources from ``build/``.  ``lanes``
    holds the host's probe (``sup_lanes``, 8 with AVX-512, else 1), which
    picks the copy of ``maximal_values`` on each call."""
    import ctypes
    import zlib

    key = zlib.crc32(_SUPS_SOURCE.read_bytes() + " ".join(_CFLAGS).encode())
    lib = _SUPS_SOURCE.with_name("build") / f"sups_{key:08x}.so"
    tmp = lib.with_suffix(f".{os.getpid()}.so")
    try:
        if not lib.exists():
            import subprocess

            lib.parent.mkdir(exist_ok=True)
            build = subprocess.run(["cc", *_CFLAGS, "-o", tmp, _SUPS_SOURCE], capture_output=True, text=True)
            if build.returncode != 0:
                raise OSError("\n".join(build.stderr.splitlines()[-20:]))
            os.replace(tmp, lib)
            for stale in lib.parent.glob("sups_" + "?" * 8 + ".so"):  # not another process's temporary
                if stale != lib:
                    stale.unlink(missing_ok=True)
        dll = ctypes.CDLL(str(lib))
    except OSError as err:  # no compiler, a failed compile, an unwritable directory or a library that does not load
        tmp.unlink(missing_ok=True)
        raise RuntimeError(f"siolab needs a C compiler: `cc` could not build {_SUPS_SOURCE.name} into {lib.parent},"
                           f" or {lib.name} did not load: {err}") from err
    f64, i64, flag = (np.ctypeslib.ndpointer(t, flags="C_CONTIGUOUS") for t in (np.float64, np.int64, np.bool_))
    size = ctypes.c_int64
    dll.table_rows.argtypes = [size, size, size, f64, f64, i64, size, f64, i64, f64, f64]  # _cells, then the rest
    dll.truncated_rows.argtypes = [size, size, size, f64, f64, i64, size, f64, f64, f64]
    dll.pair_partials.argtypes = [size, size, size, f64, f64, i64, size, f64, f64, size, f64, size, f64, flag, f64, i64]
    dll.maximal_values.argtypes = [size, size, size, size, f64, i64, f64, f64, f64]
    dll.hl_maximal_values.argtypes = [size, size, size, f64, i64, f64, f64, flag]
    dll.sup_lanes.argtypes = []
    for void in (dll.truncated_rows, dll.pair_partials, dll.maximal_values, dll.hl_maximal_values):
        void.restype = None
    dll.lanes = dll.sup_lanes()
    return dll


def _sorted_rows(monomial, pts: np.ndarray, nu: DiscreteMeasure):
    """(order, dist_desc, kw_desc) of ``sups.c``'s ``table_rows``: per
    point, the atoms by distance descending, ties in atom order, and the
    terms K(x - y) w(y) of the kernel of ``monomial`` form in that order."""
    shape = (len(pts), nu.count)
    order, dist_desc, kw_desc = np.empty(shape, dtype=np.int64), np.empty(shape), np.empty(shape)
    cells = (*_cells(monomial, pts, nu.positions), np.ascontiguousarray(nu.weights))
    if _compiled().table_rows(*cells, order, dist_desc, kw_desc) != 0:
        raise MemoryError("table_rows: out of memory")
    return order, dist_desc, kw_desc


class TruncationTable:
    """Distance-sorted kernel table for a batch of evaluation points.  The
    table is its sort: ``order``, ``dist_desc`` and ``kw_desc``, built once
    per (measure, points) pair by one compiled pass per point that computes
    the row's distances and kernel terms K(x - y) w(y) into row-sized
    scratch, sorts them stably and gathers the terms (``table_rows`` in
    ``sups.c``).  A row of at most 16 natural runs is merge sorted; any
    other is distributed into one bucket per atom by distance and
    finished by one insertion sort, or merge sorted if a bucket would
    hold more than 32 atoms.  The merge takes the left item of a tie and
    the buckets and the insertion sort never reorder equal distances, so
    either path gives the one stable order, bit for bit.  The kernel must
    expose its ``monomial`` form, as the catalog's do.

    Distances are sorted descending so prefix sums ARE the truncated
    sums: the prefix through distance group d equals T^eps for eps in
    [next smaller distance, d).  Another density then costs a gather and
    one Sum2 per row (see ``summation``); a sup (T* or the maximal
    function) is a max over the prefixes that end a group of
    ``dist_desc``, in one compiled pass (``_compiled``).  T* takes a
    stack of densities in that one pass: on a host with AVX-512 (probed
    at run time, not set by build flags) 8 densities share a vector, one
    lane each, and since each lane is its density's own Sum2 with its
    operations in their order, every density gets the bits of a pass of
    its own.  Read backwards, the same sort serves the (n-1)-dimensional
    maximal function.

    A table takes 24 bytes per (point, atom) cell; building one larger
    than ``TABLE_BYTES_GUARD`` raises ValueError.
    """

    def __init__(self, nu: DiscreteMeasure, kernel, points):
        pts = _points(points, nu.ambient_dim)
        n_pts, n_atoms = len(pts), nu.count
        n_bytes = n_pts * n_atoms * _TABLE_BYTES_PER_CELL
        if n_bytes > TABLE_BYTES_GUARD:
            raise ValueError(f"truncation table byte guard exceeded: {n_bytes} bytes, limit {TABLE_BYTES_GUARD}")
        self.measure = nu
        # a zero-distance group's kernel terms are zeroed, so its group end
        # repeats the previous prefix: no special casing is needed.
        self.order, self.dist_desc, self.kw_desc = _sorted_rows(kernel.monomial, pts, nu)

    def maximal_values(self, gs) -> np.ndarray:
        """sup over eps > 0 of |T^eps g| at every point for each density g
        of the stack ``gs`` (see ``density_stack``), exact: (D, P)."""
        stack = density_stack(gs, self.measure)
        values = np.empty((stack.shape[1], len(self.order)))
        lib = _compiled()
        lib.maximal_values(*self.order.shape, stack.shape[1], lib.lanes, stack, self.order, self.dist_desc,
                           self.kw_desc, values)
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
        terms = density_values(g, self.measure)[self.order] * self.kw_desc
        return sum2_rows(np.where(self.dist_desc > eps[:, None], terms, 0.0))

    def hl_maximal_values(self, g):
        """``hl_maximal_batch`` at the table's points, bit for bit."""
        mass = np.abs(density_values(g, self.measure)) * self.measure.weights
        return _hl_from_descending(mass, self.measure.ambient_dim, self.order, self.dist_desc)


def maximal(nu: DiscreteMeasure, kernel, g, x) -> float:
    """T* g(x) = sup over eps > 0 of |T^eps g(x)|, computed exactly by
    the breakpoint algorithm (suffix sums by distance group).
    """
    (x,) = _points(x, nu.ambient_dim)  # exactly one point
    return float(TruncationTable(nu, kernel, x[None, :]).maximal_values([density_values(g, nu)])[0, 0])


# ---------------------------------------------------------------------------
# (n-1)-dimensional maximal function
# ---------------------------------------------------------------------------


def _hl_from_descending(atom_mass: np.ndarray, n: int, order: np.ndarray, dist_desc: np.ndarray):
    """(values, diverges) of the maximal function with per-atom masses
    |g| w in ambient dimension n, from per-point atom indices and their
    distances sorted descending, read backwards.

    Candidate radii are the distinct atom distances: mass is constant
    between them while r^(1-n) decreases, so breakpoints realize the sup.
    Each candidate is a Sum2 prefix of the masses times 1 / (r ... r),
    n - 1 factors r, in one compiled pass (``sups.c``).
    """
    values, diverges = np.empty(len(order)), np.empty(len(order), dtype=bool)
    _compiled().hl_maximal_values(*order.shape, n, atom_mass, order, dist_desc, values, diverges)
    return values, diverges


def hl_maximal_batch(nu: DiscreteMeasure, g, points):
    """sup over r > 0 of r^(1-n) * integral of |g| over the closed ball
    B(x, r), per point.  Returns (values, diverges); a point sitting on
    an atom with |g| w > 0 diverges (r^(1-n) blows up as r -> 0) and its
    value entry is +inf.  Each block of ``_rows_per_block`` points is
    sorted as a table's rows are, by the constant kernel (P = 0, q = 0),
    whose terms go unread.
    """
    pts = _points(points, nu.ambient_dim)
    values, diverges = np.zeros(len(pts)), np.zeros(len(pts), dtype=bool)
    a = np.abs(density_values(g, nu)) * nu.weights
    step = _rows_per_block(len(pts), nu.count)
    for start in range(0, len(pts), step):
        sl = slice(start, start + step)
        order, dist_desc, _ = _sorted_rows(((0,) * nu.ambient_dim, 0), pts[sl], nu)
        values[sl], diverges[sl] = _hl_from_descending(a, nu.ambient_dim, order, dist_desc)
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
    ValueErrors of ``Cone``, ``_points`` and ``_cone_template``.
    """
    check_aperture(graph, aperture)
    u0 = _points(apex_u, graph.param_dim)
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
    if not 1 <= p < math.inf:
        raise ValueError("p must be in [1, inf)")
    powered = np.abs(density_values(g, mu)) ** p * mu.weights
    return float(sum2_rows(powered[None, :])[0]) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Principal value estimation
# ---------------------------------------------------------------------------


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


def pv_estimate(nu: DiscreteMeasure, kernel, x, schedule) -> list[float]:
    """Principal-value trace of int K(x - y) dnu(y): the truncated values
    along a strictly decreasing eps schedule (as ``geometric_schedule``
    builds, down to a floor such as floor_factor * h, below which the
    discretization carries no information).  One ``pair_sum_schedule``
    pass with x as the single unit-weight point, so each value carries
    that engine's Sum2 bound.
    """
    (pole,) = _points(x, nu.ambient_dim)  # exactly one point
    trace = pair_sum_schedule(pole[None, :], np.ones(1), nu.positions, nu.weights, kernel, schedule)
    return [stats.value for stats in trace]


# ---------------------------------------------------------------------------
# Double truncated integrals
# ---------------------------------------------------------------------------


class PairSumStats(NamedTuple):
    value: float
    max_abs_term: float
    pair_count: int


def _pair_partials(pos_a: np.ndarray, w_a: np.ndarray, pos_b: np.ndarray, w_b: np.ndarray, kernel, eps):
    """The pass of ``pair_sum_schedule`` over the pairs: (partials, seen,
    max |term|, count).  Per (block of ``_rows_per_block`` rows of pos_a,
    bin) the unrounded Sum2 of the bin's terms in row-major order (the
    float64 sum and the sequential sum of its TwoSum errors), and whether
    the block has any; per bin the max |term| (NaN once a term is, as
    np.max) and the term count.  One compiled pass (``sups.c``'s
    ``pair_partials``)."""
    block = _rows_per_block(len(pos_a), len(pos_b))
    partials = np.zeros((-(-len(pos_a) // block), len(eps), 2))
    seen = np.zeros(partials.shape[:2], dtype=bool)
    max_terms = np.zeros(len(eps))
    counts = np.zeros(len(eps), dtype=np.int64)
    _compiled().pair_partials(*_cells(kernel.monomial, pos_a, pos_b), w_a, w_b, len(eps), eps, block, partials, seen,
                              max_terms, counts)
    return partials, seen, max_terms, counts


def pair_sum_schedule(
    pos_a: np.ndarray, w_a: np.ndarray, pos_b: np.ndarray, w_b: np.ndarray, kernel, schedule
) -> list[PairSumStats]:
    """``pair_sum_stats`` at every eps of a strictly decreasing schedule,
    from one pass over the pairs (``_pair_partials``).  Bin j holds the
    pairs with eps[j] < |x_a - y_b| <= eps[j-1], each kernel term
    evaluated once.  Each (distance block, bin) is summed by Sum2 in
    row-major order and kept unrounded (its float64 total and the
    sequential sum of its TwoSum errors); the value at eps[k] is one Sum2
    over the m partials of bins 0..k, bin-major.  For the exact value T of
    its N terms it is within u|T| + ((1 + u) gamma_{N-1}^2 +
    (1 + gamma_N)^2 gamma_{2m-1}^2) sum|t|.  ``max_abs_term`` is NaN once
    an included term is.

    Positions are finite, one row per point, both of the kernel's
    dimension, and the weights finite, one per position: ValueError
    otherwise.
    """
    eps = np.ascontiguousarray(schedule, dtype=float).reshape(-1)
    if len(eps) == 0 or not np.all(eps > 0) or np.any(eps[1:] >= eps[:-1]):
        raise ValueError("eps schedule must be nonempty, positive and strictly decreasing")
    pos_a, pos_b = (_points(pos, kernel.ambient_dim) for pos in (pos_a, pos_b))
    w_a, w_b = (np.ascontiguousarray(w, dtype=float) for w in (w_a, w_b))
    for w, pos in ((w_a, pos_a), (w_b, pos_b)):
        if w.shape != (len(pos),) or not np.all(np.isfinite(w)):
            raise ValueError(f"weights must be finite, one per position: got shape {w.shape} for {len(pos)} positions")
    if len(pos_a) * len(pos_b) > PAIR_COUNT_GUARD:
        raise ValueError(f"pair count guard exceeded: {len(pos_a) * len(pos_b)} pairs, limit {PAIR_COUNT_GUARD}")
    partials, seen, max_terms, counts = _pair_partials(pos_a, w_a, pos_b, w_b, kernel, eps)
    flat = np.concatenate([[0.0], partials.transpose(1, 0, 2)[seen.T].reshape(-1)])  # 0: no pair yet
    values = sum2_prefix(flat[None, :])[0, 2 * np.cumsum(np.count_nonzero(seen, axis=0))]
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

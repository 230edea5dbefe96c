"""Truncated and maximal singular integral operators on discrete measures.

Summation conventions, fixed package-wide:

* Truncation is strict: the closed ball B(x, eps) is removed, so atoms
  at distance exactly eps are excluded; the maximal-function ball is
  closed, so atoms at distance exactly r are included.
* Every sum follows ``summation``: a total (T^eps rows, L^p norms,
  pair sums) is one Sum2, and a sup over prefixes (T* and the maximal
  function) is a max over the Sum2 prefixes of each row; the sups (each
  point's row of distances and kernel terms, stably sorted and read
  while it is in scratch), the T^eps rows, the pair sums' partials and
  the L^p norms' totals (``lp_norms``, one pass over a stack of
  densities) run in the loops of ``sups.c``,
  which need a C compiler (``_compiled``), each one text built at lane
  widths 1 and 8 and run at the width that the host's probe picks
  (``lanes``), each width with the same bits.  T^eps has one
  home, ``truncated_batch``; ``truncated`` and ``truncated_values*`` call
  it.
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
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import Cone, check_aperture
from .measure import DiscreteMeasure
from .summation import sum2_prefix

PAIR_COUNT_GUARD = 10**10
# bounds the P x N (point, atom) cells one _row_sups call sorts (a
# TruncationTable's sups, or hl_maximal_batch's), not memory the call
# holds: it sorts one row at a time in O(N) scratch.  The limit,
# 44,739,242 cells, admits 2048-point chunks against the 4^6 atoms of a
# generation-6 Cantor set (8.4 M cells) with room to spare.
SORT_CELLS_GUARD = (1 << 30) // 24
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
    2-D (D, N) array, read as its D rows.  A bare number, an array of
    another rank or a number in the sequence is refused: a list of numbers
    is one per-atom density to ``density_values``, not D constant ones."""
    return _density_rows(gs, mu, "F").T


def _density_rows(gs, mu: DiscreteMeasure, order: str) -> np.ndarray:
    """The values of ``density_stack`` as D rows, a (D, N) array laid out
    in ``order``: "C", one row per density, or "F", whose transpose is
    the atom-major stack."""
    if isinstance(gs, np.ndarray) and gs.ndim == 2:
        gs = list(gs)
    if not isinstance(gs, (list, tuple)) or any(isinstance(g, numbers.Real) for g in gs):
        raise TypeError("a density stack is a sequence of densities, none a bare number, or a 2-D (D, N) array;"
                        " for one density g pass [g]")
    rows = np.empty((len(gs), mu.count), order=order)
    for k, g in enumerate(gs):
        rows[k] = density_values(g, mu)
    return rows


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
    """The leading arguments of ``sups.c``'s ``row_sups``,
    ``truncated_rows`` and ``pair_partials``: the point and atom counts,
    the dimension, the points and the atoms, and a kernel's ``monomial``
    form (P, q).  Raises ValueError unless P has the atoms' dimension."""
    powers, q = monomial
    n_atoms, dim = positions.shape
    if len(powers) != dim:
        raise ValueError(f"expected a kernel on R^{dim}, got one on R^{len(powers)}")
    pts, positions = np.ascontiguousarray(pts), np.ascontiguousarray(positions)
    return len(pts), n_atoms, dim, pts, positions, np.array(powers, np.int64), q


# ---------------------------------------------------------------------------
# Truncated transform
# ---------------------------------------------------------------------------


def truncated(nu: DiscreteMeasure, kernel, g, x, eps: float) -> float:
    """T^eps g(x) = sum over atoms y with |x - y| > eps (strict) of
    K(x - y) g(y) w(y): the one-point call of ``truncated_batch``.
    """
    (x,) = _points(x, nu.ambient_dim)  # exactly one point
    return float(truncated_batch(nu, kernel, g, x[None, :], eps)[0])


def truncated_batch(nu: DiscreteMeasure, kernel, g, points, eps) -> np.ndarray:
    """T^eps g at every point, eps a scalar or one radius per point, by a
    masked Sum2 over atoms (strict truncation); no distance sort, so it
    suits one radius per point.  One compiled pass per point computes
    each distance and kernel term and sums them (``sups.c``), W points
    per vector at lane width W (``lanes``), one lane each.
    """
    pts = _points(points, nu.ambient_dim)
    eps = np.ascontiguousarray(np.broadcast_to(np.asarray(eps, dtype=float), (len(pts),)))
    if not np.all(eps > 0):
        raise ValueError("eps must be > 0")
    out = np.zeros(len(pts))
    gw = nu.weights * density_values(g, nu)
    lib = _compiled()
    lib.truncated_rows(*_cells(kernel.monomial, pts, nu.positions), lib.lanes, eps, gw, out)
    return out


# ---------------------------------------------------------------------------
# Maximal transform via distance breakpoints
# ---------------------------------------------------------------------------

_SUPS_SOURCE = Path(__file__).with_name("sups.c")
# FMA contraction or fast-math would round differently from the oracles
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_BUILD_LOCK = threading.Lock()  # one build at a time: threads share the pid that names the temporary


@functools.cache
def _compiled():
    """The loops of ``sups.c`` through ctypes (the sups, T^eps, the
    pair engine and the row totals of ``lp_norms``), built with ``cc`` on
    first use (never at import) into ``build/`` beside it under the CRC of source and flags
    (a per-process name renamed into place, one thread at a time, so
    concurrent first calls and other processes may race).
    They are the only implementation: where no compiler, compile, writable
    directory or loadable library is found, RuntimeError names ``cc``,
    the build directory and the tail of the compiler's message.  A compile
    removes the libraries of earlier sources from ``build/``.  ``lanes``
    holds the host's probe (``sup_lanes``, 8 with AVX-512, else 1), which
    every caller passes to pick the lane width at which each loop runs:
    each is one text, built at widths 1 and 8, and with 8 the row loops
    (the sups' distances and terms, T^eps, the pair engine and M) take 8
    points per vector and T* takes 8 densities, or 8 rows of one; each
    lane keeps the bits of width 1.  An array argument may be None, passed as
    NULL, which ``row_sups`` reads as no mass."""
    import ctypes
    import zlib

    key = zlib.crc32(_SUPS_SOURCE.read_bytes() + " ".join(_CFLAGS).encode())
    lib = _SUPS_SOURCE.with_name("build") / f"sups_{key:08x}.so"
    tmp = lib.with_suffix(f".{os.getpid()}.so")
    try:
        with _BUILD_LOCK:
            if not lib.exists():
                import subprocess

                lib.parent.mkdir(exist_ok=True)
                # absolute: the source includes itself by __FILE__, which cc resolves from the file's directory
                build = subprocess.run(["cc", *_CFLAGS, "-o", tmp, _SUPS_SOURCE.absolute()], capture_output=True,
                                       text=True)
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
    def array(dtype):
        """A C-contiguous array of dtype, or None passed as NULL."""
        kind = np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")
        convert = classmethod(lambda cls, a: None if a is None else kind.from_param(a))
        return type(kind.__name__, (kind,), {"from_param": convert})

    f64, i64, flag = (array(t) for t in (np.float64, np.int64, np.bool_))
    size = ctypes.c_int64
    dll.row_sups.argtypes = [size, size, size, f64, f64, i64, size, size, f64, size, f64, f64, f64, f64, flag]
    dll.truncated_rows.argtypes = [size, size, size, f64, f64, i64, size, size, f64, f64, f64]  # _cells, lanes, ...
    dll.pair_partials.argtypes = [size, size, size, f64, f64, i64, size, size, f64, f64, size, f64, f64, f64, i64]
    dll.sum2_rows.argtypes = [size, size, f64, f64]
    dll.sup_lanes.argtypes = []
    dll.truncated_rows.restype = dll.sum2_rows.restype = None
    dll.lanes = dll.sup_lanes()
    return dll


def check_sort_cells(n_cells: int) -> None:
    """ValueError past ``SORT_CELLS_GUARD`` (point, atom) cells in one sort."""
    if n_cells > SORT_CELLS_GUARD:
        raise ValueError(f"sort cell guard exceeded: {n_cells} cells, limit {SORT_CELLS_GUARD}")


def _row_sups(monomial, pts: np.ndarray, nu: DiscreteMeasure, stack: np.ndarray, mass):
    """(T*, (M, diverges)) at the points ``pts`` from ``sups.c``'s
    ``row_sups``: per point, one compiled pass computes each cell's
    distance and (for a nonempty ``stack``) term K(x - y) w(y) of the
    kernel of ``monomial`` form, sorts the cells by distance descending,
    ties in atom order, and reads T* of each density of the atom-major
    (N, D) ``stack`` into a (D, P) array and, unless ``mass`` is None, M
    of the per-atom masses ``mass`` from it while it is sorted; the M pair
    is (None, None) without mass.  ValueError before the call past
    ``SORT_CELLS_GUARD`` cells, MemoryError if its O(N) scratch cannot be
    allocated."""
    check_sort_cells(len(pts) * nu.count)
    tstar = np.empty((stack.shape[1], len(pts)))
    values, diverges = (None, None) if mass is None else (np.empty(len(pts)), np.empty(len(pts), dtype=bool))
    lib = _compiled()
    cells = (*_cells(monomial, pts, nu.positions), lib.lanes, np.ascontiguousarray(nu.weights))
    if lib.row_sups(*cells, stack.shape[1], stack, tstar, mass, values, diverges) != 0:
        raise MemoryError("row_sups: out of memory")
    return tstar, (values, diverges)


class TruncationTable:
    """The truncations of a kernel's transform at a batch of evaluation
    points: the measure, the kernel and the points, and no more.  A sup
    sorts each point's row as it is read and holds no row: one compiled
    pass per point (``row_sups`` in ``sups.c``, whose header states how a
    row is sorted) sorts the row's cells by distance descending, ties in
    atom order, each cell carrying its kernel term K(x - y) w(y), and
    takes the sups from the sorted row while it is there.  The kernel
    must expose its ``monomial`` form, as the catalog's do.

    In that order the prefix sums ARE the truncated sums: the prefix
    through distance group d equals T^eps for eps in [next smaller
    distance, d).  A sup (T* or the maximal function) is a max over the
    prefixes that end a distance group, so ``sups`` takes T* of a stack
    of densities and M from one sort, and every density of the stack gets
    the bits of a pass of its own, at either lane width.  One radius
    needs no sort: ``truncated_values*`` are ``truncated_batch`` at the
    table's ``points`` and ``kernel``.

    A call allocates its (D, P) output and O(N) scratch; one that would
    sort more than ``SORT_CELLS_GUARD`` (point, atom) cells raises
    ValueError.
    """

    def __init__(self, nu: DiscreteMeasure, kernel, points):
        self.points = _points(points, nu.ambient_dim).copy()  # the table's, not the caller's array
        self.measure, self.kernel = nu, kernel

    def maximal_values(self, gs) -> np.ndarray:
        """sup over eps > 0 of |T^eps g| at every point for each density g
        of the stack ``gs`` (see ``density_stack``), exact: (D, P)."""
        return _row_sups(self.kernel.monomial, self.points, self.measure, density_stack(gs, self.measure), None)[0]

    def sups(self, gs, g):
        """(``maximal_values(gs)``, ``hl_maximal_batch`` of g at the
        table's points), bit for bit, from one sort per point."""
        mass = np.abs(density_values(g, self.measure)) * self.measure.weights
        return _row_sups(self.kernel.monomial, self.points, self.measure, density_stack(gs, self.measure), mass)

    def truncated_values(self, g, eps: float) -> np.ndarray:
        """T^eps g at every point: ``truncated_batch`` at the table's points."""
        return truncated_batch(self.measure, self.kernel, g, self.points, eps)

    def truncated_values_per_point(self, g, eps: np.ndarray) -> np.ndarray:
        """``truncated_values`` with one radius per point, shape (P,)."""
        eps = np.asarray(eps, dtype=float)
        if eps.shape != (len(self.points),):
            raise ValueError(f"eps must hold one radius per point, shape ({len(self.points)},), got {eps.shape}")
        return truncated_batch(self.measure, self.kernel, g, self.points, eps)


def maximal(nu: DiscreteMeasure, kernel, g, x) -> float:
    """T* g(x) = sup over eps > 0 of |T^eps g(x)|, computed exactly by
    the breakpoint algorithm (suffix sums by distance group).
    """
    (x,) = _points(x, nu.ambient_dim)  # exactly one point
    return float(TruncationTable(nu, kernel, x[None, :]).maximal_values([density_values(g, nu)])[0, 0])


# ---------------------------------------------------------------------------
# (n-1)-dimensional maximal function
# ---------------------------------------------------------------------------


def hl_maximal_batch(nu: DiscreteMeasure, g, points):
    """sup over r > 0 of r^(1-n) * integral of |g| over the closed ball
    B(x, r), per point.  Returns (values, diverges); a point sitting on
    an atom with |g| w > 0 diverges (r^(1-n) blows up as r -> 0) and its
    value entry is +inf.

    Candidate radii are the distinct atom distances: mass is constant
    between them while r^(1-n) decreases, so breakpoints realize the sup.
    Each candidate is a Sum2 prefix of the masses |g| w, read by distance
    ascending, times 1 / (r ... r), n - 1 factors r.  The points' rows are
    sorted as a table's are, with no densities, so no kernel term is
    computed, under the table's ``SORT_CELLS_GUARD``, in one compiled
    pass (``_row_sups``) that takes 8 rows per vector where the host has
    AVX-512 (``_compiled``).
    """
    pts = _points(points, nu.ambient_dim)
    mass = np.abs(density_values(g, nu)) * nu.weights
    return _row_sups(((0,) * nu.ambient_dim, 0), pts, nu, np.empty((nu.count, 0)), mass)[1]


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


def cone_mesh(graph, u0: np.ndarray, f0: np.ndarray, offsets: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """The truncated cones Gamma(x0) intersected with {t - f(u0) <=
    height_cap} of a block of apexes (u0, f0 = f(u0)), meshed by the
    apex-free template (``offsets``, ``heights``) of ``_cone_template``:
    the points (u0 + offsets, f0 + heights) in ambient coordinates, apex
    by apex, shape (len(u0) * M, n).
    """
    u = u0[:, None, :] + offsets[None, :, :]
    t = f0[:, None] + heights[None, :]
    return graph.from_graph_frame(np.concatenate([u, t[:, :, None]], axis=2).reshape(-1, graph.ambient_dim))


def nontangential_max(h, cone: Cone, height_cap: float, mesh_depth: int) -> float:
    """Mesh maximum of |h| over the truncated cone; a certified lower
    bound on the true supremum (the mesh refines as mesh_depth grows).
    ``h`` maps an (N, n) array of ambient points to N values.  The
    one-cone call of ``nontangential_max_many``.
    """
    return float(nontangential_max_many([h], cone.graph, [cone.apex_u], cone.aperture, height_cap, mesh_depth)[0, 0])


def nontangential_max_many(hs, graph, apex_u, aperture: float, height_cap: float, mesh_depth: int) -> np.ndarray:
    """(len(hs), len(apex_u)) array: per density h and apex u0, the max
    of |h| over the ``cone_mesh`` at u0.  The template is built once and
    f(u0) taken for every apex in one call; apexes then go in chunks of
    about ``_MESH_CHUNK_POINTS`` mesh points, each chunk meshed once
    (``cone_mesh``) and evaluated once per density.  Raises the
    ValueErrors of ``check_aperture``, ``_points`` and ``_cone_template``.
    """
    check_aperture(graph, aperture)
    u0 = _points(apex_u, graph.param_dim)
    offsets, heights = _cone_template(aperture, height_cap, mesh_depth, graph.param_dim)
    f0 = graph.height(u0)
    out = np.empty((len(hs), len(u0)))
    step = max(1, _MESH_CHUNK_POINTS // len(offsets))
    for start in range(0, len(u0), step):
        sl = slice(start, start + step)
        pts = cone_mesh(graph, u0[sl], f0[sl], offsets, heights)
        for i, h in enumerate(hs):
            vals = np.asarray(h(pts), dtype=float).reshape(-1, len(offsets))
            out[i, sl] = np.max(np.abs(vals), axis=1)
    return out


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def lp_norm(mu: DiscreteMeasure, g, p: float) -> float:
    """(sum |g|^p w)^(1/p), g any density of ``density_values``: the
    one-density call of ``lp_norms``."""
    return float(lp_norms(mu, [density_values(g, mu)], p)[0])


def lp_norms(mu: DiscreteMeasure, gs, p: float) -> np.ndarray:
    """(sum |g|^p w)^(1/p) for each density g of the stack ``gs`` (see
    ``density_stack``), shape (D,), each sum one Sum2 and 0 on an empty
    measure.  The stack is one (D, N) array, powered in place, whose rows
    one compiled pass sums (``sups.c``'s ``sum2_rows``); the root is a
    Python float power."""
    if not 1 <= p < math.inf:
        raise ValueError("p must be in [1, inf)")
    powered = _density_rows(gs, mu, "C")
    np.abs(powered, out=powered)
    powered **= p
    powered *= mu.weights
    totals = np.empty(len(powered))
    _compiled().sum2_rows(*powered.shape, powered, totals)
    return np.array([float(total) ** (1.0 / p) for total in totals])


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
    """The pass of ``pair_sum_schedule`` over the pairs: (partials, max
    |term|, count).  Per bin the unrounded Sum2 of the bin's terms in
    row-major order (the float64 sum and the sequential sum of its
    TwoSum errors), the max |term| (NaN once a term is, as np.max) and
    the term count.  One compiled pass (``sups.c``'s ``pair_partials``);
    at lane width W it computes the terms of W rows per vector into
    scratch, then bins them row by row.  MemoryError if that
    scratch cannot be allocated."""
    partials = np.zeros((len(eps), 2))
    max_terms = np.zeros(len(eps))
    counts = np.zeros(len(eps), dtype=np.int64)
    lib = _compiled()
    if lib.pair_partials(*_cells(kernel.monomial, pos_a, pos_b), lib.lanes, w_a, w_b, len(eps), eps, partials,
                         max_terms, counts) != 0:
        raise MemoryError("pair_partials: out of memory")
    return partials, max_terms, counts


def pair_sum_schedule(
    pos_a: np.ndarray, w_a: np.ndarray, pos_b: np.ndarray, w_b: np.ndarray, kernel, schedule
) -> list[PairSumStats]:
    """``pair_sum_stats`` at every eps of a strictly decreasing schedule,
    from one pass over the pairs (``_pair_partials``).  Bin j holds the
    pairs with eps[j] < |x_a - y_b| <= eps[j-1], each kernel term
    evaluated once.  Each bin is summed by Sum2 in row-major order and
    kept unrounded (its float64 total and the sequential sum of its
    TwoSum errors); the value at eps[k] is one Sum2 over the partials of
    the m non-empty bins among 0..k, in bin order.  For the exact value T
    of its N terms it is within u|T| + ((1 + u) gamma_{N-1}^2 +
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
    partials, max_terms, counts = _pair_partials(pos_a, w_a, pos_b, w_b, kernel, eps)
    flat = np.concatenate([[0.0], partials[counts > 0].reshape(-1)])  # 0: no pair yet
    values = sum2_prefix(flat[None, :])[0, 2 * np.cumsum(counts > 0)]
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
    one bin of ``pair_sum_schedule``, the unrounded Sum2 of its terms
    rounded once, with its bound.  Also reports the largest |term|
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

"""Simple functions and Cauchy-convergence studies of their bilinear
pairing with truncated transforms.

For simple functions f = sum_i a_i X(Q_i), g = sum_j b_j X(P_j) the
pairing expands bilinearly:

    int T^eps(f) g dmu = sum_j sum_i b_j a_i [double integral over
                         P_j x Q_i of K(x - y), |x - y| > eps]

A single shape pair (P, Q) splits by overlap into four blocks, each one
pair sum between restricted atom sets along the whole schedule:

    I1: P&Q -> P&Q   (vanishes by antisymmetry, for every eps)
    I2: P\\Q -> P&Q   I3: P&Q -> Q\\P   I4: P\\Q -> Q\\P

with x ranging over the first set and y over the second.  Shape
membership is closed, as for the operators' balls.  The convergence
argument makes the blocks with x outside Q separated configurations
through the 2n complement regions of Q; each study checks that on its
own atoms (``_regions_separated``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Shape, decompose_complement
from .measure import DiscreteMeasure
from .operators import pair_sum_schedule
from .operators import pair_sum_stats  # noqa: F401  kept bound here for perfbench/tracing.py

CANCELLATION_FACTOR = 2.0**-50  # cancellation bounds read N^2 * this * max|term|


def cancellation_noise(weight: float, pair_count: int, max_abs_term: float) -> float:
    """A pair sum's noise bound: weight x max(pair_count, 1) x CANCELLATION_FACTOR x max |term|, left to right."""
    return weight * max(pair_count, 1) * CANCELLATION_FACTOR * max_abs_term


@dataclass(eq=False)
class SimpleFunction:
    """Finite linear combination of shape indicators, homogeneous per
    function: all balls or all rectangles.
    """

    terms: list[tuple[float, Shape]]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        kinds = {type(s) for _, s in self.terms}
        if len(kinds) != 1:
            raise ValueError("shapes must be homogeneous (all balls or all rectangles)")

    def evaluate_many(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(len(pts))
        for coef, shape in self.terms:
            out += coef * shape.contains_many(pts)
        return out


def _regions_separated(pos: np.ndarray, q_shape: Shape, p_only, in_q) -> bool:
    """Each P\\Q atom lies on or above the graph of its complement region
    of Q (not strictly: ``assign`` falls back to the highest graph within
    tolerance), and every atom of Q on or below every graph, to ON_TOLERANCE."""
    decomp = decompose_complement(q_shape)
    region = decomp.assign(pos)
    return all(
        np.all(graph.classify_many(pos[p_only & (region == r)]) >= 0)
        and np.all(graph.classify_many(pos[in_q]) <= 0)
        for r, graph in enumerate(decomp.graphs)
    )


@dataclass
class TraceRow:
    g_term: int
    f_term: int
    eps: float
    value: float  # coefficient-weighted contribution of this shape pair
    i1: float
    i2: float
    i3: float
    i4: float


@dataclass
class PairingTrace:
    """Pairing values along a decreasing eps schedule with the per-term
    overlap decomposition; ``block_totals[k]`` holds, per block I1..I4, the
    sum over shape pairs of b_j a_i times that block at eps k.

    ``cancellation_noise`` bounds the arithmetic noise of the trace: the
    largest over eps of the sum over shape pairs of |b_j a_i| x pair count
    x 2^-50 x largest |term|, so it scales with the values it bounds; a
    tail at or below it is indistinguishable from exact cancellation.
    ``regions_separated`` holds when ``_regions_separated`` does for
    every shape pair.
    """

    eps_schedule: list[float]
    values: list[float]
    rows: list[TraceRow]
    block_totals: list[list[float]]
    cancellation_noise: float
    regions_separated: bool


def convergence_study(
    mu: DiscreteMeasure,
    kernel,
    f: SimpleFunction,
    g: SimpleFunction,
    eps_schedule,
) -> PairingTrace:
    """Trace the pairing along the schedule, decomposing each shape pair
    into the four overlap blocks, one pair sum each, and check on the
    atoms the separation that the convergence argument takes from the
    complement regions A_r(Q) (see ``_regions_separated``).

    The schedule must be decreasing and geometric with at least 8 points
    and stay at or above 4x the measure resolution.
    """
    schedule = [float(e) for e in eps_schedule]
    if len(schedule) < 8:
        raise ValueError("schedule must have at least 8 points")
    if min(schedule) < 4.0 * mu.resolution * (1.0 - 1e-12):
        raise ValueError("schedule goes below 4x the measure resolution")
    ratios = [b / a for a, b in zip(schedule, schedule[1:])]
    if max(ratios) - min(ratios) > 1e-9:
        raise ValueError("schedule must be geometric")

    rows: list[TraceRow] = []
    totals: list[list[float]] = [[] for _ in schedule]
    weighted: list[list[list[float]]] = [[] for _ in schedule]  # b_j a_i x each block
    noise: list[list[float]] = [[] for _ in schedule]  # one bound per shape pair
    separated = True
    pos = mu.positions
    for j, (b_j, p_shape) in enumerate(g.terms):
        for i, (a_i, q_shape) in enumerate(f.terms):
            in_p, in_q = p_shape.contains_many(pos), q_shape.contains_many(pos)
            both, p_only, q_only = in_p & in_q, in_p & ~in_q, in_q & ~in_p
            separated &= _regions_separated(pos, q_shape, p_only, in_q)
            traces = [
                pair_sum_schedule(pos[x], mu.weights[x], pos[y], mu.weights[y], kernel, schedule)
                for x, y in ((both, both), (p_only, both), (both, q_only), (p_only, q_only))
            ]
            coef = b_j * a_i
            for k, eps in enumerate(schedule):
                parts = [t[k] for t in traces]
                blocks = [s.value for s in parts]
                contribution = coef * math.fsum(blocks)
                rows.append(TraceRow(j, i, eps, contribution, *blocks))
                totals[k].append(contribution)
                weighted[k].append([coef * v for v in blocks])
                pair_count = sum(s.pair_count for s in parts)
                noise[k].append(cancellation_noise(abs(coef), pair_count, max(s.max_abs_term for s in parts)))
    values = [math.fsum(parts) for parts in totals]
    block_totals = [[math.fsum(col) for col in zip(*w)] for w in weighted]
    return PairingTrace(schedule, values, rows, block_totals, max(map(math.fsum, noise)), separated)

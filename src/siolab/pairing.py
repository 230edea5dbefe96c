"""Bilinear pairings of truncated transforms against simple functions,
their overlap decomposition, and Cauchy-convergence studies.

For simple functions f = sum_i a_i X(Q_i), g = sum_j b_j X(P_j) the
pairing expands bilinearly:

    int T^eps(f) g dmu = sum_j sum_i b_j a_i [double integral over
                         P_j x Q_i of K(x - y), |x - y| > eps]

so everything reduces to pair sums between restricted atom sets.  A
single shape pair (P, Q) splits by overlap into the four blocks

    I1: P&Q -> P&Q   (vanishes by antisymmetry, for every eps)
    I2: P\\Q -> P&Q   I3: P&Q -> Q\\P   I4: P\\Q -> Q\\P

with x ranging over the first set and y over the second.  I3 mirrors I2
under relabeling, which is the discrete Fubini identity checked here.
Shape membership is closed, consistent with the closed balls used by
the operators; assignment of exterior atoms to complement regions uses
the first-match rule of the geometry module, so no atom is counted
twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Shape, decompose_complement
from .measure import DiscreteMeasure
from .operators import PairSumStats, pair_sum_schedule
from .operators import pair_sum_stats  # noqa: F401  kept bound here for perfbench/tracing.py

CANCELLATION_FACTOR = 2.0**-50  # cancellation bounds read N^2 * this * max|term|


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


def pairing(mu: DiscreteMeasure, kernel, f: SimpleFunction, g: SimpleFunction, eps: float) -> float:
    """int T^eps(f)(x) g(x) dmu(x), expanded bilinearly over shape pairs."""
    g_masks = [(b_j, p.contains_many(mu.positions)) for b_j, p in g.terms]
    f_masks = [(a_i, q.contains_many(mu.positions)) for a_i, q in f.terms]
    return math.fsum(
        b_j * a_i * _masked_pair(mu, kernel, mask_p, mask_q, [eps])[0].value
        for b_j, mask_p in g_masks
        for a_i, mask_q in f_masks
    )


class IDecomposition(NamedTuple):
    i1: float
    i2: float
    i3: float
    i4: float
    max_abs_term: float
    pair_count: int

    @property
    def total(self) -> float:
        return math.fsum([self.i1, self.i2, self.i3, self.i4])


def _overlap_masks(mu: DiscreteMeasure, p_shape: Shape, q_shape: Shape):
    in_p = p_shape.contains_many(mu.positions)
    in_q = q_shape.contains_many(mu.positions)
    return in_p & in_q, in_p & ~in_q, in_q & ~in_p


def _masked_pair(mu, kernel, mask_x, mask_y, schedule) -> list[PairSumStats]:
    return pair_sum_schedule(
        mu.positions[mask_x], mu.weights[mask_x],
        mu.positions[mask_y], mu.weights[mask_y],
        kernel, schedule,
    )


def i_decomposition(mu: DiscreteMeasure, kernel, p_shape: Shape, q_shape: Shape, eps: float) -> IDecomposition:
    """The four overlap blocks of the double integral over P x Q."""
    both, p_only, q_only = _overlap_masks(mu, p_shape, q_shape)
    s1, s2, s3, s4 = (
        _masked_pair(mu, kernel, x, y, [eps])[0]
        for x, y in ((both, both), (p_only, both), (both, q_only), (p_only, q_only))
    )
    return IDecomposition(
        s1.value, s2.value, s3.value, s4.value,
        max(s.max_abs_term for s in (s1, s2, s3, s4)),
        sum(s.pair_count for s in (s1, s2, s3, s4)),
    )


def fubini_check(mu: DiscreteMeasure, kernel, p_shape: Shape, q_shape: Shape, eps: float) -> float:
    """Residual |I3 + J| where J swaps the roles of the two I3 regions.

    Relabeling the pair sum and using antisymmetry gives the exact
    discrete identity I3 = -J (the eps constraint is symmetric), so the
    residual is pure floating-point cancellation noise.
    """
    both, _, q_only = _overlap_masks(mu, p_shape, q_shape)
    i3 = _masked_pair(mu, kernel, both, q_only, [eps])[0].value
    j = _masked_pair(mu, kernel, q_only, both, [eps])[0].value
    return abs(i3 + j)


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

    ``cancellation_noise`` bounds the arithmetic noise of the trace
    (pair count x 2^-50 x largest |term|); a tail at or below it is
    indistinguishable from exact cancellation.
    """

    eps_schedule: list[float]
    values: list[float]
    rows: list[TraceRow]
    block_totals: list[list[float]]
    cancellation_noise: float


def convergence_study(
    mu: DiscreteMeasure,
    kernel,
    f: SimpleFunction,
    g: SimpleFunction,
    eps_schedule,
) -> PairingTrace:
    """Trace the pairing along the schedule, decomposing each shape pair
    into the four overlap blocks; the blocks with x outside Q are routed
    through the complement regions A_r(Q), grouped by region index, as
    in the convergence argument.

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
    max_term = 0.0
    pair_count = 0
    for j, (b_j, p_shape) in enumerate(g.terms):
        for i, (a_i, q_shape) in enumerate(f.terms):
            both, p_only, q_only = _overlap_masks(mu, p_shape, q_shape)
            # group the x-atoms outside Q by complement region of Q
            decomp = decompose_complement(q_shape)
            region = decomp.assign(mu.positions)
            region_masks = [
                p_only & (region == r) for r in range(len(decomp.graphs))
            ]
            i1 = _masked_pair(mu, kernel, both, both, schedule)
            i2 = [_masked_pair(mu, kernel, m, both, schedule) for m in region_masks]
            i3 = _masked_pair(mu, kernel, both, q_only, schedule)
            i4 = [_masked_pair(mu, kernel, m, q_only, schedule) for m in region_masks]
            for k, eps in enumerate(schedule):
                parts = [s[k] for s in (i1, *i2, i3, *i4)]
                max_term = max(max_term, max(s.max_abs_term for s in parts))
                pair_count = max(pair_count, sum(s.pair_count for s in parts))
                blocks = [
                    i1[k].value, math.fsum(s[k].value for s in i2),
                    i3[k].value, math.fsum(s[k].value for s in i4),
                ]
                coef = b_j * a_i
                contribution = coef * math.fsum(blocks)
                rows.append(TraceRow(j, i, eps, contribution, *blocks))
                totals[k].append(contribution)
                weighted[k].append([coef * v for v in blocks])
    values = [math.fsum(parts) for parts in totals]
    block_totals = [[math.fsum(col) for col in zip(*w)] for w in weighted]
    noise = max(pair_count, 1) * CANCELLATION_FACTOR * max_term
    return PairingTrace(schedule, values, rows, block_totals, noise)

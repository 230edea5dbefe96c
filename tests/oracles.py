"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the breakpoint/suffix machinery of the package:
sums are evaluated by direct masking per truncation radius and
accumulated error-free (``math.fsum``, correctly rounded), so they can
certify the fast paths.  The single-eps pairing, its four overlap blocks
and the Fubini residual are one ``pair_sum_stats`` call per restricted
atom set, independent of the multi-eps schedule that
``pairing.convergence_study`` runs.
"""

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from siolab.operators import pair_sum_stats


def brute_force_sup(nu, kernel, g, x, grid_size=2000):
    """Scan |T^eps g(x)| over a dense eps grid refined at every distance
    breakpoint +- one ulp; one error-free sum per distinct mask."""
    x = np.asarray(x, dtype=float)
    diffs = x - nu.positions
    d = np.linalg.norm(diffs, axis=1)
    positive = d[d > 0]
    if len(positive) == 0:
        return 0.0
    lo, hi = positive.min(), positive.max()
    grid = np.geomspace(lo * 0.5, hi * 1.1, grid_size)
    refine = np.concatenate(
        [positive, np.nextafter(positive, 0.0), np.nextafter(positive, np.inf)]
    )
    eps_values = np.unique(np.concatenate([grid, refine]))
    keep = d > 0
    terms = np.zeros(nu.count)
    gv = np.ones(nu.count) if g is None else np.asarray(g, dtype=float)
    terms[keep] = kernel.evaluate_many(diffs[keep].T) * gv[keep] * nu.weights[keep]
    mask = d[None, :] > eps_values[:, None]
    # eps ascends, so equal masks are neighbours: sum each distinct one once
    first = np.concatenate([[True], np.any(mask[1:] != mask[:-1], axis=1)])
    return max(abs(math.fsum(terms[row].tolist())) for row in mask[first])


def brute_pair_sum(pos_a, w_a, pos_b, w_b, kernel, eps):
    """(value, max |term|, pair count) of the pair sum over
    |x_a - y_b| > eps: one eps at a time, each block masked, and every
    included term summed error-free."""
    n_a, n_b = len(pos_a), len(pos_b)
    parts = []
    max_term = 0.0
    count = 0
    if n_a == 0 or n_b == 0:
        return 0.0, 0.0, 0
    block = max(1, (1 << 21) // n_b)
    for start in range(0, n_a, block):
        sl = slice(start, min(start + block, n_a))
        diffs = pos_a[sl][:, None, :] - pos_b[None, :, :]
        dist = np.sqrt(np.sum(diffs * diffs, axis=2))
        mask = dist > eps
        if not np.any(mask):
            continue
        terms = kernel.evaluate_many(diffs[mask].T) * (w_a[sl][:, None] * w_b[None, :])[mask]
        parts.append(terms)
        max_term = max(max_term, float(np.max(np.abs(terms))))
        count += int(mask.sum())
    return math.fsum(chain.from_iterable(map(np.ndarray.tolist, parts))), max_term, count


def cone_mesh_loop(cone, height_cap, mesh_depth):
    """The cone mesh one level at a time, each level placed at the apex
    and stacked: 2^mesh_depth levels t = height_cap * level / levels,
    a (2 level + 1)^d grid of half-width rho = t / (4L) kept strictly
    inside radius rho."""
    graph = cone.graph
    u0 = np.asarray(cone.apex_u, dtype=float)
    f0 = float(graph.height(u0)[0])
    levels = 1 << mesh_depth
    coords = []
    for level in range(1, levels + 1):
        t = height_cap * level / levels
        rho = t / (4.0 * cone.aperture)
        ticks = np.linspace(-1.0, 1.0, 2 * level + 1) * rho * (1.0 - 1e-12)
        mesh = np.meshgrid(*([ticks] * graph.param_dim), indexing="ij")
        offsets = np.column_stack([m.reshape(-1) for m in mesh])
        u = u0[None, :] + offsets[np.linalg.norm(offsets, axis=1) < rho]
        coords.append(np.column_stack([u, np.full(len(u), f0 + t)]))
    return graph.from_graph_frame(np.vstack(coords))


def _restricted_pair(mu, kernel, mask_x, mask_y, eps):
    """``pair_sum_stats`` between the atoms of ``mu`` in two masks."""
    return pair_sum_stats(
        mu.positions[mask_x], mu.weights[mask_x],
        mu.positions[mask_y], mu.weights[mask_y],
        kernel, eps,
    )


def pairing(mu, kernel, f, g, eps):
    """int T^eps(f)(x) g(x) dmu(x), expanded bilinearly over shape pairs."""
    g_masks = [(b_j, p.contains_many(mu.positions)) for b_j, p in g.terms]
    f_masks = [(a_i, q.contains_many(mu.positions)) for a_i, q in f.terms]
    return math.fsum(
        b_j * a_i * _restricted_pair(mu, kernel, mask_p, mask_q, eps).value
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


def _overlap_masks(mu, p_shape, q_shape):
    """P & Q, P minus Q and Q minus P, as masks over the atoms."""
    in_p = p_shape.contains_many(mu.positions)
    in_q = q_shape.contains_many(mu.positions)
    return in_p & in_q, in_p & ~in_q, in_q & ~in_p


def i_decomposition(mu, kernel, p_shape, q_shape, eps):
    """The four overlap blocks of the double integral over P x Q."""
    both, p_only, q_only = _overlap_masks(mu, p_shape, q_shape)
    s1, s2, s3, s4 = (
        _restricted_pair(mu, kernel, x, y, eps)
        for x, y in ((both, both), (p_only, both), (both, q_only), (p_only, q_only))
    )
    return IDecomposition(
        s1.value, s2.value, s3.value, s4.value,
        max(s.max_abs_term for s in (s1, s2, s3, s4)),
        sum(s.pair_count for s in (s1, s2, s3, s4)),
    )


def fubini_check(mu, kernel, p_shape, q_shape, eps):
    """Residual |I3 + J| where J swaps the roles of the two I3 regions.

    Relabeling the pair sum and using antisymmetry gives the exact
    discrete identity I3 = -J (the eps constraint is symmetric), so the
    residual is pure floating-point cancellation noise.
    """
    both, _, q_only = _overlap_masks(mu, p_shape, q_shape)
    i3 = _restricted_pair(mu, kernel, both, q_only, eps).value
    j = _restricted_pair(mu, kernel, q_only, both, eps).value
    return abs(i3 + j)


def lipschitz_estimate(graph, sample_count, box, rng):
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


def lower_density(mu, centers, radii):
    """Min over (center, r) of mu(B(x, r)) / r^(n-1), each closed-ball
    mass masked directly and summed error-free; centers should be atom
    positions (support points)."""
    scale = np.asarray(radii, dtype=float) ** (mu.ambient_dim - 1)
    out = math.inf
    for c in np.atleast_2d(np.asarray(centers, dtype=float)):
        d = np.linalg.norm(mu.positions - c, axis=1)
        for r, s in zip(radii, scale):
            out = min(out, math.fsum(mu.weights[d <= r].tolist()) / s)
    return out

"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the breakpoint/suffix machinery of the package:
sums are evaluated by direct masking per truncation radius and
accumulated error-free (``math.fsum``, correctly rounded), so they can
certify the fast paths; ``truncated`` is the single-point T^eps
reference, and ``line_pv``, ``line_tstar`` and ``line_hl`` are closed
forms on a line.  The single-eps pairing, its four overlap blocks and the Fubini
residual are one ``pair_sum_stats`` call per restricted atom set,
independent of the multi-eps schedule that ``pairing.convergence_study``
runs.

The second half is the reference of each compiled loop of ``sups.c``,
in plain numpy over whole arrays and with the loop's operations in its
order, so the two agree bit for bit: distances add the squares one
coordinate at a time, kernel terms are ``evaluate_many``'s, rows sort by
numpy's stable argsort (``table_rows``, the whole (P, N) table that the
compiled sups never hold), and sums are Sum2 (``siolab.summation``).
"""

import math
from itertools import chain
from typing import NamedTuple

import numpy as np

from siolab.operators import density_stack, density_values, pair_sum_stats
from siolab.summation import sum2_parts, sum2_prefix


def truncated(nu, kernel, g, x, eps):
    """T^eps g(x) at one point: the terms K(x - y) g(y) w(y) of the atoms
    with |x - y| > eps (strict), ``np.linalg.norm`` distances, summed
    error-free (``math.fsum``) in atom order."""
    diffs = np.asarray(x, dtype=float)[None, :] - nu.positions
    mask = np.linalg.norm(diffs, axis=1) > eps
    if not np.any(mask):
        return 0.0
    terms = kernel.evaluate_many(diffs[mask].T) * density_values(g, nu)[mask] * nu.weights[mask]
    return math.fsum(terms.tolist())


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


def line_pv(u, slope):
    """The principal value of int K(x - y) dsigma(y), K = x_1 / |x|^2 the
    Hilbert kernel, sigma the arc measure of the segment y = slope t,
    t in [-1, 1], at its point of parameter u: log((1 + u) / (1 - u)) /
    sqrt(1 + slope^2).  x - y = (u - t)(1, slope) gives K = 1 / ((u - t)
    (1 + slope^2)) and dsigma = sqrt(1 + slope^2) dt, and the principal
    value of int dt / (u - t) over [-1, 1] is log((1 + u) / (1 - u))."""
    return math.log((1.0 + u) / (1.0 - u)) / math.sqrt(1.0 + slope * slope)


def line_tstar(s, t):
    """T*1 of the Hilbert kernel K = x_1 / |x|^2 and the arc measure of
    the segment [-1, 1] x {0}, at the point (s, t), |s| < 1:
    |log(((s + 1)^2 + t^2) / ((s - 1)^2 + t^2)) / 2|, which is |T^eps 1|
    for eps <= |t| (on the line, t = 0, the principal value ``line_pv``).
    A larger eps excludes a chord that is symmetric about s, so it
    cancels, or that reaches past an end, and then |T^eps 1| decreases."""
    return abs(0.5 * math.log(((s + 1.0) ** 2 + t * t) / ((s - 1.0) ** 2 + t * t)))


def line_hl(s, t):
    """M1 of the arc measure of the segment [-1, 1] x {0} in the plane
    (n = 2: the mass of the closed ball B(x, r) over r) at the point
    (s, t), |s| < 1, t > 0.  With p = 1 - |s| and q = 1 + |s|, the ball of
    radius r >= t holds the chord of half-length sqrt(r^2 - t^2), cut at
    the near end from r^2 = p^2 + t^2 and at the far one from q^2 + t^2:
    2 sqrt(r^2 - t^2) / r grows up to the near end, (p + sqrt(r^2 - t^2))
    / r has its sup where r^2 = t^2 (p^2 + t^2) / p^2 if that radius is
    below the far end (t^2 / p <= q), and 2 / r decreases past it:
    2p / sqrt(p^2 + t^2) if t <= p; else sqrt(p^2 + t^2) / t if
    t^2 / p <= q; else 2 / sqrt(q^2 + t^2)."""
    p, q = 1.0 - abs(s), 1.0 + abs(s)
    if t <= p:
        return 2.0 * p / math.sqrt(p * p + t * t)
    if t * t / p <= q:
        return math.sqrt(p * p + t * t) / t
    return 2.0 / math.sqrt(q * q + t * t)


def interval_pairing(p, q):
    """int_P int_Q dy dx / (x - y) for the intervals P = [a, b] and
    Q = [c, d], the pairing of the Hilbert kernel K = x_1 / |x|^2 on a
    flat line: H(b - c) - H(a - c) - H(b - d) + H(a - d), where
    H(z) = z log|z| - z (H(0) = 0) is the second antiderivative of
    1 / z; the principal value where P and Q overlap."""
    (a, b), (c, d) = p, q

    def h(z):
        return z * math.log(abs(z)) - z if z else 0.0

    return h(b - c) - h(a - c) - h(b - d) + h(a - d)


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


# ---------------------------------------------------------------------------
# references of the compiled loops
# ---------------------------------------------------------------------------


def sum2_total(terms):
    """(float64 sum, sum of its TwoSum errors) of a 1-D array, N >= 1:
    textbook Sum2, both sums sequential, unrounded."""
    s, e = sum2_parts(terms[None, :])
    return float(s[0, -1]), float(np.cumsum(e[0])[-1])


def distances(pts, positions):
    """(diffs, dist) of every (point, atom) pair: coordinate-major
    differences x - y, (n, P, N), and the distances, the squares added one
    coordinate at a time."""
    diffs = pts.T[:, :, None] - positions.T[:, None, :]
    sq = diffs[0] * diffs[0]
    for d in diffs[1:]:
        sq = sq + d * d
    return diffs, np.sqrt(sq)


def kernel_terms(kernel, diffs, dist):
    """K at each difference, 0 where the distance is 0."""
    safe = np.where(dist == 0.0, 1.0, diffs)  # K is not evaluated at 0
    return np.where(dist == 0.0, 0.0, kernel.evaluate_many(safe.reshape(len(safe), -1)).reshape(dist.shape))


def stable_desc(dist):
    """(order, dist_desc): each row's distances descending, ties in atom order."""
    order = np.argsort(-dist, axis=1, kind="stable")
    return order, np.take_along_axis(dist, order, axis=1)


def group_ends(dist):
    """True at the last index of each run of equal distances in a row."""
    return np.concatenate([dist[:, :-1] != dist[:, 1:], np.ones_like(dist[:, :1], dtype=bool)], axis=1)


def table_rows(nu, kernel, pts):
    """(order, dist_desc, kw_desc), (P, N) each: per point, the atoms by
    distance descending, ties in atom order, their distances and the
    kernel terms K(x - y) w(y) in that order, as ``row_sups`` sorts a row."""
    diffs, dist = distances(pts, nu.positions)
    order, dist_desc = stable_desc(dist)
    kw = kernel_terms(kernel, diffs, dist) * nu.weights
    return order, dist_desc, np.take_along_axis(kw, order, axis=1)


def truncated_batch(nu, kernel, g, pts, eps):
    """``operators.truncated_batch``: per point, the Sum2 of the terms
    K(x - y) g(y) w(y) in atom order, 0.0 in place of each term at
    distance <= eps."""
    diffs, dist = distances(pts, nu.positions)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (len(pts),))
    gw = nu.weights * density_values(g, nu)
    if nu.count == 0:
        return np.zeros(len(pts))
    return sum2_prefix(np.where(dist > eps[:, None], kernel_terms(kernel, diffs, dist) * gw, 0.0))[:, -1]


def maximal_values(nu, kernel, pts, gs):
    """``TruncationTable(nu, kernel, pts).maximal_values(gs)``, (D, P):
    per density, the max of |Sum2 prefix| of g[order] * kw_desc at the
    group ends of each row of ``table_rows``, and 0."""
    order, dist_desc, kw_desc = table_rows(nu, kernel, pts)
    ends, stack = group_ends(dist_desc), density_stack(gs, nu)
    return np.array([
        np.max(np.abs(sum2_prefix(g[order] * kw_desc)), axis=1, where=ends, initial=0.0) for g in stack.T
    ]).reshape(stack.shape[1], len(pts))


def hl_maximal_batch(nu, g, pts):
    """``operators.hl_maximal_batch``, (values, diverges): the rows of
    ``table_rows`` read backwards, the max over the group ends at distance r > 0 of
    the Sum2 prefix of the masses |g| w times 1 / (r ... r), n - 1
    factors, and 0; +inf (diverges) where mass > 0 sits at distance 0."""
    order, dist = (a[:, ::-1] for a in stable_desc(distances(pts, nu.positions)[1]))
    mass = (np.abs(density_values(g, nu)) * nu.weights)[order]
    diverges = np.any((dist == 0.0) & (mass > 0.0), axis=1)
    usable = group_ends(dist) & (dist > 0.0)
    radius, power = np.where(usable, dist, 1.0), 1.0
    for _ in range(nu.ambient_dim - 1):
        power = power * radius
    values = np.max(sum2_prefix(mass) * (1.0 / power), axis=1, where=usable, initial=0.0)
    values[diverges] = math.inf
    return values, diverges


def pair_partials(pos_a, w_a, pos_b, w_b, kernel, eps):
    """``operators._pair_partials``: (partials, max |term|, count).  A pair
    goes to the first bin j with distance > eps[j], or to none; per bin
    the ``sum2_total`` of its terms K(x - y) (w_a w_b) in row-major order."""
    diffs, dist = distances(pos_a, pos_b)
    terms = kernel_terms(kernel, diffs, dist) * (w_a[:, None] * w_b[None, :])
    bins = np.sum(dist[:, :, None] <= eps, axis=2)  # eps decreases: the first j with dist > eps[j]
    partials = np.zeros((len(eps), 2))
    max_terms = np.zeros(len(eps))
    counts = np.zeros(len(eps), dtype=np.int64)
    for j in range(len(eps)):
        in_bin = bins == j
        max_terms[j], counts[j] = np.max(np.abs(terms[in_bin]), initial=0.0), np.count_nonzero(in_bin)  # NaN sticks
        if counts[j]:
            partials[j] = sum2_total(terms[in_bin])
    return partials, max_terms, counts

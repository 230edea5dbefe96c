"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the breakpoint/suffix machinery of the package:
sums are evaluated by direct masking per truncation radius and
accumulated error-free (``math.fsum``, correctly rounded), so they can
certify the fast paths.
"""

import math
from itertools import chain

import numpy as np


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

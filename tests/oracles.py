"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the breakpoint/suffix machinery of the package:
sums are evaluated by direct masking per truncation radius, so they can
certify the fast paths.
"""

import numpy as np


def brute_force_sup(nu, kernel, g, x, grid_size=2000):
    """Scan |T^eps g(x)| over a dense eps grid refined at every distance
    breakpoint +- one ulp; extended-precision mask sums."""
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
    terms = np.zeros(nu.count, dtype=np.longdouble)
    gv = np.ones(nu.count) if g is None else np.asarray(g, dtype=float)
    terms[keep] = (
        kernel.evaluate_many(diffs[keep]) * gv[keep] * nu.weights[keep]
    ).astype(np.longdouble)
    mask = d[None, :] > eps_values[:, None]
    sums = np.where(mask, terms[None, :], np.longdouble(0.0)).sum(axis=1)
    return float(np.max(np.abs(sums)))


def brute_pair_sum(pos_a, w_a, pos_b, w_b, kernel, eps):
    """(value, max |term|, pair count) of the pair sum over
    |x_a - y_b| > eps: one eps at a time, each block masked and summed
    in extended precision in row-major order."""
    n_a, n_b = len(pos_a), len(pos_b)
    total = np.longdouble(0.0)
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
        terms = kernel.evaluate_many(diffs[mask]) * (w_a[sl][:, None] * w_b[None, :])[mask]
        total = total + np.sum(terms.astype(np.longdouble))
        max_term = max(max_term, float(np.max(np.abs(terms))))
        count += int(mask.sum())
    return float(total), max_term, count

"""The one summation policy for sums over numpy arrays (only a total
mass and Python lists use ``math.fsum``).  It uses float64 arithmetic alone,
so its bits are the same on every platform.  With u = 2^-53 and
gamma_k = k u / (1 - k u): a total is one Sum2 (a last prefix), whose
prefix S of n terms is within u|S| + gamma_{n-1}^2 sum|t|, as accurate
as a sum in twice the working precision, rounded once.  Every sum here,
the TwoSum errors' too, adds its terms one at a time in order (a cumsum,
never numpy's pairwise ``sum``), as textbook Sum2 does.  A sup over
prefixes is a max over the Sum2 prefixes of its row; ``operators``
takes it, the T^eps row totals, the pair engine's partials (each kept
unrounded: the float64 sum and the sum of its TwoSum errors) and the
row totals of its L^p norms (``sum2_rows``, the last prefix here) in
the compiled passes of ``sups.c``, with the same operations in the same
order.  No function here writes into its argument.
"""
from __future__ import annotations

import numpy as np


def sum2_parts(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, e) for each row of a (P, N) array: s its float64 cumsum and e
    the exact error of each of the cumsum's additions, 0 first."""
    s = np.cumsum(terms, axis=1)
    # TwoSum(a, b) with x = fl(a + b): z = x - a, error (b - z) + (a - (x - z))
    a, b, x = s[:, :-1], terms[:, 1:], s[:, 1:]
    z = x - a
    e = np.zeros_like(s)
    e[:, 1:] = (b - z) + (a - (x - z))
    return s, e


def sum2_prefix(terms: np.ndarray) -> np.ndarray:
    """Sum2 prefix sums along each row of a (P, N) array: the float64
    cumsum plus the cumsum of its TwoSum errors, Sum2 of Ogita, Rump and
    Oishi ("Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005)
    bit for bit.  The prefix S of n terms is within u|S| + gamma_{n-1}^2
    sum|t| (their Prop. 4.5, which holds with underflow)."""
    s, e = sum2_parts(terms)
    return s + np.cumsum(e, axis=1)

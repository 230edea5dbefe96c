"""The one summation policy for sums over numpy arrays (single points
and Python lists use ``math.fsum``).  It uses float64 arithmetic alone,
so its bits are the same on every platform.  With u = 2^-53 and
gamma_k = k u / (1 - k u): a total is one Sum2 (``sum2_rows``), whose
prefix S of n terms is within u|S| + gamma_{n-1}^2 sum|t|, as accurate
as a sum in twice the working precision, rounded once; ``sum2_total``
keeps it unrounded, for sums of partial sums.  A sup over prefixes is
certified by ``certified_sums``: a ``blocked_prefix`` scan, within
gamma_k sum|t| for k about 2 sqrt(N), and a Sum2 redo of each row whose
scan bound exceeds 1e-13 of the sup it reports.
"""
from __future__ import annotations

import math

import numpy as np

_U = np.finfo(float).eps / 2
_CERTIFY_REL = 1e-13  # largest certified error relative to a reported value


def blocked_prefix(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 prefix sums along each row of a (P, N) array, N >= 1, and
    a per-row bound on the absolute error of every prefix in the row.

    Two levels: a cumsum inside blocks of b = ceil(sqrt(N)) terms (the
    last block may be shorter), then a cumsum of the full block totals
    added to the blocks after them.  A prefix passes through at most
    (b - 1) + (ceil(N/b) - 1) + 1 roundings, so its error is at most
    gamma_k * sum|t| for k = b + ceil(N/b) + 1 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 4.2); sum|t| is itself
    a float64 sum, inflated by (1 + 2 N u) to cover its own rounding.
    """
    p, n = terms.shape
    b = math.isqrt(n - 1) + 1
    m = n - n % b
    prefix = np.empty((p, n))
    blocks = prefix[:, :m].reshape(p, m // b, b)
    np.cumsum(terms[:, :m].reshape(p, m // b, b), axis=2, out=blocks)
    np.cumsum(terms[:, m:], axis=1, out=prefix[:, m:])
    offsets = np.cumsum(blocks[:, :, -1], axis=1)
    blocks[:, 1:] += offsets[:, :-1, None]
    prefix[:, m:] += offsets[:, -1:]
    k = b + -(-n // b) + 1
    gamma = k * _U / (1.0 - k * _U)
    bound = gamma * (1.0 + 2.0 * n * _U) * np.abs(terms).sum(axis=1)
    return prefix, bound


def _two_sum_errors(terms: np.ndarray) -> np.ndarray:
    """The float64 cumsum s of each row of a (P, N) array; ``terms`` is
    overwritten with the exact error of each of its additions, 0 first."""
    # s and z share one block: as two blocks they raised the peak RSS of
    # repeated pair sums by about 8 MiB through heap fragmentation
    buf = np.empty((2,) + terms.shape)
    s = np.cumsum(terms, axis=1, out=buf[0])
    # TwoSum(a, b) with x = fl(a + b): z = x - a, error (a - (x - z)) + (b - z)
    a, b, x = s[:, :-1], terms[:, 1:], s[:, 1:]
    z = np.subtract(x, a, out=buf[1][:, 1:])
    b -= z
    np.subtract(x, z, out=z)
    np.subtract(a, z, out=z)
    b += z
    terms[:, :1] = 0.0
    return s


def sum2_prefix(terms: np.ndarray) -> np.ndarray:
    """Sum2 prefix sums along each row of a (P, N) array, which is
    overwritten: the float64 cumsum plus the cumsum of its TwoSum errors,
    Sum2 of Ogita, Rump and Oishi ("Accurate sum and dot product", SIAM
    J. Sci. Comput. 26, 2005) bit for bit.  The prefix S of n terms is
    within u|S| + gamma_{n-1}^2 sum|t| (their Prop. 4.5, which holds with
    underflow)."""
    s = _two_sum_errors(terms)
    s += np.cumsum(terms, axis=1, out=terms)
    return s


def sum2_rows(terms: np.ndarray) -> np.ndarray:
    """The Sum2 total of each row of a (P, N) array, which is overwritten:
    the last column of ``sum2_prefix``, and 0 where N = 0."""
    if terms.shape[1] == 0:
        return np.zeros(len(terms))
    s = _two_sum_errors(terms)
    return s[:, -1] + np.cumsum(terms, axis=1, out=terms)[:, -1]


def sum2_total(terms: np.ndarray) -> tuple[float, float]:
    """(float64 sum, sum of its TwoSum errors) of a 1-D array, N >= 1,
    which is overwritten.  Unrounded, the pair is within
    gamma_{N-1}^2 sum|t| of the exact total."""
    return float(_two_sum_errors(terms[None, :])[0, -1]), float(terms.sum())


def certified_sums(terms: np.ndarray, report) -> tuple[np.ndarray, int]:
    """(sups, rows redone by Sum2) of a (P, N) array, N >= 1, where
    ``report(prefix, rows)`` maps the prefix sums of rows ``rows`` (all,
    or an index array) to their (sups, magnitudes).  A bound on every
    prefix bounds a sup over prefixes, since |max|a| - max|b|| <= max|a - b|.
    """
    prefix, bound = blocked_prefix(terms)
    values, magnitude = report(prefix, slice(None))
    del prefix  # before the Sum2 temporaries
    redo = np.flatnonzero(bound > _CERTIFY_REL * magnitude)
    values[redo] = report(sum2_prefix(terms[redo]), redo)[0]
    return values, len(redo)

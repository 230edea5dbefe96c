"""Deterministic 64-bit shift-multiply generator (splitmix64).

The stream is fully specified by three constants so any implementation
reproduces it bit-for-bit:

    state += 0x9E3779B97F4A7C15                      (mod 2^64)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1ED3B68B         (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB         (mod 2^64)
    output = z ^ (z >> 31)

Uniform doubles take the top 53 bits.  Because the state advances by a
fixed increment, batches can be produced vectorized from the same
counter sequence; batch and scalar draws agree exactly.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1ED3B68B
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0**-53


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class Rng:
    """Seeded splitmix64 stream with scalar and vectorized draws."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def u64s(self, count: int) -> np.ndarray:
        """Vectorized draw of ``count`` words, identical to ``count``
        scalar draws."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        self._state = (self._state + count * _GAMMA) & _MASK
        return z

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * _INV_2_53)

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.u64s(count) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return lo + (hi - lo) * u

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via the 53-bit fraction."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + int(((self.next_u64() >> 11) * span) >> 53)

    def points_in_box(self, count: int, box) -> np.ndarray:
        """Rows uniform in a product of intervals [(lo, hi), ...]."""
        dim = len(box)
        u = self.uniforms(count * dim).reshape(count, dim)
        lo = np.array([b[0] for b in box])
        hi = np.array([b[1] for b in box])
        return lo + (hi - lo) * u

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via Box-Muller (deterministic, no rejection)."""
        pairs = -(-count // 2)
        u = self.uniforms(2 * pairs)
        u1 = np.maximum(u[:pairs], 1e-300)  # log(0) guard
        u2 = u[pairs:]
        r = np.sqrt(-2.0 * np.log(u1))
        out = np.concatenate([r * np.cos(2 * math.pi * u2), r * np.sin(2 * math.pi * u2)])
        return out[:count]

    def unit_vectors(self, count: int, dim: int) -> np.ndarray:
        g = self.normals(count * dim).reshape(count, dim)
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        return g / norms[:, None]

    def spawn(self, stream: int) -> "Rng":
        """Independent child stream keyed by an integer label."""
        return Rng(_mix((self._state ^ _mix(stream & _MASK)) & _MASK))

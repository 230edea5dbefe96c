"""Computed limits against closed forms of the continuum.

On a straight line the Riesz kernel K = x_1 / |x|^2 is the Hilbert
kernel, and its principal value has a closed form (``oracles.line_pv``),
as has T* of the constant density on the flat line, on it and off it
(``oracles.line_tstar``), the maximal function M of the constant density
off it (``oracles.line_hl``), and the pairing of two intervals
(``oracles.interval_pairing``).  The graph measure of the line is the
midpoint rule of its arc measure, so at an atom the truncated sums of
``pv_estimate`` and the exact sup of ``TruncationTable.maximal_values``
converge to those closed forms at second order in the grid step h.  M
is a sup of ball masses over radii, and a ball's discrete mass is off by
up to one atom at each end of its chord, so M converges at first order.
The
truncated pairing of two overlapping intervals misses the pairs within
eps of each other near the ends of the overlap, so it converges at first
order in eps.
"""

import math

import numpy as np
import pytest

import siolab as sl
from siolab.operators import geometric_schedule, hl_maximal_batch
from siolab.pairing import SimpleFunction, convergence_study

from oracles import interval_pairing, line_hl, line_pv, line_tstar

# the largest |error| / h^2 measured on these cases is 0.189 (slope 0,
# s = 0.55, m = 256); each 4x refinement shrank the error 15.8 to 16.3x
_PV_ERROR_PER_H2 = 0.25
_MIN_ORDER = 1.8
# the largest |relative error| / h^2 of T* measured on these cases is
# 0.153 (s = 0.55 on the line, m = 256; -9.3e-6 there and -3.6e-8 at
# m = 4096); each 4x refinement shrank the error 15.9 to 16.0x
_TSTAR_REL_ERROR_PER_H2 = 0.2
# M's error / h measured on these cases is positive, 0.325 to 1.139 (s =
# 0.55, t = 0.3, m = 1024, where the sup sits at the near end of the
# segment and the end's offset from the grid varies with m); observed
# orders 0.84 to 1.16
_HL_ERROR_PER_H = 1.2
_HL_ORDERS = (0.8, 1.2)
# the pairing's |error| / eps measured at eps = 32h, 16h, 8h and 4h (m =
# 4096): 1.98, 1.97, 1.93 and 1.86 (3.6e-3 at 4h); observed orders 1.01
# to 1.05
_PAIRING_ERROR_PER_EPS = 2.0


def _observed_orders(errors, steps):
    return [math.log(e0 / e1) / math.log(h0 / h1) for e0, e1, h0, h1 in zip(errors, errors[1:], steps, steps[1:])]


@pytest.mark.parametrize("slope", [0.0, 0.5])
@pytest.mark.parametrize("s", [-0.35, 0.15, 0.55])
def test_pv_on_a_line_converges_to_its_closed_form(slope, s):
    # the pole is the atom nearest the parameter s; its closed form is
    # taken at that atom's own parameter.  A slope of 0.5 makes the arc
    # weight sqrt(1 + |grad f|^2) count: without it the error stays O(1)
    kernel = sl.RieszComponent(2, 0)
    graph = sl.LipschitzGraph(2, sl.Affine((slope,)))
    errors, steps = [], []
    for m in (256, 1024, 4096):
        nu = sl.graph_measure(graph, [(-1.0, 1.0)], m)
        h = nu.resolution
        pole = nu.positions[np.argmin(np.abs(nu.positions[:, 0] - s))]
        trace = sl.pv_estimate(nu, kernel, pole, geometric_schedule(0.64, 8 * h))
        errors.append(abs(trace[-1] - line_pv(pole[0], slope)))
        steps.append(h)
        assert errors[-1] <= _PV_ERROR_PER_H2 * h * h, (m, errors[-1] / (h * h))
    assert min(_observed_orders(errors, steps)) >= _MIN_ORDER


@pytest.mark.parametrize("lift", [0, 3])
@pytest.mark.parametrize("s", [-0.35, 0.15, 0.55])
def test_tstar_on_a_line_converges_to_its_closed_form(s, lift):
    # T* of the constant density at the atom nearest the parameter s and
    # at the point 3h above it, each against the closed form at its own
    # coordinates.  Atoms at equal distance on both sides of the point
    # form tie groups, whose pairs cancel only if the sup reads group ends
    kernel = sl.RieszComponent(2, 0)
    graph = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    errors, steps = [], []
    for m in (256, 1024, 4096):
        nu = sl.graph_measure(graph, [(-1.0, 1.0)], m)
        h = nu.resolution
        x = nu.positions[np.argmin(np.abs(nu.positions[:, 0] - s))] + (0.0, lift * h)
        tstar = sl.TruncationTable(nu, kernel, x[None, :]).maximal_values([None])[0, 0]
        errors.append(abs(tstar / line_tstar(*x) - 1.0))
        steps.append(h)
        assert errors[-1] <= _TSTAR_REL_ERROR_PER_H2 * h * h, (m, errors[-1] / (h * h))
    assert min(_observed_orders(errors, steps)) >= _MIN_ORDER


@pytest.mark.parametrize("s, t", [(-0.35, 0.1), (0.15, 0.1), (0.55, 0.3), (0.55, 0.6), (0.15, 1.0)])
def test_hl_on_a_line_converges_to_its_closed_form(s, t):
    # M of the constant density off the flat line, through hl_maximal_batch
    # (the sort of row_sups with no densities): the first three points
    # take line_hl's near-end branch, (0.55, 0.6) its interior sup and
    # (0.15, 1.0) its far-end branch
    graph = sl.LipschitzGraph(2, sl.Affine((0.0,)))
    errors, steps = [], []
    for m in (256, 1024, 4096):
        nu = sl.graph_measure(graph, [(-1.0, 1.0)], m)
        h = nu.resolution
        (value,), (diverges,) = hl_maximal_batch(nu, None, [[s, t]])
        errors.append(abs(value - line_hl(s, t)))
        steps.append(h)
        assert not diverges and errors[-1] <= _HL_ERROR_PER_H * h, (m, errors[-1] / h)
    assert all(_HL_ORDERS[0] <= order <= _HL_ORDERS[1] for order in _observed_orders(errors, steps))


def test_pairing_of_two_balls_on_a_line_converges_to_its_closed_form():
    # int T^eps(X_Q) X_P on the flat line, through the pairing's pass over
    # the pair engine: the ball P = B((-0.1, 0), 0.6) meets the line in
    # [-0.7, 0.5] and Q = B((0.2, 0), 0.5) in [-0.3, 0.7], whose pairing
    # is -1.337980; the eps schedule halves from 512h down to 4h
    kernel = sl.RieszComponent(2, 0)
    nu = sl.graph_measure(sl.LipschitzGraph(2, sl.Affine((0.0,))), [(-1.0, 1.0)], 4096)
    h = nu.resolution
    f = SimpleFunction([(1.0, sl.Ball((0.2, 0.0), 0.5))])
    g = SimpleFunction([(1.0, sl.Ball((-0.1, 0.0), 0.6))])
    exact = interval_pairing((-0.7, 0.5), (-0.3, 0.7))
    assert exact == pytest.approx(-1.337980, abs=1e-6)
    trace = convergence_study(nu, kernel, f, g, [4.0 * h * 2.0**k for k in range(7, -1, -1)])
    eps, errors = trace.eps_schedule[-4:], [abs(v - exact) for v in trace.values[-4:]]
    for e, error in zip(eps, errors):
        assert error <= _PAIRING_ERROR_PER_EPS * e, (e, error / e)
    assert all(0.9 <= order <= 1.1 for order in _observed_orders(errors, eps))

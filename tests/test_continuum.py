"""Computed limits against closed forms of the continuum.

On a straight line the Riesz kernel K = x_1 / |x|^2 is the Hilbert
kernel, and its principal value has a closed form (``oracles.line_pv``).
The graph measure of the line is the midpoint rule of its arc measure, so
at an atom the truncated sums of ``pv_estimate`` converge to that closed
form at second order in the grid step h.
"""

import math

import numpy as np
import pytest

import siolab as sl
from siolab.operators import geometric_schedule

from oracles import line_pv

# the largest |error| / h^2 measured on these cases is 0.189 (slope 0,
# s = 0.55, m = 256); each 4x refinement shrank the error 15.8 to 16.3x
_PV_ERROR_PER_H2 = 0.25
_MIN_ORDER = 1.8


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
    for (e0, h0), (e1, h1) in zip(zip(errors, steps), zip(errors[1:], steps[1:])):
        assert math.log(e0 / e1) / math.log(h0 / h1) >= _MIN_ORDER

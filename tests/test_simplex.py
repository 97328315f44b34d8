"""nongauss.simplex.nelder_mead against scipy's Nelder–Mead, the code it ports.

The port must take the same steps, so both must evaluate f at the same
points in the same order and end on the same simplex, bit for bit.
Derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from nongauss.simplex import nelder_mead

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

WALL = 1e10  # the solver objectives' value outside the search region


def _objective(kind, center, scale, wall):
    """A quadratic bowl, alone, with a non-convex term, a flat floor or a
    NaN corner, behind a wall."""
    center, scale = np.array(center), np.array(scale)

    def f(x):
        if x[0] > wall:
            return WALL
        v = float(np.sum(scale * (x - center) ** 2))
        if kind == "sin":
            v += math.sin(3.0 * x[0]) + 0.5 * math.cos(5.0 * x[-1])
        elif kind == "log":
            v = math.log1p(v)
        elif kind == "floor":  # ties between vertices
            v = max(v, 1.0)
        elif kind == "nan" and x[-1] < center[-1] - 1.0:
            v = math.nan
        return v
    return f


@st.composite
def problems(draw):
    n = draw(st.integers(1, 3))
    coords = st.floats(-3.0, 3.0)
    f = _objective(draw(st.sampled_from(["quadratic", "sin", "log", "floor", "nan"])),
                   draw(st.lists(coords, min_size=n, max_size=n)),
                   draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n)),
                   # a wall near the start, or one the search never meets
                   draw(st.sampled_from([-1e-9, 0.5, math.inf])))
    # a zero coordinate gets an absolute first step, not a relative one
    x0 = draw(st.lists(st.just(0.0) | coords, min_size=n, max_size=n))
    # small budgets cut runs short, also inside the first evaluations
    # and inside a shrink
    budget = st.integers(1, 40) | st.just(1000)
    # a zero tolerance is met only when the spread is exactly zero
    options = dict(xatol=draw(st.sampled_from([1e-10, 1e-4, 0.0])),
                   fatol=draw(st.sampled_from([1e-13, 1e-4, 1e-280, 0.0])),
                   maxiter=draw(budget), maxfev=draw(budget))
    return f, x0, options


def _recorded(f):
    points = []

    def g(x):
        points.append(x.copy())
        value = f(x)
        x[:] = np.nan  # fun may write to its argument, not to the simplex
        return value
    return g, points


def _run_both(f, x0, options):
    """(result, points) from the port, then from scipy."""
    g, points = _recorded(f)
    port = nelder_mead(g, x0, **options)
    h, expected_points = _recorded(f)
    scipy = optimize.minimize(h, x0, method="Nelder-Mead", options=options)
    return (port, points), (scipy, expected_points)


def _assert_same(ours, theirs):
    (port, points), (scipy, expected_points) = ours, theirs
    assert len(points) == len(expected_points)
    for p, q in zip(points, expected_points):
        assert np.array_equal(p, q, equal_nan=True)
    assert np.array_equal(port.x, scipy.x, equal_nan=True)
    assert port.fun == scipy.fun or math.isnan(port.fun) and math.isnan(scipy.fun)
    assert (port.nit, port.nfev) == (scipy.nit, scipy.nfev)
    for a, b in zip(port.final_simplex, scipy.final_simplex):
        assert np.array_equal(a, b, equal_nan=True)


@PROPERTY
@given(problems())
def test_the_port_takes_scipys_steps(problem):
    _assert_same(*_run_both(*problem))


@pytest.mark.parametrize("kind, center, scale, wall, x0, maxfev", [
    # a 3-D run that starts against the wall and shrinks at every
    # iteration: maxfev falls inside the first simplex, inside a
    # reflection, inside a shrink, and at an iteration's end
    *(("sin", [1.0, -2.0, 0.5], [1.0, 10.0, 0.1], -1e-9, [0.0, 1.0, -1.0], maxfev)
      for maxfev in (2, 5, 7, 9)),
    # a shrink cut short that leaves the simplex out of order
    ("sin", [-1.4, -2.5], [1.0, 0.5], math.inf, [1.0, 0.2], 20),
    # a NaN vertex left in the simplex: scipy's fun is then NaN
    ("nan", [0.0], [1.0], math.inf, [-1.0], 2),
])
def test_a_short_budget_stops_both_at_the_same_evaluation(kind, center, scale, wall, x0,
                                                          maxfev):
    ours, theirs = _run_both(_objective(kind, center, scale, wall), x0,
                             dict(xatol=1e-10, fatol=1e-13, maxiter=6000, maxfev=maxfev))
    _assert_same(ours, theirs)
    assert ours[0].nfev == len(ours[1]) == maxfev


"""nongauss.roots.brentq against scipy.optimize.brentq, the code it ports.

The port must take the same steps, so both must evaluate f at the same
points in the same order and return the same float.  Derandomized, so
every run draws the same examples.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from nongauss import counts_analyzer
from nongauss.counts_analyzer import CountSummary, attenuation_scan, depth_fit
from nongauss.errors import FitError
from nongauss.roots import brentq
from nongauss.threshold_solver import PairThresholdModel, SinglePhotonThresholdModel

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400)

LO, HI = 1e-6, 1.0  # depth_fit's bracket


def _family(kind, root, steep, sign, scale):
    """A function on [LO, HI] whose sign changes at root."""
    def f(x):
        if kind == "linear":
            v = x - root
        elif kind == "tanh":
            v = math.tanh(steep * (x - root))
        elif kind == "log":
            v = (math.log(x) - math.log(root)) * (1.0 + steep * x * x)
        elif kind == "cubic":
            v = (x - root) ** 3 + 1e-3 * steep * (x - root)
        elif kind == "exp":
            v = math.exp(-steep * root) - math.exp(-steep * x)
        elif x == root:
            v = 0.0
        else:  # stairs of flat treads, a single step when steep <= 1
            v = math.copysign(math.floor(steep * abs(x - root)) + 0.5, x - root)
        return sign * scale * v
    return f


FUNCTIONS = st.builds(
    _family,
    st.sampled_from(["linear", "tanh", "log", "cubic", "exp", "stairs"]),
    st.sampled_from([LO, HI]) | st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
    st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
    st.sampled_from([1.0, -1.0]),
    # tiny and huge values: the sign test must not multiply f values
    st.just(1.0) | st.integers(-300, 300).map(lambda e: 10.0**e),
)
# depth_fit's, scipy's defaults, and two coarse pairs that stop early
TOLERANCES = st.sampled_from([(1e-14, 1e-13), (2e-12, 4 * 2.0**-52),
                              (2.0**-40, 4 * 2.0**-52), (2.0**-20, 2.0**-30)])


def _recorded(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


def _run_both(f, a, b, xtol, rtol, maxiter=100):
    """(root or exception type, points) from the port, then from scipy."""
    outcomes = []
    for solve in (brentq, optimize.brentq):
        g, points = _recorded(f)
        try:
            outcome = solve(g, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
        except (FitError, ValueError, RuntimeError) as exc:
            outcome = type(exc)
        outcomes.append((outcome, points))
    return outcomes


@PROPERTY
@given(FUNCTIONS, TOLERANCES)
# found by a wider random search: a step just inside the 3|sbis| - delta
# bound, and an extrapolation through a zero slope
@example(_family("log", 4.512440525590921e-06, 46.0, 1.0, 2.0**26),
         (2.0**-20, 2.0**-30))
@example(_family("exp", 0.3203582763671875, 67.00390451315494, 1.0, 1e-99),
         (2.0**-40, 4 * 2.0**-52))
def test_the_port_takes_scipys_steps(f, tolerances):
    (root, points), (expected, expected_points) = _run_both(f, LO, HI, *tolerances)
    assert points == expected_points
    assert root == expected
    assert LO <= root <= HI


def test_a_nan_value_is_a_fit_error():
    # a bisection from the bracket lands at 0.5, where f is NaN
    def f(x):
        return math.nan if 0.4 < x < 0.6 else (1.0 if x > 0.3 else -1.0)

    (port, points), (scipy, expected_points) = _run_both(f, LO, HI, 1e-14, 1e-13)
    assert (port, scipy) == (FitError, ValueError)
    assert points == expected_points and math.isnan(f(points[-1]))
    with pytest.raises(FitError, match="is NaN"):
        brentq(f, LO, HI, 1e-14, 1e-13)


def test_ends_of_one_sign_are_a_fit_error():
    # the product of the two values underflows to zero
    (port, points), (scipy, expected_points) = _run_both(
        lambda x: 1e-200 * (x + 1.0), LO, HI, 1e-14, 1e-13)
    assert (port, scipy) == (FitError, ValueError)
    assert points == expected_points == [LO, HI]
    with pytest.raises(FitError, match="different signs"):
        brentq(lambda x: -x, LO, HI, 1e-14, 1e-13)


def test_no_convergence_in_maxiter_is_a_fit_error():
    f = _family("stairs", 0.3, 1.0, 1.0, 1.0)
    (port, points), (scipy, expected_points) = _run_both(f, LO, HI, 1e-14, 1e-13,
                                                         maxiter=3)
    assert (port, scipy) == (FitError, RuntimeError)
    assert points == expected_points and len(points) == 2 + 3
    with pytest.raises(FitError, match="within 3 iterations"):
        brentq(f, LO, HI, 1e-14, 1e-13, maxiter=3)


PAIR_COUNTS = CountSummary(kind="pair", duration_s=1200.0, generation_rate_hz=11.32e6,
                           success_count=244113, error_count_a=365, error_count_b=430,
                           generation_rate_sigma_hz=0.12e6)
SINGLE_COUNTS = CountSummary(kind="single", duration_s=1.0, generation_rate_hz=1e6,
                             success_count=73532, error_count_a=117)


@pytest.mark.parametrize("counts, model", [
    (PAIR_COUNTS, PairThresholdModel(0.1467)),
    (SINGLE_COUNTS, SinglePhotonThresholdModel(0.1467)),
], ids=["pair", "single"])
def test_depth_fit_crosses_where_scipy_does(monkeypatch, counts, model):
    scan = attenuation_scan(counts)
    port = depth_fit(scan, model, sigma_eta=0.0034)
    monkeypatch.setattr(counts_analyzer, "brentq", optimize.brentq)
    expected = depth_fit(scan, model, sigma_eta=0.0034)
    assert port.status == "crossed"
    assert port == expected

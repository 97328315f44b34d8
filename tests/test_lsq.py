"""nongauss.lsq.curve_fit against scipy.optimize.curve_fit, the code it ports.

The port must take the same steps: with blinking_fit's bounds and
evaluation budget, both must evaluate the model at the same points in
the same order and return the same parameters, covariance and
evaluation count, bit for bit.  Derandomized, so every run draws the
same examples.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from nongauss import lsq
from nongauss.counts_analyzer import blinking_fit
from nongauss.errors import FitError
from nongauss.photon_statistics import DetectionConfig
from nongauss.source_simulator import QdSourceConfig, peak_areas_from_tags, simulate_qd_pairs

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

LOWER = [0.0, 1e-9, 0.0]  # blinking_fit's bounds
MAX_NFEV = 20000


def envelope(n, amp, tau, plateau):
    return amp * np.exp(-n / tau) + plateau


def _blinking_p0(delays, areas):
    # blinking_fit's start
    far = areas[delays >= np.quantile(delays, 0.75)].mean()
    near = areas[delays <= np.quantile(delays, 0.25)].mean()
    return [max(near - far, 1e-6 * areas.mean()), delays.max() / 3.0, far]


def _recorded():
    points = []

    def model(n, *p):
        points.append(tuple(float(v) for v in p))
        return envelope(n, *p)
    return model, points


def _run_both(delays, areas, p0, max_nfev=MAX_NFEV, lower=LOWER):
    """((popt, pcov, nfev) or exception type, points): the port, then scipy."""
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, points = _recorded()
        try:
            fit = lsq.curve_fit(model, delays, areas, p0, lower, max_nfev)
            outcome = (fit.popt, fit.pcov, fit.nfev)
        except FitError:
            outcome = FitError
        outcomes.append((outcome, points))
        model, points = _recorded()
        try:
            popt, pcov, info, _, _ = optimize.curve_fit(
                model, delays, areas, p0=p0, bounds=(lower, np.inf),
                maxfev=max_nfev, full_output=True)
            outcome = (popt, pcov, info["nfev"])
        except (RuntimeError, ValueError):
            outcome = FitError
        outcomes.append((outcome, points))
    return outcomes


def _assert_same(port, scipy):
    (outcome, points), (expected, expected_points) = port, scipy
    assert points == expected_points
    if expected is FitError:
        assert outcome is FitError
    else:
        assert outcome is not FitError
        for got, want in zip(outcome, expected):
            np.testing.assert_array_equal(got, want, strict=True)


SERIES = st.builds(
    dict,
    n_delays=st.just(4) | st.integers(5, 60),
    # an amplitude or a plateau of 0 puts the optimum on the bound
    amp=st.just(0.0) | st.floats(-3.0, 5.0).map(lambda e: 10.0**e),
    tau=st.floats(-0.5, 2.0).map(lambda e: 10.0**e),
    plateau=st.just(0.0) | st.floats(-3.0, 5.0).map(lambda e: 10.0**e),
    noise=st.sampled_from(["none", "poisson", "gauss"]),
    seed=st.integers(0, 2**32 - 1),
    start=st.sampled_from(["blinking", "amp-bound", "tau-bound", "plateau-bound"]),
)
ON_BOUND = {"amp-bound": 0, "tau-bound": 1, "plateau-bound": 2}  # p0 index


def _case(n_delays, amp, tau, plateau, noise, seed, start):
    delays = np.arange(1, n_delays + 1, dtype=float)
    mean = envelope(delays, amp, tau, plateau)
    rng = np.random.default_rng(seed)
    if noise == "poisson":
        areas = rng.poisson(mean).astype(float)
    elif noise == "gauss":
        areas = np.abs(mean + rng.normal(0.0, 0.1 * mean.mean() + 1e-3, n_delays))
    else:
        areas = mean
    p0 = _blinking_p0(delays, areas)
    if start in ON_BOUND:
        p0[ON_BOUND[start]] = LOWER[ON_BOUND[start]]
    return delays, areas, p0


@PROPERTY
@given(SERIES)
# areas that all vanish, and a qd-like series started on the amplitude bound
@example(dict(n_delays=4, amp=0.0, tau=1.0, plateau=0.0, noise="none", seed=0,
              start="blinking"))
@example(dict(n_delays=40, amp=2600.0, tau=8.0, plateau=3500.0, noise="poisson",
              seed=7, start="amp-bound"))
def test_the_port_takes_scipys_steps(series):
    delays, areas, p0 = _case(**series)
    _assert_same(*_run_both(delays, areas, p0))


@settings(PROPERTY, max_examples=50)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 0.95),
       st.integers(0, 2**32 - 1))
def test_a_step_below_a_negative_bound_is_flipped(amp_exp, plateau_exp, gap, seed):
    # blinking_fit's bounds are never negative, so only here does the
    # forward difference from a negative start step down across the bound
    lower = [-(10.0**amp_exp), 1e-9, -(10.0**plateau_exp)]
    delays = np.arange(1.0, 31.0)
    mean = envelope(delays, 0.5 * lower[0], 5.0, 0.5 * lower[2])
    areas = mean + np.random.default_rng(seed).normal(0.0, 0.1 * np.abs(mean).mean(), 30)
    offset = gap * np.finfo(float).eps**0.5
    p0 = [lower[0] + offset * max(1.0, -lower[0]), 5.0,
          lower[2] + offset * max(1.0, -lower[2])]
    port, scipy = _run_both(delays, areas, p0, lower=lower)
    _assert_same(port, scipy)
    # the start, then the amplitude's difference point: a negative start
    # steps down by default, and here that step was turned up
    start, shifted = port[1][:2]
    assert shifted[0] > start[0]


def test_areas_rising_with_delay_drive_the_amplitude_onto_its_bound():
    delays = np.arange(1.0, 21.0)
    areas = 100.0 + delays
    port, scipy = _run_both(delays, areas, _blinking_p0(delays, areas))
    _assert_same(port, scipy)
    popt = port[0][0]
    assert popt[0] < 1e-6 * popt[2]


@pytest.mark.parametrize("where", ["areas", "delays"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_data_is_a_fit_error(where, value):
    delays = np.arange(1.0, 11.0)
    areas = envelope(delays, 50.0, 3.0, 20.0)
    (areas if where == "areas" else delays)[4] = value
    port, scipy = _run_both(delays, areas, [40.0, 3.0, 20.0])
    _assert_same(port, scipy)
    assert port[0] is FitError
    with pytest.raises(FitError, match="infs or NaNs"):
        lsq.curve_fit(envelope, delays, areas, [40.0, 3.0, 20.0], LOWER, MAX_NFEV)


def test_an_exhausted_budget_is_a_fit_error():
    delays = np.arange(1.0, 41.0)
    areas = envelope(delays, 2600.0, 8.0, 3500.0)
    p0 = _blinking_p0(delays, areas)
    port, scipy = _run_both(delays, areas, p0, max_nfev=3)
    _assert_same(port, scipy)
    assert port[0] is FitError
    with pytest.raises(FitError, match="maximum number of function evaluations"):
        lsq.curve_fit(envelope, delays, areas, p0, LOWER, max_nfev=3)


def _scipy_curve_fit(f, xdata, ydata, p0, lower, max_nfev):
    popt, pcov, info, _, _ = optimize.curve_fit(
        f, xdata, ydata, p0=p0, bounds=(lower, np.inf), maxfev=max_nfev,
        full_output=True)
    return lsq.CurveFit(popt=popt, pcov=pcov, nfev=info["nfev"])


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_blinking_fit_is_scipys_on_qd_peaks(monkeypatch, seed):
    # the qd campaign's peaks: 8M pulses at the benchmark's efficiency
    run = simulate_qd_pairs(QdSourceConfig(), DetectionConfig(eta=0.1467), 8_000_000,
                            seed, collect_tags=True)
    delays, areas = peak_areas_from_tags(run.tags)
    port = blinking_fit(delays, areas)
    monkeypatch.setattr(lsq, "curve_fit", _scipy_curve_fit)
    expected = blinking_fit(delays, areas)
    assert port == expected  # fit_meta, with its sigmas, too

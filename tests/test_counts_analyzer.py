import math

import numpy as np
import pytest

from nongauss import DomainError, FitError
from nongauss.counts_analyzer import (
    AttenuationScan,
    CountSummary,
    ProbabilityEstimate,
    attenuation_scan,
    blinking_fit,
    depth_fit,
    estimate_click_probabilities,
    sigma_distance,
    undersample,
)
from nongauss.threshold_solver import (
    PairThresholdModel,
    SplitterThresholdModel,
    ThresholdCurve,
)


PAIR_COUNTS = CountSummary(
    kind="pair",
    duration_s=1200.0,
    generation_rate_hz=11.32e6,
    success_count=244113,
    error_count_a=365,
    error_count_b=430,
    generation_rate_sigma_hz=0.12e6,
)


SINGLE_COUNTS = CountSummary(
    kind="single",
    duration_s=1200.0,
    generation_rate_hz=22.64e6,
    success_count=2059334400,
    error_count_a=7513318,
    generation_rate_sigma_hz=0.25e6,
)


def pair_curve(eta=0.1467):
    # a swept-curve stand-in built from the closed form
    pe = np.geomspace(1e-14, 1e-4, 41)
    return ThresholdCurve("pair", eta, 0.5, 1, np.full(pe.size, np.nan), pe,
                          PairThresholdModel(eta).value(pe), np.zeros(pe.size),
                          tuple({} for _ in pe))


def test_count_summary_validation():
    with pytest.raises(DomainError):
        CountSummary("pair", 1.0, 1e6, 10, 1)  # missing arm-b errors
    with pytest.raises(DomainError):
        CountSummary("single", 1.0, 1e6, 10, 1, error_count_b=2)
    with pytest.raises(DomainError):
        CountSummary("pair", 0.0, 1e6, 10, 1, 2)
    with pytest.raises(DomainError):
        CountSummary("pair", 1.0, 1e6, -1, 1, 2)
    with pytest.raises(DomainError):
        CountSummary("triple", 1.0, 1e6, 10, 1, 2)


def test_probability_estimates_reference_point():
    ps, pe = estimate_click_probabilities(PAIR_COUNTS)
    assert ps.value == pytest.approx(1.797e-5, rel=5e-3, abs=0.0)
    assert pe.value == pytest.approx(2.93e-8, rel=2e-2, abs=0.0)
    # quoted uncertainties: 0.020e-5 and 0.11e-8
    assert ps.sigma == pytest.approx(2.0e-7, rel=0.1, abs=0.0)
    assert pe.sigma == pytest.approx(1.1e-9, rel=0.1, abs=0.0)


def test_zero_counts_estimate():
    counts = CountSummary("pair", 10.0, 1e6, 0, 0, 0)
    ps, pe = estimate_click_probabilities(counts)
    assert (ps.value, ps.sigma) == (0.0, 0.0)
    assert (pe.value, pe.sigma) == (0.0, 0.0)


def test_more_data_same_rates_shrinks_sigma():
    import dataclasses
    doubled = dataclasses.replace(
        PAIR_COUNTS,
        duration_s=2 * PAIR_COUNTS.duration_s,
        success_count=2 * PAIR_COUNTS.success_count,
        error_count_a=2 * PAIR_COUNTS.error_count_a,
        error_count_b=2 * PAIR_COUNTS.error_count_b,
    )
    ps1, pe1 = estimate_click_probabilities(PAIR_COUNTS)
    ps2, pe2 = estimate_click_probabilities(doubled)
    assert ps2.value == pytest.approx(ps1.value, rel=1e-12, abs=0.0)
    assert pe2.value == pytest.approx(pe1.value, rel=1e-12, abs=0.0)
    assert ps2.sigma < ps1.sigma
    assert pe2.sigma < pe1.sigma


def test_sigma_distance_on_threshold_is_zero():
    model = PairThresholdModel(0.5)
    pe = ProbabilityEstimate(1e-8, 1e-10)
    ps = ProbabilityEstimate(float(model.value(1e-8)), 1e-7)
    dist = sigma_distance(ps, pe, model)
    assert dist.value == pytest.approx(0.0, abs=1e-9)


def test_sigma_distance_reference_point():
    ps, pe = estimate_click_probabilities(PAIR_COUNTS)
    dist = sigma_distance(ps, pe, PairThresholdModel(0.1467), sigma_eta=0.0034)
    assert 10.0 < dist.value < 13.5
    assert dist.threshold_value < ps.value
    assert set(dist.components) == {"from_p_success", "from_p_error", "from_eta"}
    total = math.sqrt(sum(v**2 for v in dist.components.values()))
    assert dist.sigma_total == pytest.approx(total, rel=1e-12, abs=0.0)


def test_sigma_distance_guards():
    model = PairThresholdModel(0.5)
    with pytest.raises(DomainError):
        sigma_distance(
            ProbabilityEstimate(1e-4, 0.0), ProbabilityEstimate(1e-8, 0.0), model
        )
    # a splitter-only model cannot absorb an efficiency uncertainty
    with pytest.raises(DomainError):
        sigma_distance(
            ProbabilityEstimate(1e-4, 1e-6),
            ProbabilityEstimate(1e-8, 1e-10),
            SplitterThresholdModel(0.5),
            sigma_eta=0.01,
        )
    # nor can a swept curve until it carries an efficiency derivative
    ps, pe = estimate_click_probabilities(PAIR_COUNTS)
    assert sigma_distance(ps, pe, pair_curve()).value > 0
    with pytest.raises(DomainError):
        sigma_distance(ps, pe, pair_curve(), sigma_eta=0.0034)


def test_undersample_deterministic_laws():
    same = undersample(PAIR_COUNTS, 0.0)
    assert same.success_count == PAIR_COUNTS.success_count
    half = undersample(PAIR_COUNTS, 0.5)
    assert half.success_count == pytest.approx(244113 * 0.25, rel=1e-12, abs=0.0)
    assert half.error_count_a == pytest.approx(365 * 0.25, rel=1e-12, abs=0.0)
    single_half = undersample(SINGLE_COUNTS, 0.5)
    assert single_half.success_count == pytest.approx(
        SINGLE_COUNTS.success_count * 0.5, rel=1e-12, abs=0.0
    )
    assert single_half.error_count_a == pytest.approx(
        SINGLE_COUNTS.error_count_a * 0.25, rel=1e-12, abs=0.0
    )
    with pytest.raises(DomainError):
        undersample(PAIR_COUNTS, 1.0)


def test_undersample_commutes_with_estimation():
    a = 0.37
    ps0, pe0 = estimate_click_probabilities(PAIR_COUNTS)
    ps1, pe1 = estimate_click_probabilities(undersample(PAIR_COUNTS, a))
    assert ps1.value == pytest.approx(ps0.value * (1 - a) ** 2, rel=1e-12, abs=0.0)
    assert pe1.value == pytest.approx(pe0.value * (1 - a) ** 2, rel=1e-12, abs=0.0)


def test_attenuation_scan_shape_and_line():
    scan = attenuation_scan(PAIR_COUNTS, a_max=0.8, step=0.02)
    assert scan.attenuations.size == 41
    assert scan.attenuations[0] == 0.0
    assert scan.attenuations[-1] == pytest.approx(0.8, abs=0.0)
    assert np.all(scan.p_success > 0) and np.all(scan.p_error > 0)
    # pairs: both probabilities scale with (1-a)^2, so the log-log
    # trajectory is a straight line of slope one
    slope = np.polyfit(np.log(scan.p_error), np.log(scan.p_success), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        attenuation_scan(PAIR_COUNTS, a_max=0.8, step=0.9)


def test_blinking_fit_roundtrip():
    n = np.arange(1, 41)
    amp, tau, plateau = 1000.0, 9.5, 1300.0
    areas = amp * np.exp(-n / tau) + plateau
    fit = blinking_fit(n, areas)
    assert fit.blinking_factor == pytest.approx(plateau / (amp + plateau), rel=1e-6, abs=0.0)
    assert fit.correlation_pulses == pytest.approx(tau, rel=1e-6, abs=0.0)


def test_blinking_fit_flat_and_guards():
    n = np.arange(1, 21)
    fit = blinking_fit(n, np.full(20, 42.0))
    assert fit.blinking_factor == 1.0
    assert fit.amplitude == 0.0
    with pytest.raises(DomainError):
        blinking_fit([0, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        blinking_fit([1, 2, 3, 4], [1.0, 2.0, 3.0, -1.0])
    with pytest.raises(FitError):
        blinking_fit(np.arange(1, 10), np.zeros(9))


def test_blinking_fit_ignores_zero_delay():
    n = np.arange(0, 30)
    amp, tau, plateau = 500.0, 6.0, 800.0
    areas = amp * np.exp(-np.abs(n) / tau) + plateau
    areas[0] = 5.0  # suppressed central peak must not bias the fit
    fit = blinking_fit(n, areas)
    assert fit.blinking_factor == pytest.approx(plateau / (amp + plateau), rel=1e-6, abs=0.0)


def test_depth_fit_pair_reference():
    scan = attenuation_scan(PAIR_COUNTS)
    res = depth_fit(scan, PairThresholdModel(0.1467), sigma_eta=0.0034)
    assert res.status == "crossed"
    assert res.depth_db == pytest.approx(0.6997, abs=2e-3)
    assert res.depth_db == pytest.approx(
        -10.0 * math.log10(res.crossing_transmission), abs=1e-9
    )
    # the thinning law's exponents, not fitted slopes
    assert res.fit_meta["slope_success"] == 2.0
    assert res.fit_meta["slope_error"] == 2.0
    # the unattenuated end of the fit carries the same budget as the verdict
    d = sigma_distance(*estimate_click_probabilities(PAIR_COUNTS),
                       PairThresholdModel(0.1467), sigma_eta=0.0034)
    assert res.fit_meta["gap_at_unity"] == pytest.approx(
        (d.value - res.fit_meta["sigma_level"]) * d.sigma_total, rel=1e-12, abs=0.0
    )


def test_depth_fit_single_reference():
    scan = attenuation_scan(SINGLE_COUNTS)
    res = depth_fit(scan, SplitterThresholdModel(0.5166))
    assert res.status == "crossed"
    assert res.depth_db == pytest.approx(7.41, abs=1e-3)
    assert res.crossing_transmission == pytest.approx(0.18155, abs=2e-4)
    assert res.depth_db == pytest.approx(
        -10.0 * math.log10(res.crossing_transmission), abs=1e-9
    )
    assert res.fit_meta["slope_success"] == 1.0
    assert res.fit_meta["slope_error"] == 2.0


def test_depth_fit_below_threshold():
    import dataclasses
    weak = dataclasses.replace(PAIR_COUNTS, success_count=200.0)
    scan = attenuation_scan(weak)
    res = depth_fit(scan, PairThresholdModel(0.1467), sigma_eta=0.0034)
    assert res.status == "below_threshold"
    assert res.depth_db == 0.0
    assert res.crossing_transmission == 1.0


def test_depth_fit_guards():
    # nothing is fitted, so a four-point scan gives the full scan's depth
    model = PairThresholdModel(0.1467)
    short = depth_fit(attenuation_scan(PAIR_COUNTS, a_max=0.06, step=0.02), model)
    full = depth_fit(attenuation_scan(PAIR_COUNTS), model)
    assert short.depth_db == pytest.approx(full.depth_db, rel=1e-12, abs=0.0)
    zero = CountSummary("pair", 1.0, 1e6, 10.0, 0.0, 0.0)
    with pytest.raises(FitError):
        depth_fit(attenuation_scan(zero), model)
    # a splitter-only model cannot absorb an efficiency uncertainty
    with pytest.raises(DomainError):
        depth_fit(attenuation_scan(SINGLE_COUNTS), SplitterThresholdModel(0.5166),
                  sigma_eta=0.0034)
    with pytest.raises(DomainError):
        depth_fit(attenuation_scan(PAIR_COUNTS), pair_curve(), sigma_eta=0.0034)


def test_scan_type_validation():
    with pytest.raises(DomainError):
        AttenuationScan([0.0, 0.0], [1e-5] * 2, [1e-7] * 2, [1e-8] * 2, [1e-9] * 2,
                        PAIR_COUNTS)
    with pytest.raises(DomainError):
        AttenuationScan([0.0, 0.1], [1e-5] * 2, [1e-7] * 2, [1e-8] * 3, [1e-9] * 2,
                        PAIR_COUNTS)

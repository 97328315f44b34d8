"""Property tests of the analyzer's thinning law and sigma distance.

Derandomized, so every run draws the same examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nongauss.counts_analyzer import (
    CountSummary,
    ProbabilityEstimate,
    estimate_click_probabilities,
    sigma_distance,
    undersample,
)
from nongauss.threshold_solver import (
    PairThresholdModel,
    SinglePhotonThresholdModel,
    SplitterThresholdModel,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# clicks each count needs: (success, error, singles)
EXPONENTS = {"pair": (2, 2, 1), "single": (1, 2, 1)}

ATTENUATION = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def counts(draw):
    # every count at most the number of trials, so each estimate is a probability
    kind = draw(st.sampled_from(["pair", "single"]))
    duration, rate = draw(st.floats(1e-3, 1e5)), draw(st.floats(1e3, 1e9))
    count = st.floats(0.0, 1.0).map(lambda f: f * duration * rate)
    return CountSummary(
        kind=kind,
        duration_s=duration,
        generation_rate_hz=rate,
        success_count=draw(count),
        error_count_a=draw(count),
        error_count_b=draw(count) if kind == "pair" else None,
        generation_rate_sigma_hz=draw(st.floats(0.0, 1e3)),
        singles=draw(st.none() | st.dictionaries(st.sampled_from("ab"), count, min_size=1)),
    )


@PROPERTY
@given(counts(), ATTENUATION)
def test_undersample_scales_each_count_by_its_power(c, a):
    k_success, k_error, k_single = EXPONENTS[c.kind]
    thinned = undersample(c, a)
    assert thinned.kind == c.kind
    pairs = [(thinned.success_count, c.success_count * (1 - a) ** k_success),
             (thinned.error_count_a, c.error_count_a * (1 - a) ** k_error)]
    if c.kind == "pair":
        pairs.append((thinned.error_count_b, c.error_count_b * (1 - a) ** k_error))
    else:
        assert thinned.error_count_b is None
    if c.singles is not None:
        assert thinned.singles.keys() == c.singles.keys()
        pairs += [(thinned.singles[k], v * (1 - a) ** k_single)
                  for k, v in c.singles.items()]
    for got, expected in pairs:
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@PROPERTY
@given(counts(), ATTENUATION)
def test_estimates_follow_the_thinning_law(c, a):
    k_success, k_error, _ = EXPONENTS[c.kind]
    tau = 1.0 - a
    ps0, pe0 = estimate_click_probabilities(c)
    ps, pe = estimate_click_probabilities(undersample(c, a))
    assert ps.value == pytest.approx(ps0.value * tau**k_success, rel=1e-12, abs=0.0)
    assert pe.value == pytest.approx(pe0.value * tau**k_error, rel=1e-12, abs=0.0)


MODEL = st.one_of(
    st.floats(0.01, 1.0).map(PairThresholdModel),
    st.floats(0.01, 1.0).map(SinglePhotonThresholdModel),
    st.floats(0.05, 0.95).map(SplitterThresholdModel),
)


@PROPERTY
@given(MODEL, st.floats(1e-14, 1e-3), st.just(1.0) | st.floats(0.0, 2.0),
       st.floats(1e-3, 1.0), st.floats(0.0, 1.0))
def test_sigma_distance_changes_sign_at_the_threshold(model, p_e, ratio,
                                                      rel_sigma_s, rel_sigma_e):
    threshold = float(model.value(p_e))
    p_s = min(ratio * threshold, 1.0)
    d = sigma_distance(ProbabilityEstimate(p_s, rel_sigma_s * threshold),
                       ProbabilityEstimate(p_e, rel_sigma_e * p_e), model)
    assert d.threshold_value == threshold
    assert (d.value > 0) == (p_s > threshold)
    assert (d.value < 0) == (p_s < threshold)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nongauss.counts_analyzer import blinking_fit, estimate_click_probabilities
from nongauss.errors import DomainError
from nongauss.photon_statistics import (
    DetectionConfig,
    ModeEnsemble,
    multimode_pair_click_probs,
)
from nongauss.source_simulator import (
    BLOCK,
    QdSourceConfig,
    peak_areas_from_tags,
    simulate_multimode_tmsv,
    simulate_qd_pairs,
    simulate_single_photon_stream,
)


def test_qd_config_validation():
    with pytest.raises(DomainError):
        QdSourceConfig(blinking_on_fraction=0.0)
    with pytest.raises(DomainError):
        QdSourceConfig(coincidence_window_ps=-1.0)
    with pytest.raises(DomainError):
        QdSourceConfig(extraction_efficiency=1.5)


def test_tmsv_deterministic_across_block_boundary():
    det = DetectionConfig(eta=0.4, t_bs=0.5)
    ens = ModeEnsemble.uniform(0.1, 2)
    n = BLOCK + 501
    run_a = simulate_multimode_tmsv(ens, det, n, seed=11)
    run_b = simulate_multimode_tmsv(ens, det, n, seed=11)
    assert run_a.counts == run_b.counts
    assert run_a.counts.singles == run_b.counts.singles
    run_c = simulate_multimode_tmsv(ens, det, n, seed=12)
    assert run_c.counts.success_count != run_a.counts.success_count


def test_tmsv_matches_analytic_probabilities():
    det = DetectionConfig(eta=0.5, t_bs=0.5)
    ens = ModeEnsemble.uniform(0.3, 1)
    n = 2_000_000
    run = simulate_multimode_tmsv(ens, det, n, seed=7)
    exact = multimode_pair_click_probs(ModeEnsemble((0.3,)), det)
    for observed, p in (
        (run.counts.success_count, exact.p_success),
        (run.counts.error_count_a, exact.p_error),
        (run.counts.error_count_b, exact.p_error),
    ):
        se = np.sqrt(p * (1.0 - p) / n)
        assert abs(observed / n - p) < 4.0 * se


def test_tmsv_counts_normalization():
    det = DetectionConfig(eta=0.5, t_bs=0.5)
    n = 50_000
    run = simulate_multimode_tmsv(ModeEnsemble.uniform(0.2, 1), det, n, seed=3)
    # generation rate x duration = pulse count, so estimates are per pulse
    assert run.counts.trials == pytest.approx(n, abs=0.0)
    p_success, _ = estimate_click_probabilities(run.counts)
    assert p_success.value == pytest.approx(run.counts.success_count / n, abs=0.0)


def test_single_stream_matches_splitting_statistics():
    det = DetectionConfig(eta=1.0, t_bs=0.5)
    q = 0.01
    n = 1_000_000
    run = simulate_single_photon_stream(q, det, n, seed=5)
    # with unit efficiency a lone photon always clicks somewhere
    p_error = q * 0.5
    p_success = (1.0 - q) * 0.5 + q * 0.75
    se_s = np.sqrt(p_success * (1 - p_success) / n)
    se_e = np.sqrt(p_error * (1 - p_error) / n)
    assert abs(run.counts.success_count / n - p_success) < 4 * se_s
    assert abs(run.counts.error_count_a / n - p_error) < 4 * se_e


def test_qd_ideal_source_is_perfect():
    src = QdSourceConfig(
        emission_prob=1.0,
        blinking_on_fraction=1.0,
        g2_contamination=0.0,
        coincidence_window_ps=1e9,
    )
    det = DetectionConfig(eta=1.0, t_bs=0.5)
    n = 200_000
    run = simulate_qd_pairs(src, det, n, seed=1)
    # exactly one pair per pulse: no same-arm coincidences possible
    assert run.counts.error_count_a == 0
    assert run.counts.error_count_b == 0
    p = run.counts.success_count / n
    assert abs(p - 0.25) < 4 * np.sqrt(0.25 * 0.75 / n)
    assert run.counts.singles["a1"] + run.counts.singles["a2"] == n


def test_qd_deterministic():
    src = QdSourceConfig()
    det = DetectionConfig(eta=0.1467, t_bs=0.5)
    a = simulate_qd_pairs(src, det, 300_000, seed=21)
    b = simulate_qd_pairs(src, det, 300_000, seed=21)
    assert a.counts == b.counts


def test_qd_window_prunes_coincidences():
    src_wide = QdSourceConfig(coincidence_window_ps=1e9)
    src_tight = QdSourceConfig(coincidence_window_ps=10.0)
    det = DetectionConfig(eta=0.5, t_bs=0.5)
    wide = simulate_qd_pairs(src_wide, det, 200_000, seed=2)
    tight = simulate_qd_pairs(src_tight, det, 200_000, seed=2)
    assert tight.counts.success_count < 0.2 * wide.counts.success_count
    # clicks are window independent
    assert tight.counts.singles == wide.counts.singles


def test_qd_blinking_scales_success_rate():
    det = DetectionConfig(eta=0.8, t_bs=0.5)
    always_on = simulate_qd_pairs(
        QdSourceConfig(blinking_on_fraction=1.0), det, 400_000, seed=9
    )
    half_on = simulate_qd_pairs(
        QdSourceConfig(blinking_on_fraction=0.5), det, 400_000, seed=9
    )
    ratio = half_on.counts.success_count / always_on.counts.success_count
    assert 0.42 < ratio < 0.58


def test_tag_stream_schema_and_order():
    src = QdSourceConfig()
    det = DetectionConfig(eta=0.5, t_bs=0.5)
    run = simulate_qd_pairs(src, det, 50_000, seed=4, collect_tags=True)
    tags = run.tags
    assert set(tags) == {"pulse_index", "detector", "time_ps"}
    assert np.all(np.diff(tags["pulse_index"]) >= 0)
    assert set(np.unique(tags["detector"])) <= {"a1", "a2", "b1", "b2"}
    assert np.all(tags["time_ps"] > 0)
    n_b1 = int(np.sum(tags["detector"] == "b1"))
    assert n_b1 == run.counts.singles["b1"]


def test_blinking_roundtrip_from_tags():
    src = QdSourceConfig(blinking_on_fraction=0.566, blinking_correlation_pulses=8.0)
    det = DetectionConfig(eta=0.3, t_bs=0.5)
    run = simulate_qd_pairs(src, det, 4_000_000, seed=17, collect_tags=True)
    delays, areas = peak_areas_from_tags(run.tags, max_delay=40)
    fit = blinking_fit(delays, areas)
    assert fit.blinking_factor == pytest.approx(0.566, abs=0.03)


def test_peak_areas_requires_tags():
    tags = {
        "pulse_index": np.array([0, 1]),
        "detector": np.array(["a1", "a1"]),
        "time_ps": np.array([1.0, 2.0]),
    }
    with pytest.raises(DomainError):
        peak_areas_from_tags(tags, max_delay=10)


def _tags(a, b):
    pulses = list(a) + list(b)
    return {
        "pulse_index": np.array(pulses, dtype=np.int64),
        "detector": np.array(["a1"] * len(a) + ["b1"] * len(b)),
        "time_ps": np.zeros(len(pulses)),
    }


def test_a_repeated_tag_is_one_click():
    # pulse 10 tagged twice on a1: still one a-click, so only delay 2 pairs up
    delays, areas = peak_areas_from_tags(_tags([10, 10], [12]), max_delay=5)
    assert delays.tolist() == [1, 2, 3, 4, 5]
    assert areas.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0]


TOP = np.iinfo(np.int64).max
PULSES = st.lists(st.integers(0, 60) | st.integers(TOP - 60, TOP)
                  | st.integers(-TOP - 1, -TOP + 60), min_size=1, max_size=40)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(PULSES, PULSES, st.integers(1, 12))
def test_peak_areas_count_each_pair_of_clicked_pulses(a, b, max_delay):
    # unsorted, repeated, and at both ends of the int64 range
    delays, areas = peak_areas_from_tags(_tags(a, b), max_delay=max_delay)
    expected = [sum(1 for i in set(a) for j in set(b) if j - i == n)
                for n in range(1, max_delay + 1)]
    assert delays.tolist() == list(range(1, max_delay + 1))
    assert areas.tolist() == expected

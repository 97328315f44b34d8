import re

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
    # no emission leaves no generation rate to normalize the counts by
    with pytest.raises(DomainError, match=re.escape("emission_prob must lie in (0, 1]")):
        QdSourceConfig(emission_prob=0.0)


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


def test_tags_of_one_pulse_come_in_detector_order():
    # every pulse emits and most click on several detectors
    src = QdSourceConfig(emission_prob=1.0, blinking_on_fraction=1.0)
    det = DetectionConfig(eta=1.0, t_bs=0.5)
    tags = simulate_qd_pairs(src, det, 20_000, seed=4, collect_tags=True).tags
    _, per_pulse = np.unique(tags["pulse_index"], return_counts=True)
    assert per_pulse.max() >= 3
    order = np.lexsort((tags["detector"], tags["pulse_index"]))
    assert np.array_equal(order, np.arange(order.size))


def _reference_qd_pairs(source, detection, n_pulses, seed):
    """The full-block simulator: every pulse through every step.

    An independent slow route for simulate_qd_pairs, which draws the
    same streams but keeps only the emitting pulses after emission.
    """
    q_double = source.g2_contamination * source.emission_prob / 2.0
    survival = source.extraction_efficiency * detection.eta
    window = source.coincidence_window_ps

    def telegraph(rng, n):
        keep = rng.random(n) < np.exp(-1.0 / source.blinking_correlation_pulses)
        fresh = rng.random(n) < source.blinking_on_fraction
        keep[0] = False
        last_draw = np.maximum.accumulate(np.where(~keep, np.arange(n), -1))
        return fresh[last_draw]

    def route(rng, present, times, t_bs):
        n = present[0].size
        t1 = np.full(n, np.inf)
        t2 = np.full(n, np.inf)
        for exists, t in zip(present, times):
            u = rng.random(n)
            hit1 = exists & (u < survival * t_bs)
            hit2 = exists & ~hit1 & (u < survival)
            t1[hit1] = np.minimum(t1[hit1], t[hit1])
            t2[hit2] = np.minimum(t2[hit2], t[hit2])
        return t1, t2

    def coincide(ta, tb):
        both = np.isfinite(ta) & np.isfinite(tb)
        delta = np.where(both, ta, 0.0) - np.where(both, tb, 0.0)
        return int(np.sum(both & (np.abs(delta) <= window)))

    coincidences = [0, 0, 0]
    clicks = {"a1": 0, "a2": 0, "b1": 0, "b2": 0}
    tags = {"pulse_index": [], "detector": [], "time_ps": []}
    for block_index, start in enumerate(range(0, n_pulses, BLOCK)):
        n = min(BLOCK, n_pulses - start)
        rng = np.random.default_rng((seed, block_index))
        emit1 = telegraph(rng, n) & (rng.random(n) < source.emission_prob)
        emit2 = emit1 & (rng.random(n) < q_double)
        t_a1p = rng.exponential(source.xx_lifetime_ps, n)
        t_b1p = t_a1p + rng.exponential(source.x_lifetime_ps, n)
        t_a2p = t_b1p + rng.exponential(source.xx_lifetime_ps, n)
        t_b2p = t_a2p + rng.exponential(source.x_lifetime_ps, n)
        ta1, ta2 = route(rng, (emit1, emit2), (t_a1p, t_a2p), detection.t_bs)
        tb1, tb2 = route(rng, (emit1, emit2), (t_b1p, t_b2p), detection.t_bs_b)
        for i, (ta, tb) in enumerate(((ta1, tb1), (ta1, ta2), (tb1, tb2))):
            coincidences[i] += coincide(ta, tb)
        for name, t in (("a1", ta1), ("a2", ta2), ("b1", tb1), ("b2", tb2)):
            hit = np.isfinite(t)
            clicks[name] += int(np.sum(hit))
            tags["pulse_index"].append(start + np.flatnonzero(hit))
            tags["detector"].append(np.full(int(hit.sum()), name, dtype="U2"))
            tags["time_ps"].append(t[hit])
    tags = {k: np.concatenate(v) for k, v in tags.items()}
    order = np.lexsort((tags["detector"], tags["pulse_index"]))
    return coincidences, clicks, {k: v[order] for k, v in tags.items()}


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("source, detection, n_pulses", [
    # every pulse emits, and the run crosses a block boundary
    (QdSourceConfig(emission_prob=1.0, blinking_on_fraction=1.0),
     DetectionConfig(eta=1.0, t_bs=0.5), BLOCK + 501),
    (QdSourceConfig(), DetectionConfig(eta=0.1467, t_bs=0.5), BLOCK + 501),
    (QdSourceConfig(extraction_efficiency=0.5, g2_contamination=2.0),
     DetectionConfig(eta=0.8, t_bs=0.3, t_bs_b=0.7), 200_000),
    (QdSourceConfig(emission_prob=1e-12), DetectionConfig(eta=0.5, t_bs=0.5), 1000),
    (QdSourceConfig(), DetectionConfig(eta=0.5, t_bs=0.5), 1),
], ids=["all-emit", "defaults", "lossy-asymmetric", "none-emit", "one-pulse"])
def test_qd_matches_the_full_block_route(source, detection, n_pulses, seed):
    run = simulate_qd_pairs(source, detection, n_pulses, seed, collect_tags=True)
    coincidences, clicks, tags = _reference_qd_pairs(source, detection, n_pulses, seed)
    c = run.counts
    assert [c.success_count, c.error_count_a, c.error_count_b] == coincidences
    assert c.singles == clicks
    assert run.tags.keys() == tags.keys()
    for name, expected in tags.items():
        assert run.tags[name].dtype == expected.dtype
        assert np.array_equal(run.tags[name], expected)


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

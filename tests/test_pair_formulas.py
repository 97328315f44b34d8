from fractions import Fraction
from itertools import islice

import mpmath
import numpy as np
import pytest

from nongauss.photon_statistics import (
    DetectionConfig,
    ModeEnsemble,
    multimode_pair_click_probs,
    poisson_pair_click_probs,
    tmsv_pair_click_probs_series,
)
from nongauss.photon_statistics.pair_formulas import _photon_weights


def tmsv(mu, cfg):
    return multimode_pair_click_probs(ModeEnsemble((mu,)), cfg)


CASES = [
    (0.3, DetectionConfig(eta=0.5)),
    (0.1, DetectionConfig(eta=0.1467, t_bs=0.5166, t_bs_b=0.48)),
    (1e-4, DetectionConfig(eta=0.8)),
    (1e-7, DetectionConfig(eta=0.25)),
    (0.9, DetectionConfig(eta=1.0, t_bs=0.35)),
]


@pytest.mark.parametrize("mu,cfg", CASES)
def test_rational_forms_match_series_oracle(mu, cfg):
    a = tmsv(mu, cfg)
    b = tmsv_pair_click_probs_series(mu, cfg)
    assert a.p_success == pytest.approx(b.p_success, rel=1e-12, abs=1e-300)
    assert a.p_error == pytest.approx(b.p_error, rel=1e-12, abs=1e-300)


def test_photon_weights_match_closed_forms():
    # exact closed forms in rationals; the recursion must agree without
    # the cancellation of 1 - a**n - b**n + c**n
    k1, k2 = 0.3, 0.45
    a, b = 1 - Fraction(k1), 1 - Fraction(k2)
    c = a + b - 1
    for n, (none, only1, only2, both, hit1) in enumerate(
            islice(_photon_weights(k1, k2), 40)):
        assert none == pytest.approx(float(c**n), rel=1e-13, abs=0.0)
        assert hit1 == pytest.approx(float(1 - a**n), rel=1e-13, abs=0.0)
        assert both == pytest.approx(float(1 - a**n - b**n + c**n), rel=1e-13, abs=0.0)
        assert none + only1 + only2 + both == pytest.approx(1.0, rel=1e-14, abs=0.0)


def _tmsv_50_digits(mu, cfg):
    # 1 - k Q(x1) - k Q(x2) + k^2 Q(x12) per coincidence, with Q the
    # geometric generating function, k = 1 - dark and every product in mpf
    with mpmath.workdps(50):
        mu, eta, k = mpmath.mpf(mu), mpmath.mpf(cfg.eta), 1 - mpmath.mpf(cfg.dark_count_prob)
        ta, tb = mpmath.mpf(cfg.t_bs), mpmath.mpf(cfg.t_bs_b)

        def coincidence(k1, k2, k12):
            # k12: the transmission whose loss leaves both detectors dark
            q1, q2, q12 = ((1 - mu) / (1 - mu * (1 - x)) for x in (k1, k2, k12))
            return 1 - k * q1 - k * q2 + k * k * q12

        ka, kb = eta * ta, eta * tb
        p_s = coincidence(ka, kb, ka + kb - ka * kb)
        p_e = sum(coincidence(eta * t, eta * (1 - t), eta) for t in (ta, tb)) / 2
        return float(p_s), float(p_e)


@pytest.mark.parametrize("mu", [1e-10, 1e-7, 1e-4, 0.05, 0.3, 0.9])
@pytest.mark.parametrize("dark", [0.0, 1e-4])
def test_series_oracle_matches_50_digits(mu, dark):
    # down to p_error ~ 1e-21 at mu = 1e-10, with dark clicks folded in
    # per photon number rather than by inclusion-exclusion
    for eta, ta, tb in ((0.5, 0.5, 0.5), (0.4, 0.52, 0.5), (0.1467, 0.5166, 0.48)):
        cfg = DetectionConfig(eta=eta, t_bs=ta, t_bs_b=tb, dark_count_prob=dark)
        got = tmsv_pair_click_probs_series(mu, cfg)
        assert (got.p_success, got.p_error) == pytest.approx(
            _tmsv_50_digits(mu, cfg), rel=1e-13, abs=0.0)


def test_stability_at_tiny_brightness():
    # naive inclusion-exclusion in doubles dies around 1e-16; the
    # rational form must keep full relative accuracy
    mu, eta = 1e-7, 0.25
    probs = tmsv(mu, DetectionConfig(eta=eta))
    assert probs.p_error == pytest.approx(2.0 * mu**2 * (eta / 2) ** 2, rel=1e-5, abs=0.0)
    assert probs.p_success == pytest.approx(mu * eta**2 / 4, rel=1e-5, abs=0.0)


def test_error_arm_splitter_symmetry():
    # swapping the two detectors of an arm cannot change its coincidences
    a = tmsv(0.2, DetectionConfig(eta=0.6, t_bs=0.3, t_bs_b=0.3))
    b = tmsv(0.2, DetectionConfig(eta=0.6, t_bs=0.7, t_bs_b=0.7))
    assert a.p_error == pytest.approx(b.p_error, rel=1e-13, abs=0.0)


def test_multimode_reduces_to_single_mode():
    # modes of zero brightness add nothing: a zero-padded ensemble is one mode
    cfg = DetectionConfig(eta=0.4, t_bs=0.52, t_bs_b=0.5)
    for mu in (1e-5, 0.2, 0.8):
        a = tmsv_pair_click_probs_series(mu, cfg)
        b = multimode_pair_click_probs(ModeEnsemble((0.0, mu, 0.0)), cfg)
        assert b.p_success == pytest.approx(a.p_success, rel=1e-12, abs=0.0)
        assert b.p_error == pytest.approx(a.p_error, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mus,dark", [
    ((0.2, 0.05, 0.11), 0.0),
    ((0.2, 0.2, 0.05), 0.0),
    ((0.11,) * 4, 0.0),
    ((0.0, 0.3, 0.3, 0.0), 0.0),
    ((0.2, 0.2, 0.05), 1e-3),
], ids=["distinct", "repeated", "four-equal", "zero-padded", "dark"])
def test_multimode_against_plain_products(mus, dark):
    # at moderate brightness the naive product form is accurate enough
    # to validate the grouped evaluation, repeated brightnesses included
    mus = np.array(mus)
    eta, ta, tb = 0.4, 0.52, 0.5
    k = 1.0 - dark

    def q(x):
        return np.prod((1 - mus) / (1 - mus * x))

    def coincidence(a, b, c):
        return 1 - k * q(a) - k * q(b) + k * k * q(c)

    x1, x2 = 1 - eta * ta, 1 - eta * tb
    ps = coincidence(x1, x2, x1 * x2)

    def pe_arm(t):
        return coincidence(1 - eta * t, 1 - eta * (1 - t), 1 - eta)

    pe = 0.5 * (pe_arm(ta) + pe_arm(tb))
    cfg = DetectionConfig(eta=eta, t_bs=ta, t_bs_b=tb, dark_count_prob=dark)
    got = multimode_pair_click_probs(ModeEnsemble(tuple(mus)), cfg)
    assert got.p_success == pytest.approx(ps, rel=1e-10, abs=0.0)
    assert got.p_error == pytest.approx(pe, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n_modes", [1, 2, 4, 8])
def test_small_brightness_expansions(n_modes):
    mu, eta = 1e-4, 0.6
    ens = ModeEnsemble.uniform(mu, n_modes)
    probs = multimode_pair_click_probs(ens, DetectionConfig(eta=eta))
    assert probs.p_success == pytest.approx(n_modes * mu * eta**2 / 4, rel=2e-3, abs=0.0)
    assert probs.p_error == pytest.approx(
        n_modes * (n_modes + 1) * mu**2 * eta**2 / 4, rel=2e-3, abs=0.0
    )


def test_many_modes_approach_poisson_limit():
    # the same-arm correlation excess dies like 1/n, so n must be large
    n = 1024
    total = 0.1
    mu = total / (n + total)  # mean pairs per mode = mu/(1-mu) = total/n
    ens = ModeEnsemble.uniform(mu, n)
    cfg = DetectionConfig(eta=0.73, t_bs=0.44)
    a = multimode_pair_click_probs(ens, cfg)
    b = poisson_pair_click_probs(total, cfg)
    assert a.p_success == pytest.approx(b.p_success, rel=3e-3, abs=0.0)
    assert a.p_error == pytest.approx(b.p_error, rel=3e-3, abs=0.0)


def test_dark_counts_cross_check():
    cfg = DetectionConfig(eta=0.3, t_bs=0.5, dark_count_prob=2e-4)
    for mu in (1e-4, 0.25):
        a = tmsv(mu, cfg)
        b = tmsv_pair_click_probs_series(mu, cfg)
        assert a.p_success == pytest.approx(b.p_success, rel=1e-9, abs=0.0)
        assert a.p_error == pytest.approx(b.p_error, rel=1e-9, abs=0.0)
    # dark clicks on vacuum input
    probs = tmsv(0.0, cfg)
    assert probs.p_success == pytest.approx((2e-4) ** 2, rel=1e-9, abs=0.0)
    assert probs.p_error == pytest.approx((2e-4) ** 2, rel=1e-9, abs=0.0)


def test_multimode_dark_matches_single_mode_dark():
    cfg = DetectionConfig(eta=0.5, dark_count_prob=1e-3)
    a = tmsv(0.15, cfg)
    b = multimode_pair_click_probs(ModeEnsemble((0.15, 0.0)), cfg)
    assert b.p_success == pytest.approx(a.p_success, rel=1e-12, abs=0.0)
    assert b.p_error == pytest.approx(a.p_error, rel=1e-12, abs=0.0)

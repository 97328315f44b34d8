import math

import mpmath
import numpy as np
import pytest

from nongauss import DomainError
from nongauss.photon_statistics import (
    DetectionConfig,
    GaussianStateParams,
    apply_loss,
    beamsplit,
    no_click_after_loss,
    no_click_probability,
    single_photon_click_probs,
    to_covariance,
)
from nongauss.photon_statistics.fock_oracle import number_distribution
from nongauss.photon_statistics.gaussian import BRIGHT_PHOTONS, single_click_rates
from nongauss.threshold_solver import single_threshold_curve


def test_vacuum_never_clicks():
    probs = single_photon_click_probs(GaussianStateParams(0.0, 0.0))
    assert probs.p_success == 0.0
    assert probs.p_error == 0.0


def test_coherent_no_click_is_poissonian():
    # displacement length 2 means |alpha|^2 = 1, so P(no click) = exp(-kappa)
    state = GaussianStateParams(2.0, 0.0)
    q_full, q_part = no_click_after_loss(state, (1.0, 0.37))
    assert q_full == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0.0)
    assert q_part == pytest.approx(math.exp(-0.37), rel=1e-14, abs=0.0)


def test_squeezed_vacuum_no_click():
    # vacuum overlap of a squeezed vacuum is 1 / cosh(r)
    for r in (0.2, 1.0, 2.5):
        state = GaussianStateParams(0.0, r)
        (q,) = no_click_after_loss(state, (1.0,))
        assert q == pytest.approx(1.0 / math.cosh(r), rel=1e-13, abs=0.0)


def test_scalar_matches_covariance_pipeline():
    # the moment calculus (loss, splitter, vacuum overlap of 4x4
    # covariances) is the reference the scalar kernel is checked against
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = GaussianStateParams(
            rng.uniform(0, 2.5), rng.uniform(0, 1.2), rng.uniform(0, np.pi)
        )
        cfg = DetectionConfig(eta=rng.uniform(0.05, 1.0), t_bs=rng.uniform(0.2, 0.8))
        split = beamsplit(apply_loss(to_covariance(params), cfg.eta), cfg.t_bs)
        q1, q2, q12 = (no_click_probability(split, m) for m in ([0], [1], None))
        got = single_photon_click_probs(params, cfg)
        assert got.p_success == pytest.approx(1.0 - q1, rel=1e-12, abs=1e-15)
        assert got.p_error == pytest.approx(max(1.0 - q1 - q2 + q12, 0.0),
                                            rel=1e-9, abs=1e-15)


def test_no_click_after_loss_supports_mpmath():
    state = GaussianStateParams(1.3, 0.4, 0.2)
    with mpmath.workdps(40):
        (hi,) = no_click_after_loss(state, (0.6,), mathmod=mpmath)
    (lo,) = no_click_after_loss(state, (0.6,))
    assert float(hi) == pytest.approx(lo, rel=1e-13, abs=0.0)
    assert isinstance(hi, mpmath.mpf)


def _one_kappa_no_click(params, kappa, mathmod):
    # reference: the closed form for one kappa, every transcendental recomputed
    d, r, theta = params.displacement_amplitude, params.squeezing, params.relative_angle
    ax = kappa * mathmod.expm1(-2.0 * r) + 2.0
    ap = kappa * mathmod.expm1(2.0 * r) + 2.0
    cos2 = mathmod.cos(theta) ** 2
    quad = 0.5 * kappa * d * d * (cos2 / ax + (1.0 - cos2) / ap)
    return 2.0 * mathmod.exp(-quad) / mathmod.sqrt(ax * ap)


@pytest.mark.parametrize("mathmod", [math, mpmath], ids=["math", "mpmath"])
def test_no_click_kernel_is_the_one_kappa_formula(mathmod):
    # sharing the state terms across kappas must not change a digit
    rng = np.random.default_rng(11)
    with mpmath.workdps(50):
        for _ in range(200):
            state = GaussianStateParams(
                float(np.exp(rng.uniform(-12, 1))), float(np.exp(rng.uniform(-25, 0.5))),
                float(rng.uniform(-0.5, 3.5)),
            )
            eta, t = float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.05, 0.95))
            kappas = (eta * t, eta * (1.0 - t), eta)
            joint = no_click_after_loss(state, kappas, mathmod=mathmod)
            assert joint == tuple(no_click_after_loss(state, (k,), mathmod=mathmod)[0]
                                  for k in kappas)
            assert joint == tuple(_one_kappa_no_click(state, k, mathmod) for k in kappas)


def test_loss_composes():
    form = to_covariance(GaussianStateParams(1.5, 0.7, 0.9))
    once = apply_loss(form, 0.3 * 0.6)
    twice = apply_loss(apply_loss(form, 0.3), 0.6)
    np.testing.assert_allclose(once.mean, twice.mean, rtol=1e-14)
    np.testing.assert_allclose(once.covariance, twice.covariance, rtol=1e-14)


def test_beamsplit_preserves_total_vacuum_overlap():
    # splitting cannot change the probability that nothing clicks anywhere
    form = to_covariance(GaussianStateParams(1.1, 0.5, 0.4))
    split = beamsplit(form, 0.37)
    assert no_click_probability(split) == pytest.approx(
        no_click_probability(form), rel=1e-13, abs=0.0
    )
    assert split.n_modes == 2


def test_dark_counts_on_vacuum():
    cfg = DetectionConfig(eta=0.9, dark_count_prob=1e-3)
    probs = single_photon_click_probs(GaussianStateParams(0.0, 0.0), cfg)
    assert probs.p_success == pytest.approx(1e-3, rel=1e-12, abs=0.0)
    assert probs.p_error == pytest.approx(1e-6, rel=1e-9, abs=0.0)


def test_click_probs_at_a_boundary_state():
    # the alpha = 1e12, eta = 0.5 optimum, whose p_error of 5.6e-20 lies
    # far below the 1e-16 that 1 - q1 - q2 + q12 can resolve in doubles
    state = GaussianStateParams(0.0016329942, 6.666664e-7)
    probs = single_photon_click_probs(state, DetectionConfig(eta=0.5))
    assert probs.p_error == pytest.approx(5.5556e-20, rel=1e-4, abs=0.0)
    assert (probs.p_success, probs.p_error) == pytest.approx(
        _rates_50_digits(state, 0.25, 0.25), rel=1e-12, abs=0.0)


def test_dark_counts_match_the_closed_form():
    # 1 - k q1 - k q2 + k^2 q12 with k = 1 - dark and every q at 50 digits
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = GaussianStateParams(
            rng.uniform(0, 2.5), rng.uniform(0, 1.2), rng.uniform(0, np.pi)
        )
        eta, t, dark = rng.uniform(0.05, 1.0), rng.uniform(0.2, 0.8), 10 ** rng.uniform(-6, -2)
        got = single_photon_click_probs(state, DetectionConfig(eta, t, dark_count_prob=dark))
        with mpmath.workdps(50):
            k1, k2, k = mpmath.mpf(eta * t), mpmath.mpf(eta * (1.0 - t)), 1 - mpmath.mpf(dark)
            q1, q2, q12 = no_click_after_loss(state, (k1, k2, k1 + k2), mathmod=mpmath)
            expected = float(1 - k * q1), float(1 - k * q1 - k * q2 + k * k * q12)
        assert (got.p_success, got.p_error) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_domain_errors():
    form = to_covariance(GaussianStateParams(1.0, 0.1))
    with pytest.raises(DomainError):
        apply_loss(form, 0.0)
    with pytest.raises(DomainError):
        apply_loss(form, 1.2)
    with pytest.raises(DomainError):
        beamsplit(form, 1.0)
    with pytest.raises(DomainError):
        no_click_after_loss(GaussianStateParams(1.0, 0.1), (0.5, 1.5))
    split = beamsplit(form, 0.5)
    with pytest.raises(DomainError):
        beamsplit(split, 0.5)


def _rates_50_digits(params, k1, k2):
    # the closed form with every product in mpf, and the joint
    # transmission exactly k1 + k2
    with mpmath.workdps(50):
        k1m, k2m = mpmath.mpf(k1), mpmath.mpf(k2)
        q1, q2, q12 = no_click_after_loss(params, (k1m, k2m, k1m + k2m), mathmod=mpmath)
        return float(1 - q1), float(1 - q1 - q2 + q12)


def _rates_from_fock(params, k1, k2):
    # the oracle's number distribution under the same weights, taken at
    # 40 digits because in doubles they cancel for small k
    probs = number_distribution(params)
    with mpmath.workdps(40):
        a, b, c = 1 - mpmath.mpf(k1), 1 - mpmath.mpf(k2), 1 - mpmath.mpf(k1) - k2
        hit1 = [float(1 - a**n) for n in range(probs.size)]
        both = [float(1 - a**n - b**n + c**n) for n in range(probs.size)]
    return float(np.dot(probs, hit1)), float(np.dot(probs, both))


def _assert_rates_match(state, k1, k2, fock=True):
    fast = single_click_rates(state, k1, k2)
    assert fast == pytest.approx(_rates_50_digits(state, k1, k2), rel=1e-13, abs=0.0)
    if fock:
        assert fast == pytest.approx(_rates_from_fock(state, k1, k2), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("eta", [1.0, 0.5, 0.1467])
def test_single_click_rates_at_solved_optima(eta):
    # the boundary states, alpha = 1 .. 1e12, where p_error falls to
    # 1e-20 near the two-photon cancellation locus, and states 3% and 10%
    # off in squeezing or 0.01 in angle.  Nearer the locus the rounding
    # of tanh(r) and (d/2)**2 is amplified by the cancellation: 1% off
    # in squeezing agrees only to 8e-14
    curve = single_threshold_curve(eta, n_points=13)
    k = 0.5 * eta
    for params in curve.params:
        state = GaussianStateParams(**params)
        _assert_rates_match(state, k, k)
        d, r, theta = state.displacement_amplitude, state.squeezing, state.relative_angle
        for nudged in (GaussianStateParams(d, r * f, theta) for f in (0.9, 0.97, 1.03, 1.1)):
            _assert_rates_match(nudged, k, k, fock=False)
        for dt in (-0.01, 0.01):
            _assert_rates_match(GaussianStateParams(d, r, theta + dt), k, k, fock=False)


def test_single_click_rates_on_random_states():
    # both sides of the switch to the closed form, at uneven splitters
    rng = np.random.default_rng(13)
    dim = bright = 0
    for _ in range(80):
        state = GaussianStateParams(2.0 * math.exp(rng.uniform(-8, 1.2)),
                                    math.exp(rng.uniform(-10, 0.5)), rng.uniform(-1, 4))
        k1 = rng.uniform(0.02, 0.6)
        k2 = rng.uniform(0.02, 1.0 - k1)
        _assert_rates_match(state, k1, k2)
        if state.mean_photon_number > BRIGHT_PHOTONS:
            bright += 1
        else:
            dim += 1
    assert dim > 20 and bright > 8


def test_single_click_rates_coherent_state():
    # no squeezing: the amplitude sum is Poissonian and the two
    # detectors independent, with nothing left to cancel
    for d in (2e-6, 0.02, 1.0):
        mu = (d / 2.0) ** 2
        p1, p_error = single_click_rates(GaussianStateParams(d, 0.0), 0.3, 0.2)
        assert p1 == pytest.approx(-math.expm1(-0.3 * mu), rel=1e-14, abs=0.0)
        assert p_error == pytest.approx(math.expm1(-0.3 * mu) * math.expm1(-0.2 * mu),
                                        rel=1e-14, abs=0.0)


def test_single_click_rates_domain():
    state = GaussianStateParams(0.1, 0.01)
    assert single_click_rates(GaussianStateParams(0.0, 0.0), 0.5, 0.5) == (0.0, 0.0)
    for k1, k2 in ((-0.1, 0.5), (0.5, 0.6), (float("nan"), 0.1)):
        with pytest.raises(DomainError):
            single_click_rates(state, k1, k2)

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


def test_vacuum_never_clicks():
    probs = single_photon_click_probs(GaussianStateParams(0.0, 0.0))
    assert probs.p_success == 0.0
    assert probs.p_error == 0.0


def test_coherent_no_click_is_poissonian():
    # displacement length 2 means |alpha|^2 = 1, so P(no click) = exp(-kappa)
    state = GaussianStateParams(2.0, 0.0)
    q_full, q_part = no_click_after_loss(state, (1.0, 0.37))
    assert q_full == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert q_part == pytest.approx(math.exp(-0.37), rel=1e-14)


def test_squeezed_vacuum_no_click():
    # vacuum overlap of a squeezed vacuum is 1 / cosh(r)
    for r in (0.2, 1.0, 2.5):
        state = GaussianStateParams(0.0, r)
        (q,) = no_click_after_loss(state, (1.0,))
        assert q == pytest.approx(1.0 / math.cosh(r), rel=1e-13)


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
    assert float(hi) == pytest.approx(lo, rel=1e-13)
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
        no_click_probability(form), rel=1e-13
    )
    assert split.n_modes == 2


def test_dark_counts_on_vacuum():
    cfg = DetectionConfig(eta=0.9, dark_count_prob=1e-3)
    probs = single_photon_click_probs(GaussianStateParams(0.0, 0.0), cfg)
    assert probs.p_success == pytest.approx(1e-3, rel=1e-12)
    assert probs.p_error == pytest.approx(1e-6, rel=1e-9)


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

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from nongauss import PrecisionError
from nongauss.photon_statistics import (
    DetectionConfig,
    GaussianStateParams,
    click_probs_from_number_distribution,
    fock_oracle_click_probs,
    no_click_after_loss,
    number_distribution,
    single_photon_click_probs,
)


def test_coherent_number_distribution_is_poisson():
    probs = number_distribution(GaussianStateParams(2.0, 0.0))
    for n in range(5):
        assert probs[n] == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-11, abs=0.0)


def test_squeezed_number_distribution():
    r = 0.5
    probs = number_distribution(GaussianStateParams(0.0, r))
    # squeezed vacuum populates only even numbers
    assert probs[1] == pytest.approx(0.0, abs=1e-20)
    assert probs[3] == pytest.approx(0.0, abs=1e-20)
    assert probs[0] == pytest.approx(1.0 / math.cosh(r), rel=1e-12, abs=0.0)
    assert probs[2] / probs[0] == pytest.approx(0.5 * math.tanh(r) ** 2, rel=1e-12, abs=0.0)


def _dense_reference(params, cutoff):
    # the matrix route: both truncated generators exponentiated in full
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
    alpha = 0.5 * params.displacement_amplitude * np.exp(1j * params.relative_angle)
    squeeze = expm(0.5 * params.squeezing * (a @ a - a.T @ a.T))
    displace = expm(alpha * a.T - np.conj(alpha) * a)
    return np.abs((displace @ squeeze)[:, 0]) ** 2


def _validate_range_states():
    rng = np.random.default_rng(1234)
    return [GaussianStateParams(rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0),
                                rng.uniform(0.0, np.pi)) for _ in range(6)]


@pytest.mark.parametrize("params", [*_validate_range_states(), GaussianStateParams(6.0, 1.5)])
def test_number_distribution_matches_dense_matrix_exponentials(params):
    # at the automatic cutoff: 359 slots for d = 6, r = 1.5
    probs = number_distribution(params)
    assert np.max(np.abs(probs - _dense_reference(params, probs.size))) <= 1e-13


def test_single_photon_cannot_double_click():
    dist = np.array([0.0, 1.0])
    cfg = DetectionConfig(eta=0.8, t_bs=0.3)
    probs = click_probs_from_number_distribution(dist, cfg)
    assert probs.p_success == pytest.approx(0.8 * 0.3, rel=1e-14, abs=0.0)
    assert probs.p_error == pytest.approx(0.0, abs=1e-16)


def test_oracle_agrees_with_moment_route():
    rng = np.random.default_rng(11)
    for _ in range(25):
        params = GaussianStateParams(
            rng.uniform(0, 2.0), rng.uniform(0, 1.0), rng.uniform(0, np.pi)
        )
        cfg = DetectionConfig(eta=rng.uniform(0.1, 1.0), t_bs=rng.uniform(0.3, 0.7))
        a = single_photon_click_probs(params, cfg)
        b = fock_oracle_click_probs(params, cfg)
        assert b.p_success == pytest.approx(a.p_success, rel=1e-10, abs=0.0)
        assert b.p_error == pytest.approx(a.p_error, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("dark", [0.0, 1e-6, 1e-4])
def test_oracle_at_a_boundary_state_matches_50_digits(dark):
    # the alpha = 1e12, eta = 0.5 optimum: p_error 5.6e-20 without dark
    # clicks, which 1 - q1 - q2 + q12 in doubles cannot resolve
    state = GaussianStateParams(0.0016329942, 6.666664e-7)
    got = fock_oracle_click_probs(state, DetectionConfig(eta=0.5, dark_count_prob=dark))
    with mpmath.workdps(50):
        k1, k = mpmath.mpf(0.25), 1 - mpmath.mpf(dark)
        q1, q2, q12 = no_click_after_loss(state, (k1, k1, k1 + k1), mathmod=mpmath)
        expected = float(1 - k * q1), float(1 - k * q1 - k * q2 + k * k * q12)
    assert (got.p_success, got.p_error) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_norm_deficit_raises():
    with pytest.raises(PrecisionError) as exc:
        number_distribution(GaussianStateParams(6.0, 1.5), cutoff=20)
    assert exc.value.suggested_cutoff == 40


def test_suggested_cutoff_recovers():
    params = GaussianStateParams(3.0, 0.8)
    cutoff = 24
    for _ in range(5):
        try:
            probs = number_distribution(params, cutoff=cutoff)
            break
        except PrecisionError as exc:
            assert exc.suggested_cutoff > cutoff
            cutoff = exc.suggested_cutoff
    else:
        raise AssertionError("suggested cutoffs never converged")
    assert cutoff > 24
    assert probs[-8:].sum() < 1e-10

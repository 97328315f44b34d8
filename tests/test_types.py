import numpy as np
import pytest

from nongauss import DomainError
from nongauss.photon_statistics import (
    ClickProbabilities,
    CovarianceForm,
    DetectionConfig,
    GaussianStateParams,
    ModeEnsemble,
)


def test_state_params_validation():
    with pytest.raises(DomainError):
        GaussianStateParams(-0.1, 0.0)
    with pytest.raises(DomainError):
        GaussianStateParams(1.0, -0.5)
    with pytest.raises(DomainError):
        GaussianStateParams(float("nan"), 0.0)
    with pytest.raises(DomainError):
        GaussianStateParams(1.0, 0.0, float("inf"))


def test_mean_photon_number():
    assert GaussianStateParams(2.0, 0.0).mean_photon_number == pytest.approx(1.0, abs=0.0)
    assert GaussianStateParams(0.0, 1.0).mean_photon_number == pytest.approx(
        np.sinh(1.0) ** 2, abs=0.0)


def test_covariance_form_validation():
    with pytest.raises(DomainError):
        CovarianceForm(np.zeros(3), np.eye(3))
    with pytest.raises(DomainError):
        CovarianceForm(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        CovarianceForm(np.zeros(2), np.diag([1.0, -1.0]))
    form = CovarianceForm(np.zeros(4), np.eye(4))
    assert form.n_modes == 2


def test_mode_ensemble():
    ens = ModeEnsemble.uniform(0.25, 4)
    assert ens.n_modes == 4
    assert ens.mean_pairs == pytest.approx(4 * 0.25 / 0.75, abs=0.0)
    with pytest.raises(DomainError):
        ModeEnsemble(())
    with pytest.raises(DomainError):
        ModeEnsemble((0.5, 1.0))
    with pytest.raises(DomainError):
        ModeEnsemble((-0.1,))


def test_detection_config():
    cfg = DetectionConfig(eta=0.5, t_bs=0.3)
    assert cfg.t_bs_b == 0.3
    cfg = DetectionConfig(eta=0.5, t_bs=0.3, t_bs_b=0.7)
    assert cfg.t_bs_b == 0.7
    with pytest.raises(DomainError):
        DetectionConfig(eta=0.0)
    with pytest.raises(DomainError):
        DetectionConfig(eta=1.1)
    with pytest.raises(DomainError):
        DetectionConfig(t_bs=1.0)
    with pytest.raises(DomainError):
        DetectionConfig(dark_count_prob=1.0)


def test_click_probabilities_bounds():
    with pytest.raises(DomainError):
        ClickProbabilities(1.2, 0.0)
    with pytest.raises(DomainError):
        ClickProbabilities(0.1, -1e-3)

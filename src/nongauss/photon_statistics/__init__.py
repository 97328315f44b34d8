"""Click probabilities of Gaussian states and photon-pair sources."""

from .types import (
    ClickProbabilities,
    CovarianceForm,
    DetectionConfig,
    GaussianStateParams,
    ModeEnsemble,
)
from .gaussian import (
    apply_loss,
    beamsplit,
    no_click_after_loss,
    no_click_probability,
    single_click_rates,
    single_photon_click_probs,
    to_covariance,
)
from .fock_oracle import (
    click_probs_from_number_distribution,
    fock_oracle_click_probs,
    number_distribution,
)
from .pair_formulas import (
    multimode_pair_click_probs,
    poisson_pair_click_probs,
    tmsv_pair_click_probs_series,
)

__all__ = [
    "ClickProbabilities",
    "CovarianceForm",
    "DetectionConfig",
    "GaussianStateParams",
    "ModeEnsemble",
    "apply_loss",
    "beamsplit",
    "click_probs_from_number_distribution",
    "fock_oracle_click_probs",
    "multimode_pair_click_probs",
    "no_click_after_loss",
    "no_click_probability",
    "number_distribution",
    "poisson_pair_click_probs",
    "single_click_rates",
    "single_photon_click_probs",
    "tmsv_pair_click_probs_series",
    "to_covariance",
]

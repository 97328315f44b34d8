"""Value types for Gaussian states, detection setups and click statistics.

Quadrature convention: x = a + a*, p = -i(a - a*), vacuum covariance = identity.
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DomainError


@dataclass(frozen=True)
class GaussianStateParams:
    """Pure single-mode Gaussian state: displaced squeezed vacuum.

    displacement_amplitude
        Length of the mean-quadrature vector, >= 0.  The coherent
        amplitude has modulus displacement_amplitude / 2.
    squeezing
        Squeezing magnitude r >= 0.  The x variance is exp(-2r).
    relative_angle
        Angle between the displacement direction and the squeezed
        quadrature axis.
    """

    displacement_amplitude: float
    squeezing: float
    relative_angle: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.displacement_amplitude) or self.displacement_amplitude < 0:
            raise DomainError(
                f"displacement_amplitude must be finite and >= 0, got {self.displacement_amplitude}"
            )
        if not np.isfinite(self.squeezing) or self.squeezing < 0:
            raise DomainError(f"squeezing must be finite and >= 0, got {self.squeezing}")
        if not np.isfinite(self.relative_angle):
            raise DomainError(f"relative_angle must be finite, got {self.relative_angle}")

    @property
    def mean_photon_number(self):
        d, r = self.displacement_amplitude, self.squeezing
        return (d / 2.0) ** 2 + np.sinh(r) ** 2


@dataclass(frozen=True)
class CovarianceForm:
    """First and second moments of an M-mode Gaussian state.

    mean has shape (2M,), covariance (2M, 2M), quadrature order
    (x1, p1, x2, p2, ...).
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise DomainError(f"mean must be a flat (2M,) vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise DomainError(
                f"covariance shape {cov.shape} does not match mean of size {mean.size}"
            )
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise DomainError("covariance must be symmetric")
        # Positive-definiteness catches most construction mistakes; the
        # stricter uncertainty bound is not enforced here.
        if np.linalg.eigvalsh(cov).min() <= 0:
            raise DomainError("covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def n_modes(self):
        return self.mean.size // 2


@dataclass(frozen=True)
class ModeEnsemble:
    """Independent two-mode squeezed pairs, one brightness per mode.

    Each entry is the pair-emission parameter mu in [0, 1): the photon
    number distribution per arm is geometric, P(n) = (1 - mu) mu**n.
    """

    pair_brightness: tuple

    def __post_init__(self):
        mus = tuple(float(m) for m in self.pair_brightness)
        if len(mus) == 0:
            raise DomainError("ensemble needs at least one mode")
        for m in mus:
            if not np.isfinite(m) or not (0.0 <= m < 1.0):
                raise DomainError(f"pair brightness must lie in [0, 1), got {m}")
        object.__setattr__(self, "pair_brightness", mus)

    @classmethod
    def uniform(cls, mu, n_modes):
        return cls((float(mu),) * int(n_modes))

    @property
    def n_modes(self):
        return len(self.pair_brightness)

    @property
    def mean_pairs(self):
        mus = np.array(self.pair_brightness)
        return float(np.sum(mus / (1.0 - mus)))


@dataclass(frozen=True)
class DetectionConfig:
    """Detection chain: overall efficiency, splitting ratio, dark counts.

    eta
        Total transmission-times-efficiency per arm, in (0, 1].
    t_bs
        Beamsplitter transmission toward the first detector of an arm.
    t_bs_b
        Splitting ratio of the second arm; defaults to t_bs.
    dark_count_prob
        Probability of a dark click per detector per pulse.
    """

    eta: float = 1.0
    t_bs: float = 0.5
    t_bs_b: float = None
    dark_count_prob: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise DomainError(f"eta must lie in (0, 1], got {self.eta}")
        if not (0.0 < self.t_bs < 1.0):
            raise DomainError(f"t_bs must lie in (0, 1), got {self.t_bs}")
        if self.t_bs_b is None:
            object.__setattr__(self, "t_bs_b", self.t_bs)
        elif not (0.0 < self.t_bs_b < 1.0):
            raise DomainError(f"t_bs_b must lie in (0, 1), got {self.t_bs_b}")
        if not (0.0 <= self.dark_count_prob < 1.0):
            raise DomainError(f"dark_count_prob must lie in [0, 1), got {self.dark_count_prob}")


@dataclass(frozen=True)
class ClickProbabilities:
    """Success and error click probabilities for one detection layout.

    For a single-photon source behind a splitter, success is a click on
    the transmitted detector and error a simultaneous click on both.
    For a pair source, success is a cross-arm coincidence and error a
    same-arm coincidence (averaged over the two arms).
    """

    p_success: float
    p_error: float
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for name, p in (("p_success", self.p_success), ("p_error", self.p_error)):
            if not np.isfinite(p) or not (0.0 <= p <= 1.0):
                raise DomainError(f"{name} must be a probability, got {p}")

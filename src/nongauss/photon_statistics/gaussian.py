"""Gaussian-state moment calculus and click probabilities.

Quadrature convention: x = a + a*, p = -i(a - a*), so the vacuum
covariance is the identity.  A displaced squeezed vacuum with
displacement length d, squeezing r and relative angle theta has

    covariance = diag(exp(-2r), exp(+2r))
    mean       = d * (cos(theta), sin(theta))

and coherent amplitude of modulus d / 2.
"""

import math

import numpy as np

from ..errors import DomainError
from .pair_formulas import _photon_weights, _with_dark
from .types import ClickProbabilities, CovarianceForm, DetectionConfig, GaussianStateParams


def to_covariance(params):
    """Moments of a pure displaced squeezed vacuum state."""
    if not isinstance(params, GaussianStateParams):
        raise DomainError(f"expected GaussianStateParams, got {type(params).__name__}")
    d, r, theta = params.displacement_amplitude, params.squeezing, params.relative_angle
    cov = np.diag([np.exp(-2.0 * r), np.exp(2.0 * r)])
    mean = d * np.array([np.cos(theta), np.sin(theta)])
    return CovarianceForm(mean, cov)


def apply_loss(form, eta):
    """Uniform transmission eta on every mode, vacuum noise mixed in."""
    if not (0.0 < eta <= 1.0):
        raise DomainError(f"eta must lie in (0, 1], got {eta}")
    n = form.mean.size
    cov = eta * form.covariance + (1.0 - eta) * np.eye(n)
    return CovarianceForm(np.sqrt(eta) * form.mean, cov)


def beamsplit(form, t):
    """Split a single-mode state on a beamsplitter with a vacuum ancilla.

    Transmission t goes to output mode 0, reflection 1 - t to mode 1.
    """
    if form.n_modes != 1:
        raise DomainError(f"beamsplit expects a single-mode state, got {form.n_modes} modes")
    if not (0.0 < t < 1.0):
        raise DomainError(f"t must lie in (0, 1), got {t}")
    eye2 = np.eye(2)
    s = np.sqrt(t)
    c = np.sqrt(1.0 - t)
    sympl = np.block([[s * eye2, c * eye2], [-c * eye2, s * eye2]])
    mean_in = np.concatenate([form.mean, np.zeros(2)])
    cov_in = np.block(
        [[form.covariance, np.zeros((2, 2))], [np.zeros((2, 2)), eye2]]
    )
    return CovarianceForm(sympl @ mean_in, sympl @ cov_in @ sympl.T)


def no_click_probability(form, modes=None):
    """Probability that none of the selected modes triggers a click.

    A click is any nonzero photon number, so this is the vacuum overlap
    of the reduced state on `modes` (all modes when None).
    """
    if modes is None:
        modes = range(form.n_modes)
    idx = np.concatenate([[2 * m, 2 * m + 1] for m in modes]).astype(int)
    mean = form.mean[idx]
    cov = form.covariance[np.ix_(idx, idx)]
    m = idx.size // 2
    a = cov + np.eye(2 * m)
    det = np.linalg.det(a)
    quad = mean @ np.linalg.solve(a, mean)
    return float(2.0**m / np.sqrt(det) * np.exp(-0.5 * quad))


def no_click_after_loss(params, kappas, mathmod=math):
    """Vacuum-projection probabilities after transmitting each fraction in kappas.

    Scalar closed form of loss and a vacuum overlap, one value per kappa,
    with the state terms computed once.  `mathmod` may be mpmath; then
    pass the kappas as mpf too, or kappa * d * d is a double product.
    """
    d, r, theta = params.displacement_amplitude, params.squeezing, params.relative_angle
    em, ep = mathmod.expm1(-2.0 * r), mathmod.expm1(2.0 * r)
    cos2 = mathmod.cos(theta) ** 2
    out = []
    for kappa in kappas:
        if not (0.0 <= kappa <= 1.0):
            raise DomainError(f"kappa must lie in [0, 1], got {kappa}")
        ax = kappa * em + 2.0
        ap = kappa * ep + 2.0
        quad = 0.5 * kappa * d * d * (cos2 / ax + (1.0 - cos2) / ap)
        out.append(2.0 * mathmod.exp(-quad) / mathmod.sqrt(ax * ap))
    return tuple(out)


BRIGHT_PHOTONS = 2.0  # mean photon number above which the closed form takes over
TAIL_REL = 1e-19  # the amplitude sum stops at two terms this small against both sums


def single_click_rates(params, k1, k2):
    """Dark-free success and double-click probabilities, in float64.

    k1 and k2 are the transmissions to the two detectors.  p1 is the
    chance that detector 1 clicks and p_error that both do.  Dim states
    sum the photon-number probabilities P_n = |psi_n|^2 of D(alpha)S(r)|0>,
    weighted by the chance that n photons light detector 1 (or both)
    from _photon_weights; every weight and every term is positive, so
    p_error keeps its relative precision where 1 - q1 - q2 + q12 would
    cancel all of it.
    With t = tanh r and gamma = alpha + t alpha*, the amplitudes follow

        psi_{n+1} = (gamma psi_n - t sqrt(n) psi_{n-1}) / sqrt(n + 1),

    whose only subtraction, gamma^2 - t in psi_2, is backward stable.
    Bright states (mean photon number above BRIGHT_PHOTONS) take the
    closed form of no_click_after_loss, which does not cancel there.
    """
    if not (k1 >= 0.0 and k2 >= 0.0 and k1 + k2 <= 1.0):
        raise DomainError(f"k1, k2 must be >= 0 with k1 + k2 <= 1, got {k1}, {k2}")
    d, r, theta = params.displacement_amplitude, params.squeezing, params.relative_angle
    h2 = 0.25 * d * d  # |alpha|^2
    if h2 + math.sinh(r) ** 2 > BRIGHT_PHOTONS:
        q1, q2, q12 = no_click_after_loss(params, (k1, k2, k1 + k2))
        return 1.0 - q1, 1.0 - q1 - q2 + q12
    t, h = math.tanh(r), 0.5 * d
    gamma = complex(h * (1.0 + t) * math.cos(theta), h * (1.0 - t) * math.sin(theta))
    # |psi_0|^2 = exp(-|alpha|^2 - Re(t alpha*^2)) / cosh r; its phase drops out
    prev, psi = 0.0, math.sqrt(math.exp(-h2 * (1.0 + t * math.cos(2.0 * theta))) / math.cosh(r))
    p1 = p_error = p_prev = 0.0
    for n, (_, _, _, both, hit1) in enumerate(_photon_weights(k1, k2)):
        p_n = psi.real * psi.real + psi.imag * psi.imag
        p1 += p_n * hit1
        p_error += p_n * both
        # the recursion is second order: two negligible terms in a row
        # bound everything after them
        if p_prev + p_n <= TAIL_REL * min(p1, p_error):
            return p1, p_error
        prev, psi = psi, (gamma * psi - t * math.sqrt(n) * prev) / math.sqrt(n + 1)
        p_prev = p_n


def single_photon_click_probs(params, config=DetectionConfig()):
    """Click statistics of a state sent through loss and a splitter.

    Success: a click on the transmitted detector.  Error: clicks on
    both detectors in the same pulse.  The dark-free rates come from
    single_click_rates, the kernel the threshold solver searches with;
    dark clicks follow the pair kernel's rule.
    """
    eta, t, dark = config.eta, config.t_bs, config.dark_count_prob
    k1, k2 = eta * t, eta * (1.0 - t)
    p1, p_error = single_click_rates(params, k1, k2)
    p_success = p1
    if dark:
        p2 = single_click_rates(params, k2, k1)[0]
        p_success = p1 + dark * (1.0 - p1)  # one detector: 1 - (1 - dark)(1 - p1)
        p_error = _with_dark(p_error, p1, p2, p1 + p2 - p_error, dark)
    # the bright closed form can round p_error a little below zero
    return ClickProbabilities(
        p_success=min(max(p_success, 0.0), 1.0),
        p_error=min(max(p_error, 0.0), 1.0),
    )

"""Independent click-probability route through a truncated number basis.

Builds the displaced squeezed state by exponentiating ladder operators,
reads off the photon number distribution and converts it to click
statistics.  Slower than the moment calculus but shares no code with
it, which makes it a useful cross-check.
"""

import numpy as np
from scipy.linalg import expm

from ..errors import PrecisionError
from .pair_formulas import _click_weights
from .types import ClickProbabilities, DetectionConfig

TAIL_TOL = 1e-10  # largest mass allowed in the top eight basis slots


def _ladder(cutoff):
    a = np.diag(np.sqrt(np.arange(1, cutoff)), k=1)
    return a, a.T


def default_cutoff(params):
    """Cutoff heuristic covering both tails of the number distribution.

    The displaced part falls super-exponentially, but the squeezed part
    only decays like tanh(r)**(2n), so strong squeezing dominates the
    required basis size.  Capped because the matrix exponential is
    dense; the tail check below raises if the cap was too tight.
    """
    nbar = params.mean_photon_number
    base = nbar + 16.0 * np.sqrt(nbar + 1.0) + 48.0
    r = params.squeezing
    if r > 0.05:
        # tanh(r)^(2n) <= 1e-14 plus headroom for the displacement shift
        base = max(base, 32.0 / -np.log(np.tanh(r)) + nbar + 24.0)
    return int(min(max(48, np.ceil(base)), 600))


def number_distribution(params, cutoff=None):
    """Photon number probabilities of a displaced squeezed vacuum.

    The truncated generators stay anti-Hermitian, so the state keeps
    unit norm at any cutoff; truncation error shows up as spurious
    weight near the top of the basis instead.  Raises PrecisionError
    when the top slots carry more than TAIL_TOL, with a suggested
    larger cutoff.
    """
    if cutoff is None:
        cutoff = default_cutoff(params)
    if cutoff < 16:
        raise PrecisionError(
            f"cutoff {cutoff} is too small to bound the truncation tail",
            suggested_cutoff=max(32, 2 * cutoff),
        )
    d, r, theta = params.displacement_amplitude, params.squeezing, params.relative_angle
    alpha = 0.5 * d * np.exp(1j * theta)
    a, ad = _ladder(cutoff)
    squeeze = expm(0.5 * r * (a @ a - ad @ ad))
    displace = expm(alpha * ad - np.conj(alpha) * a)
    psi = (displace @ squeeze)[:, 0]
    probs = np.abs(psi) ** 2
    tail = probs[-8:].sum()
    if tail > TAIL_TOL:
        raise PrecisionError(
            f"tail mass {tail:.3e} near cutoff {cutoff} exceeds {TAIL_TOL:.1e}",
            suggested_cutoff=2 * cutoff,
        )
    return probs


def click_probs_from_number_distribution(probs, config=DetectionConfig()):
    """Click statistics given exact photon number probabilities.

    Each photon independently survives to a given detector, so each
    rate is a sum over n of P_n times the chance that n photons, with
    dark clicks, make that click pattern.  Every term is positive, so
    small rates keep their relative precision.
    """
    probs = np.asarray(probs, dtype=float)
    eta, t = config.eta, config.t_bs
    hit1, both = _click_weights(eta * t, eta * (1.0 - t), config.dark_count_prob, probs.size)
    p_success, p_error = probs @ hit1, probs @ both
    # the terms are positive, but the norm may round a little above one
    return ClickProbabilities(min(float(p_success), 1.0), min(float(p_error), 1.0))


def fock_oracle_click_probs(params, config=DetectionConfig(), cutoff=None):
    """Full oracle route: number distribution, then click statistics."""
    probs = number_distribution(params, cutoff=cutoff)
    return click_probs_from_number_distribution(probs, config)

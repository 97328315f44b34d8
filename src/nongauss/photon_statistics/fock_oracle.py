"""Independent click-probability route through a truncated number basis.

Builds the displaced squeezed state by applying exponentials of ladder
operators to the vacuum vector, reads off the photon number distribution
and converts it to click statistics.  Slower than the moment calculus
but shares no code with it, which makes it a useful cross-check.
"""

import numpy as np

from ..errors import PrecisionError
from .pair_formulas import _click_weights
from .types import ClickProbabilities, DetectionConfig

TAIL_TOL = 1e-10  # largest mass allowed in the top eight basis slots
MIN_CUTOFF = 16  # smallest basis whose tail check means anything
STEP_NORM = 4.0  # 1-norm bound of a Taylor step; smaller steps cost more
MAX_TERMS = 60  # Taylor terms per step; 4**60/60! is far below rounding


def _ladder_exp(c, k, psi):
    """exp(c a†^k - conj(c) a^k) applied to psi, with no matrix built.

    A Taylor series over the ladder weights sqrt(n!/(n-k)!), in steps of
    1-norm at most STEP_NORM, each ended when a term changes no entry so
    that small amplitudes (p_error's two-photon one) keep their precision.
    """
    n = np.arange(psi.size)
    w = np.sqrt(np.prod([n - j for j in range(k)], axis=0, dtype=float))  # 0 below k
    steps = max(1, int(np.ceil(2.0 * abs(c) * w[-1] / STEP_NORM)))
    up, down = c / steps * w, -np.conj(c) / steps * np.append(w[k:], np.zeros(k))
    below, above = np.maximum(n - k, 0), np.minimum(n + k, n[-1])
    for _ in range(steps):
        term = total = psi
        for m in range(1, MAX_TERMS + 1):
            term = (up * term[below] + down * term[above]) / m
            new = total + term
            if (new == total).all():
                break
            total = new
        psi = total
    return psi


def default_cutoff(params):
    """Cutoff heuristic covering both tails of the number distribution.

    The displaced part falls super-exponentially, but the squeezed part
    only decays like tanh(r)**(2n), so strong squeezing dominates the
    required basis size.  Capped because the work grows like the cutoff
    squared; the tail check below raises if the cap was too tight.
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
    if cutoff < MIN_CUTOFF:
        raise PrecisionError(
            f"cutoff {cutoff} is too small to bound the truncation tail",
            suggested_cutoff=max(32, 2 * cutoff),
        )
    d, r, theta = params.displacement_amplitude, params.squeezing, params.relative_angle
    alpha = 0.5 * d * np.exp(1j * theta)
    vacuum = np.eye(1, cutoff)[0]  # real, so the squeezer runs in real arithmetic
    psi = _ladder_exp(alpha, 1, _ladder_exp(-0.5 * r, 2, vacuum))
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

"""Independent click-probability route through a truncated number basis.

Builds the displaced squeezed state by exponentiating ladder operators,
reads off the photon number distribution and converts it to click
statistics.  Slower than the moment calculus but shares no code with
it, which makes it a useful cross-check.
"""

import numpy as np
from scipy.linalg import expm

from ..errors import PrecisionError
from .pair_formulas import _with_dark
from .types import ClickProbabilities, DetectionConfig

DEFAULT_TAIL_TOL = 1e-10


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


def number_distribution(params, cutoff=None, tail_tol=DEFAULT_TAIL_TOL):
    """Photon number probabilities of a displaced squeezed vacuum.

    The truncated generators stay anti-Hermitian, so the state keeps
    unit norm at any cutoff; truncation error shows up as spurious
    weight near the top of the basis instead.  Raises PrecisionError
    when the top slots carry more than tail_tol, with a suggested
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
    if tail > tail_tol:
        raise PrecisionError(
            f"tail mass {tail:.3e} near cutoff {cutoff} exceeds {tail_tol:.1e}",
            suggested_cutoff=2 * cutoff,
        )
    return probs


def click_probs_from_number_distribution(probs, config=DetectionConfig()):
    """Click statistics given exact photon number probabilities.

    Each photon independently survives to a given detector, so the
    no-click probability through transmission kappa is the probability
    generating function evaluated at 1 - kappa.
    """
    probs = np.asarray(probs, dtype=float)
    n = np.arange(probs.size)

    def pgf(x):
        return float(np.sum(probs * np.power(x, n)))

    q1 = pgf(1.0 - config.eta * config.t_bs)
    q2 = pgf(1.0 - config.eta * (1.0 - config.t_bs))
    q12 = pgf(1.0 - config.eta)
    dark = config.dark_count_prob
    p1 = 1.0 - q1
    p_success = p1 + dark * q1  # one detector: 1 - (1 - dark) q1
    p_error = _with_dark(p1 - q2 + q12, p1, 1.0 - q2, 1.0 - q12, dark)
    # tiny negative values can appear from rounding when p_error ~ 1e-17
    return ClickProbabilities(
        p_success=min(max(p_success, 0.0), 1.0),
        p_error=min(max(p_error, 0.0), 1.0),
    )


def fock_oracle_click_probs(params, config=DetectionConfig(), cutoff=None,
                            tail_tol=DEFAULT_TAIL_TOL):
    """Full oracle route: number distribution, then click statistics."""
    probs = number_distribution(params, cutoff=cutoff, tail_tol=tail_tol)
    return click_probs_from_number_distribution(probs, config)

"""Click statistics of two-mode squeezed pair sources.

Layout: each arm of the pair source is split on a beamsplitter onto two
detectors.  Success is a coincidence between the designated detector of
arm a (splitter transmission t_bs) and of arm b (t_bs_b).  Error is a
coincidence between the two detectors of one arm, averaged over arms.

Per mode, the photon number in each arm follows P(n) = (1 - mu) mu**n,
perfectly correlated between arms.  The probability generating function
of that distribution is Q(x) = (1 - mu) / (1 - mu x), and every no-click
probability below is a product of such factors.  All expressions are
arranged so that no large terms cancel, which keeps them accurate down
to probabilities of order 1e-300.
"""

import math
from collections import Counter
from itertools import islice

import numpy as np

from ..errors import DomainError
from .types import ClickProbabilities, DetectionConfig, ModeEnsemble


def _check_mu(mu):
    if not (0.0 <= mu < 1.0):
        raise DomainError(f"pair brightness must lie in [0, 1), got {mu}")


def _with_dark(p_coinc, p_any_1, p_any_2, p_any_both, dark):
    """Exact dark-count correction to a two-detector coincidence.

    p_coinc is the dark-free coincidence, p_any_* the dark-free click
    probabilities of each detector alone and of their union.  Dark
    clicks are independent with probability `dark` per detector.
    """
    # 1 - k q1 - k q2 + k^2 q12 expanded around the dark-free value,
    # with k = 1 - dark and q's the no-click complements.
    return (
        p_coinc
        + dark * (2.0 * p_any_both - p_any_1 - p_any_2)
        + dark * dark * (1.0 - p_any_both)
    )


def _photon_weights(k1, k2):
    """Detection weights of n = 0, 1, 2, ... photons behind two detectors.

    Each photon reaches detector 1 with probability k1 and detector 2
    with k2.  Yields (none, only1, only2, both, hit1) per photon number:
    the chances that n photons leave both detectors dark, light only
    detector 1, only detector 2, or both, and that detector 1 clicks.
    Adding a photon only adds to each, so no weight cancels; the
    closed forms 1 - a**n - b**n + c**n do, and leave ~1e-16 at n = 1,
    where the double click is exactly 0.
    """
    a, b, c = 1.0 - k1, 1.0 - k2, 1.0 - k1 - k2
    none, only1, only2, both, hit1 = 1.0, 0.0, 0.0, 0.0, 0.0
    while True:
        yield none, only1, only2, both, hit1
        both += k2 * only1 + k1 * only2
        only1, only2 = b * only1 + k1 * none, a * only2 + k2 * none
        hit1 = a * hit1 + k1
        none *= c


def _click_weights(k1, k2, dark, size):
    """Chances that n < size photons click detector 1, and both detectors.

    Dark clicks, with probability `dark` per detector, fill in a click
    pattern's missing clicks; every term stays positive.
    """
    none, only1, only2, both, hit1 = np.array(list(islice(_photon_weights(k1, k2), size))).T
    return (hit1 + dark * (none + only2),
            both + dark * (only1 + only2) + dark * dark * none)


def multimode_click_rates(mus, eta, ta, tb, dark=0.0):
    """(p_success, p_error) of independent pair modes, one brightness each.

    The one pair kernel: a detector responds to photons from any mode,
    and one mode is the single two-mode squeezed vacuum.  Dark clicks
    with probability `dark` per detector are folded in exactly.  Modes
    of equal brightness are summed once, weighted by their count.
    """
    groups = Counter(float(mu) for mu in mus).items()

    def log_no_click(x):
        # log prod_i Q_i(x), each factor written as 1 - q so log1p keeps small q
        return sum(k * math.log1p(-mu * (1.0 - x) / (1.0 - mu * x)) for mu, k in groups)

    def coincidence(a, b, c, excess):
        # prod Q(c) - prod Q(a) Q(b) = prod Q(a) Q(b) * expm1(sum log1p(excess)),
        # excess = (Q(c) - Q(a) Q(b)) / (Q(a) Q(b)) per mode in pre-cancelled form
        la, lb = log_no_click(a), log_no_click(b)
        p_a, p_b = -math.expm1(la), -math.expm1(lb)
        p = p_a * p_b + math.exp(la + lb) * math.expm1(
            sum(k * math.log1p(excess(mu)) for mu, k in groups))
        if dark:
            p = _with_dark(p, p_a, p_b, -math.expm1(log_no_click(c)), dark)
        return p

    x1, x2 = 1.0 - eta * ta, 1.0 - eta * tb
    p_s = coincidence(x1, x2, x1 * x2, lambda mu: (
        mu * (1.0 - x1) * (1.0 - x2) / ((1.0 - mu) * (1.0 - mu * x1 * x2))))

    def error_arm(t):
        a, b, c = 1.0 - eta * t, 1.0 - eta * (1.0 - t), 1.0 - eta
        return coincidence(a, b, c, lambda mu: (
            mu * mu * (1.0 - a) * (1.0 - b) / ((1.0 - mu) * (1.0 - mu * c))))

    return p_s, 0.5 * (error_arm(ta) + error_arm(tb))


def multimode_pair_click_probs(ensemble, config=DetectionConfig()):
    """Coincidence probabilities of an ensemble of independent pair modes.

    A one-mode ensemble is the single two-mode squeezed vacuum.
    """
    if not isinstance(ensemble, ModeEnsemble):
        ensemble = ModeEnsemble(tuple(ensemble))
    p_s, p_e = multimode_click_rates(
        ensemble.pair_brightness, config.eta, config.t_bs, config.t_bs_b,
        config.dark_count_prob,
    )
    return ClickProbabilities(
        min(max(p_s, 0.0), 1.0),
        min(max(p_e, 0.0), 1.0),
        meta={"n_modes": ensemble.n_modes},
    )


SERIES_TAIL_TOL = 1e-18  # geometric weight the series oracle may leave out


def tmsv_pair_click_probs_series(mu, config=DetectionConfig()):
    """Oracle route: direct truncated sum over the pair number.

    Shares no algebra with multimode_click_rates: each term is the
    geometric pair-number weight times the per-photon detection
    weights of the two arms, dark clicks included term by term.  The
    truncation point is chosen so the neglected geometric tail is below
    SERIES_TAIL_TOL.
    """
    _check_mu(mu)
    if mu == 0.0:
        nmax = 2
    else:
        nmax = int(max(64, np.ceil(np.log(SERIES_TAIL_TOL) / np.log(mu)))) + 1
    weights = (1.0 - mu) * mu**np.arange(nmax)
    eta, dark = config.eta, config.dark_count_prob

    def arm(t):
        return _click_weights(eta * t, eta * (1.0 - t), dark, nmax)

    (hit_a, both_a), (hit_b, both_b) = arm(config.t_bs), arm(config.t_bs_b)
    p_s = float(np.sum(weights * hit_a * hit_b))
    p_e = 0.5 * (float(np.sum(weights * both_a)) + float(np.sum(weights * both_b)))
    return ClickProbabilities(p_s, p_e, meta={"nmax": nmax})


def poisson_pair_click_probs(mean_pairs, config=DetectionConfig()):
    """Limit of many dim modes at fixed total mean pair number.

    Photon numbers become Poisson.  Same-arm detectors decouple in this
    limit, but the photons of one pair still go to opposite arms, so
    the cross-arm coincidence keeps a correlation excess linear in the
    pair number.
    """
    if mean_pairs < 0:
        raise DomainError(f"mean_pairs must be >= 0, got {mean_pairs}")
    m = mean_pairs
    eta, ta, tb = config.eta, config.t_bs, config.t_bs_b
    dark = config.dark_count_prob

    def click(kappa):
        return -np.expm1(-m * kappa)

    ka, kb = eta * ta, eta * tb
    excess = np.exp(-m * (ka + kb)) * np.expm1(m * ka * kb)
    p_s = click(ka) * click(kb) + excess
    p_s = _with_dark(p_s, click(ka), click(kb), click(ka + kb - ka * kb), dark)

    def error_arm(t):
        k1, k2 = eta * t, eta * (1.0 - t)
        # joint no-click exponent equals the sum of singles exponents
        # here, so the same-arm excess vanishes exactly
        return _with_dark(click(k1) * click(k2), click(k1), click(k2), click(eta), dark)

    p_e = 0.5 * (error_arm(ta) + error_arm(tb))
    return ClickProbabilities(p_s, p_e, meta={"mean_pairs": mean_pairs})

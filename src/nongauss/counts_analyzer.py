"""Measured-counts analysis against non-Gaussianity thresholds.

Turns raw coincidence counts into probability estimates with counting
uncertainties, measures how far a point sits above a threshold in
combined standard deviations, emulates extra attenuation by
undersampling, extracts the emitter duty cycle from correlation peak
areas, and finds the attenuation budget (depth) at which certification
is lost.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, FitError


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A probability with a one-standard-deviation uncertainty."""

    value: float
    sigma: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise DomainError(f"value must be a probability, got {self.value}")
        if not (self.sigma >= 0.0):
            raise DomainError(f"sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class CountSummary:
    """Aggregate counts of one measurement run.

    kind "pair": success_count is the cross-arm coincidence total and
    error_count_a / error_count_b the same-arm coincidences of each
    arm.  kind "single": success_count is the transmitted-detector
    click total, error_count_a the cross-splitter coincidences, and
    error_count_b stays None.

    Counts may be non-integral after deterministic undersampling.
    """

    kind: str
    duration_s: float
    generation_rate_hz: float
    success_count: float
    error_count_a: float
    error_count_b: float = None
    generation_rate_sigma_hz: float = 0.0
    singles: dict = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind not in ("pair", "single"):
            raise DomainError(f"kind must be 'pair' or 'single', got {self.kind!r}")
        if not (self.duration_s > 0):
            raise DomainError(f"duration_s must be > 0, got {self.duration_s}")
        if not (self.generation_rate_hz > 0):
            raise DomainError(f"generation_rate_hz must be > 0, got {self.generation_rate_hz}")
        if self.generation_rate_sigma_hz < 0:
            raise DomainError("generation_rate_sigma_hz must be >= 0")
        counts = [self.success_count, self.error_count_a]
        if self.kind == "pair":
            if self.error_count_b is None:
                raise DomainError("pair counts need error_count_b")
            counts.append(self.error_count_b)
        elif self.error_count_b is not None:
            raise DomainError("single counts must leave error_count_b unset")
        for c in counts:
            if not (c >= 0):
                raise DomainError(f"counts must be >= 0, got {c}")
        if self.singles is not None:
            for name, c in self.singles.items():
                if not (c >= 0):
                    raise DomainError(f"singles[{name!r}] must be >= 0, got {c}")

    @property
    def trials(self):
        return self.generation_rate_hz * self.duration_s

    @property
    def error_count_total(self):
        if self.kind == "pair":
            return self.error_count_a + self.error_count_b
        return self.error_count_a


def _poisson_estimate(count, trials, rel_rate_sigma):
    value = count / trials
    if count <= 0:
        return ProbabilityEstimate(0.0, 0.0)
    sigma = value * math.sqrt(1.0 / count + rel_rate_sigma**2)
    return ProbabilityEstimate(value, sigma)


def estimate_click_probabilities(counts):
    """(success, error) probability estimates from aggregate counts.

    Success normalizes by the number of generated pairs (or photons);
    the pair error rate averages the two same-arm coincidence totals.
    Uncertainties combine Poisson counting noise with the relative
    uncertainty of the generation rate in quadrature.
    """
    trials = counts.trials
    rel = counts.generation_rate_sigma_hz / counts.generation_rate_hz
    p_success = _poisson_estimate(counts.success_count, trials, rel)
    if counts.kind == "pair":
        p_error = _poisson_estimate(counts.error_count_total, 2.0 * trials, rel)
    else:
        p_error = _poisson_estimate(counts.error_count_a, trials, rel)
    return p_success, p_error


@dataclass(frozen=True)
class SigmaDistance:
    """Distance of a measured point above a threshold, in total sigmas."""

    value: float
    threshold_value: float
    sigma_total: float
    components: dict


def uncertainty_budget(model, p_success, p_error, sigma_eta=0.0):
    """Threshold at the measured error rate and its combined uncertainty.

    The budget adds, in quadrature: the success estimate's sigma, the
    error estimate's sigma mapped through the threshold slope, and the
    efficiency uncertainty mapped through the model's efficiency
    sensitivity.  Returns (threshold, components, sigma_total).
    """
    if p_error.value <= 0.0:
        raise DomainError(
            "error probability is zero; the threshold slope is undefined there"
        )
    threshold = float(model.value(p_error.value))
    from_success = p_success.sigma
    from_error = abs(float(model.slope(p_error.value))) * p_error.sigma
    if sigma_eta:
        from_eta = abs(float(model.eta_sensitivity(p_error.value))) * sigma_eta
    else:
        from_eta = 0.0
    sigma_total = math.sqrt(from_success**2 + from_error**2 + from_eta**2)
    if sigma_total == 0.0:
        raise DomainError("all uncertainty components vanish; distance undefined")
    components = {
        "from_p_success": from_success,
        "from_p_error": from_error,
        "from_eta": from_eta,
    }
    return threshold, components, sigma_total


def sigma_distance(p_success, p_error, model, sigma_eta=0.0):
    """How many combined standard deviations the point clears the threshold.

    The denominator is uncertainty_budget's sigma_total.  Positive
    distance means certified.
    """
    threshold, components, sigma_total = uncertainty_budget(
        model, p_success, p_error, sigma_eta
    )
    return SigmaDistance(
        value=(p_success.value - threshold) / sigma_total,
        threshold_value=threshold,
        sigma_total=sigma_total,
        components=components,
    )


def _scaling_exponents(kind):
    # success: cross-arm coincidence (two clicks) for pairs, one click
    # for singles; errors are always two-click coincidences
    if kind == "pair":
        return {"success": 2, "error": 2, "singles": 1}
    return {"success": 1, "error": 2, "singles": 1}


def _thinned(counts, keep):
    # every click survives with probability keep, so a count that needs
    # k clicks scales by keep**k
    exps = _scaling_exponents(counts.kind)
    singles = None
    if counts.singles is not None:
        singles = {k: v * keep ** exps["singles"] for k, v in counts.singles.items()}
    return replace(
        counts,
        success_count=counts.success_count * keep ** exps["success"],
        error_count_a=counts.error_count_a * keep ** exps["error"],
        error_count_b=(
            counts.error_count_b * keep ** exps["error"] if counts.kind == "pair" else None
        ),
        singles=singles,
    )


def undersample(counts, attenuation):
    """Emulate extra attenuation by thinning recorded counts.

    Each click survives with probability 1 - attenuation, so two-fold
    coincidences scale by (1 - attenuation)**2 and one-detector counts
    by (1 - attenuation).  The counts become these expectations.
    """
    if not (0.0 <= attenuation < 1.0):
        raise DomainError(f"attenuation must lie in [0, 1), got {attenuation}")
    thinned = _thinned(counts, 1.0 - attenuation)
    return replace(thinned, meta={**counts.meta, "undersampled_by": attenuation})


@dataclass(frozen=True)
class AttenuationScan:
    """Probability trajectory under a grid of emulated attenuations."""

    attenuations: np.ndarray
    p_success: np.ndarray
    sigma_p_success: np.ndarray
    p_error: np.ndarray
    sigma_p_error: np.ndarray
    source_counts: CountSummary

    def __post_init__(self):
        for name in ("attenuations", "p_success", "sigma_p_success",
                     "p_error", "sigma_p_error"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.attenuations.size
        if any(getattr(self, f).size != n for f in
               ("p_success", "sigma_p_success", "p_error", "sigma_p_error")):
            raise DomainError("scan arrays must share one length")
        if np.any(np.diff(self.attenuations) <= 0):
            raise DomainError("attenuations must be strictly increasing")


def attenuation_scan(counts, a_max=0.8, step=0.02):
    """Undersample over a uniform attenuation grid starting at zero."""
    if not (0.0 < step <= a_max < 1.0):
        raise DomainError(f"need 0 < step <= a_max < 1, got step={step}, a_max={a_max}")
    grid = np.arange(0.0, a_max + step / 2.0, step)
    ps, sps, pe, spe = [], [], [], []
    for a in grid:
        s, e = estimate_click_probabilities(undersample(counts, float(a)))
        ps.append(s.value)
        sps.append(s.sigma)
        pe.append(e.value)
        spe.append(e.sigma)
    return AttenuationScan(grid, ps, sps, pe, spe, counts)


@dataclass(frozen=True)
class BlinkingFit:
    """Exponential-plus-plateau fit of correlation peak areas."""

    amplitude: float
    correlation_pulses: float
    plateau: float
    blinking_factor: float
    fit_meta: dict


def blinking_fit(delays, areas):
    """Duty-cycle (on-fraction) estimate from side-peak areas.

    Fits area(n) = A exp(-|n| / tau) + B over nonzero delays. The
    plateau fraction B / (A + B) is the fraction of time the emitter
    spends on: intermittency correlates nearby pulses, lifting near
    peaks above the plateau by the same envelope for any two-state
    dynamics with exponential memory.
    """
    delays = np.abs(np.asarray(delays, dtype=float))
    areas = np.asarray(areas, dtype=float)
    if delays.shape != areas.shape:
        raise DomainError("delays and areas must have equal length")
    mask = delays != 0
    delays, areas = delays[mask], areas[mask]
    if np.unique(delays).size < 4:
        raise DomainError("need at least 4 distinct nonzero delays")
    if np.any(areas < 0):
        raise DomainError("peak areas must be >= 0")

    mean_area = areas.mean()
    if mean_area <= 0:
        raise FitError("all peak areas vanish; nothing to fit")
    if areas.std() <= 1e-12 * mean_area:
        # perfectly flat: no intermittency visible
        return BlinkingFit(0.0, 0.0, float(mean_area), 1.0,
                           {"residual_rms": 0.0, "n_points": int(areas.size)})

    far = areas[delays >= np.quantile(delays, 0.75)].mean()
    near = areas[delays <= np.quantile(delays, 0.25)].mean()
    p0 = [max(near - far, 1e-6 * mean_area), delays.max() / 3.0, far]

    def envelope(n, amp, tau, plateau):
        return amp * np.exp(-n / tau) + plateau

    from scipy.optimize import curve_fit

    try:
        popt, pcov = curve_fit(
            envelope, delays, areas, p0=p0,
            bounds=([0.0, 1e-9, 0.0], [np.inf, np.inf, np.inf]),
            maxfev=20000,
        )
    except (RuntimeError, ValueError) as exc:
        raise FitError(f"peak-area fit did not converge: {exc}") from exc
    amp, tau, plateau = (float(v) for v in popt)
    if amp + plateau <= 0:
        raise FitError("degenerate fit: zero total envelope")
    residuals = areas - envelope(delays, *popt)
    return BlinkingFit(
        amplitude=amp,
        correlation_pulses=tau,
        plateau=plateau,
        blinking_factor=plateau / (amp + plateau),
        fit_meta={
            "residual_rms": float(np.sqrt(np.mean(residuals**2))),
            "n_points": int(areas.size),
            "sigma": [float(s) for s in np.sqrt(np.diag(pcov))],
        },
    )


@dataclass(frozen=True)
class DepthResult:
    """Attenuation budget before certification is lost.

    depth_db is quoted per success photon; crossing_transmission is
    the per-photon transmission at the crossing, so
    depth_db == -10 log10(crossing_transmission) always holds.
    """

    depth_db: float
    crossing_transmission: float
    status: str
    fit_meta: dict


TAU_FLOOR = 1e-6  # smallest transmission the depth search reaches


def depth_fit(scan, model, sigma_eta=0.0, sigma_level=1.0):
    """Find where the attenuated counts stop clearing the threshold.

    The scan's own thinning law is continued below the scan: at residual
    transmission tau = 1 - attenuation every count scales by tau**k, and
    the thinned counts give the estimates and their counting
    uncertainties exactly as at a scan point.  The crossing is where the
    success estimate meets the threshold plus sigma_level combined
    standard deviations; the efficiency uncertainty stays fixed (the
    threshold is held at the scan's own efficiency).  The crossing is
    converted to a per-success-photon depth: a pair loses two photons to
    attenuation, a single one.

    fit_meta records the thinning exponents as slopes, the logs of the
    unattenuated estimates as intercepts, and the RMS distance of the
    scan's log-probabilities from that trajectory.
    """
    counts = scan.source_counts
    if counts.success_count <= 0 or counts.error_count_total <= 0:
        raise FitError("zero success or error counts; no trajectory to extrapolate")

    def gap(tau):
        p_success, p_error = estimate_click_probabilities(_thinned(counts, tau))
        threshold, _, sigma_total = uncertainty_budget(
            model, p_success, p_error, sigma_eta
        )
        return p_success.value - threshold - sigma_level * sigma_total

    exps = _scaling_exponents(counts.kind)
    log_tau = np.log(1.0 - scan.attenuations)
    fit_meta = {}
    for name, estimate, measured in zip(("success", "error"),
                                        estimate_click_probabilities(counts),
                                        (scan.p_success, scan.p_error)):
        intercept = math.log(estimate.value)
        residuals = np.log(measured) - (exps[name] * log_tau + intercept)
        fit_meta[f"slope_{name}"] = float(exps[name])
        fit_meta[f"intercept_{name}"] = intercept
        fit_meta[f"residual_rms_{name}"] = float(np.sqrt(np.mean(residuals**2)))
    n_success_photons = 2 if counts.kind == "pair" else 1
    fit_meta.update(sigma_level=float(sigma_level),
                    n_success_photons=n_success_photons, gap_at_unity=gap(1.0))

    if fit_meta["gap_at_unity"] <= 0.0:
        return DepthResult(0.0, 1.0, "below_threshold", fit_meta)
    if gap(TAU_FLOOR) > 0.0:
        raise FitError(
            f"trajectory still clears the threshold at tau={TAU_FLOOR:.1e}"
        )
    from scipy.optimize import brentq

    tau_cross = brentq(gap, TAU_FLOOR, 1.0, xtol=1e-14, rtol=1e-13)
    fit_meta["tau_cross"] = float(tau_cross)
    depth_db = -10.0 * math.log10(tau_cross) / n_success_photons
    return DepthResult(
        depth_db=depth_db,
        crossing_transmission=tau_cross ** (1.0 / n_success_photons),
        status="crossed",
        fit_meta=fit_meta,
    )

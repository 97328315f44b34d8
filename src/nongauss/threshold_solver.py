"""Gaussian-achievable click thresholds via penalized rate maximization.

For a penalty weight alpha > 0 the solver maximizes

    F = p_success - alpha * p_error

over a family of states.  Sweeping alpha traces the upper boundary of
the (p_error, p_success) region the family can reach at a given loss;
a measured point above that boundary is incompatible with every member
of the family.  Single-photon thresholds optimize over displaced
squeezed vacua behind a splitter, pair thresholds over ensembles of
independent two-mode squeezed modes.

Small-rate closed forms of both boundaries are provided as threshold
models with analytic slope and efficiency sensitivity; these are what
the counts analyzer consumes.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.optimize import minimize

from .errors import DomainError, SolverError
from .photon_statistics.gaussian import no_click_after_loss, single_click_rates
from .photon_statistics.pair_formulas import multimode_click_rates
from .photon_statistics.types import DetectionConfig, GaussianStateParams

LOG_FLOOR = -690.0  # exp() underflows to zero a bit below this

# Solver tuning, shared by both families
SEED_SCALES = (0.5, 1.0, 2.0)  # cold-start multiples of the seed guess
XATOL = 1e-10
MAXITER = 6000  # cold start; maxfev is twice this
WARM_MAXITER = 2000  # warm-started point of a sweep
MP_DPS = 50  # digits of the one re-evaluation of each solved single-photon point
RESIDUAL_TOL = 1e-5  # largest relative f-spread of an accepted simplex


@dataclass(frozen=True)
class RateOptimum:
    """One solved point: the best state of the family at one penalty."""

    alpha: float
    p_success: float
    p_error: float
    objective: float
    residual: float
    params: dict


def _check_point(alpha, eta, t_bs):
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    DetectionConfig(eta, t_bs)  # names a bad eta or t_bs


def _check_count(name, value, least):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _solve_point(kind, alpha, objective, seeds, warm, finish):
    """Multistart simplex at one penalty weight.

    finish(x) maps the best search point to (params, p_success,
    p_error); a simplex that has not collapsed raises SolverError.
    """
    maxiter = WARM_MAXITER if warm else MAXITER
    best = None
    for seed in seeds:
        seed = np.asarray(seed, dtype=float)
        # stop once the simplex f-spread is negligible against the
        # objective scale; fatol=0 would spin until exact collapse
        fatol = max(abs(objective(seed)) * 1e-13, 1e-280)
        res = minimize(
            objective,
            seed,
            method="Nelder-Mead",
            options=dict(xatol=XATOL, fatol=fatol, maxiter=maxiter, maxfev=2 * maxiter),
        )
        if best is None or res.fun < best.fun:
            best = res
    fvals = best.final_simplex[1]
    scale = max(abs(fvals[0]), 1e-300)
    residual = float((fvals.max() - fvals.min()) / scale)
    params, p_success, p_error = finish(best.x)
    if not np.isfinite(best.fun) or residual > RESIDUAL_TOL:
        raise SolverError(
            f"{kind}-rate optimization stalled at alpha={alpha:.3e} "
            f"(residual {residual:.2e})",
            best_point=params,
            best_value=-best.fun,
        )
    return RateOptimum(
        alpha=float(alpha),
        p_success=float(p_success),
        p_error=float(max(p_error, 0.0)),
        objective=-float(best.fun),
        residual=residual,
        params=params,
    )


def _single_state(x):
    log_d, log_r = x
    return GaussianStateParams(
        float(np.exp(max(log_d, LOG_FLOOR))),
        float(np.exp(max(log_r, LOG_FLOOR))),
    )


def _single_objective(alpha, k1, k2):
    def objective(x):
        if x[0] > 3.0 or x[1] > 3.0:
            return 1e10
        p1, p_error = single_click_rates(_single_state(x), k1, k2)
        return -(p1 - alpha * p_error)

    return objective


def _single_seeds(alpha, eta, t_bs, warm_start):
    # the optimum sits near the locus where one- and two-photon
    # amplitudes cancel, r ~ (d/2)^2, and the success rate scales like
    # sqrt(c / (3 alpha)) with c the small-rate coefficient
    c = eta / (4.0 * (2.0 - eta))
    p1_guess = np.sqrt(c / (3.0 * alpha))
    d0 = 2.0 * np.sqrt(max(p1_guess / (eta * t_bs), 1e-300))
    seeds = []
    if warm_start is not None:
        d, r = warm_start["displacement_amplitude"], warm_start["squeezing"]
        if d > 0 and r > 0:
            seeds.append((np.log(d), np.log(r)))
    for fac in SEED_SCALES if warm_start is None else (1.0,):
        d = d0 * fac
        seeds.append((np.log(d), np.log(max((d / 2.0) ** 2, 1e-300))))
    if warm_start is None:
        seeds.append((np.log(0.5), np.log(0.05)))
    return seeds


def maximize_single_rate(alpha, eta, t_bs=0.5, warm_start=None):
    """Best displaced squeezed vacuum at one penalty weight.

    The search runs over (log d, log r) at relative angle 0, where the
    one- and two-photon amplitudes can cancel (gamma^2 = tanh r); a
    search over the angle as well finds no better state.  It runs in
    float64 on single_click_rates, whose photon-number sum keeps the
    double-click rate's relative precision far below the cancellation
    floor of 1 - q1 - q2 + q12.  The solved point is then
    evaluated once more by the closed form at MP_DPS digits, an
    independent route, and those are the rates it reports.
    """
    _check_point(alpha, eta, t_bs)
    k1, k2 = eta * t_bs, eta * (1.0 - t_bs)

    def finish(x):
        params = _single_state(x)
        with mpmath.workdps(MP_DPS):
            # kappas as mpf, so that no product is rounded to a double
            # and the third transmission is exactly k1 + k2
            kappas = (mpmath.mpf(k1), mpmath.mpf(k2), mpmath.mpf(k1) + k2)
            q1, q2, q12 = no_click_after_loss(params, kappas, mathmod=mpmath)
            p_success, p_error = float(1 - q1), float(1 - q1 - q2 + q12)
        return dataclasses.asdict(params), p_success, p_error

    return _solve_point("single", alpha, _single_objective(alpha, k1, k2),
                        _single_seeds(alpha, eta, t_bs, warm_start),
                        warm_start is not None, finish)


def _pair_ensemble(x, n_modes):
    # every mode gets the same brightness exp(x): the optimum ensemble
    # is uniform, so one variable spans the search
    return [float(np.exp(max(x[0], LOG_FLOOR)))] * n_modes


def _pair_objective(alpha, eta, n_modes, t_bs):
    def objective(x):
        if x[0] > -1e-9:
            return 1e10
        p_s, p_e = multimode_click_rates(_pair_ensemble(x, n_modes), eta, t_bs, t_bs)
        return -(p_s - alpha * p_e)

    return objective


def _pair_seeds(alpha, n_modes, warm_start):
    # the small-rate stationarity condition puts the shared brightness
    # near 1 / (2 alpha (n + 1))
    mu0 = 1.0 / (2.0 * alpha * (n_modes + 1.0))
    seeds = []
    if warm_start is not None:
        mus = np.asarray(warm_start["pair_brightness"], dtype=float)
        if np.all(mus > 0):
            seeds.append([np.log(mus.mean())])
    for fac in SEED_SCALES if warm_start is None else (1.0,):
        seeds.append([np.log(min(mu0 * fac, 0.5))])
    return seeds


def maximize_pair_rate(alpha, eta, n_modes=1, t_bs=0.5, warm_start=None):
    """Best ensemble of two-mode squeezed modes at one penalty weight.

    The search runs over one brightness shared by all modes.
    """
    _check_point(alpha, eta, t_bs)
    _check_count("n_modes", n_modes, 1)

    def finish(x):
        mus = _pair_ensemble(x, n_modes)
        p_success, p_error = multimode_click_rates(mus, eta, t_bs, t_bs)
        return {"pair_brightness": mus}, p_success, p_error

    return _solve_point("pair", alpha, _pair_objective(alpha, eta, n_modes, t_bs),
                        _pair_seeds(alpha, n_modes, warm_start),
                        warm_start is not None, finish)


@dataclass(frozen=True)
class ThresholdCurve:
    """Swept boundary of the Gaussian-reachable click region.

    Points are stored sorted by increasing p_error.  value() and
    slope() interpolate the boundary linearly in log-log space.
    """

    kind: str
    eta: float
    t_bs: float
    n_modes: int
    alphas: np.ndarray
    p_error: np.ndarray
    p_success: np.ndarray
    residuals: np.ndarray
    params: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("single", "pair"):
            raise DomainError(f"unknown curve kind {self.kind!r}")
        order = np.argsort(self.p_error)
        for name in ("alphas", "p_error", "p_success", "residuals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float)[order])
        object.__setattr__(self, "params", tuple(self.params[i] for i in order))
        if np.any(self.p_error <= 0) or np.any(self.p_success <= 0):
            raise DomainError("curve probabilities must be positive for log interpolation")

    def value(self, p_error):
        """Interpolated success threshold at a given error probability."""
        pe = np.asarray(p_error, dtype=float)
        if np.any(pe < self.p_error[0]) or np.any(pe > self.p_error[-1]):
            raise DomainError(
                f"p_error outside curve support [{self.p_error[0]:.3e}, {self.p_error[-1]:.3e}]"
            )
        out = np.exp(np.interp(np.log(pe), np.log(self.p_error), np.log(self.p_success)))
        return float(out) if out.ndim == 0 else out

    def slope(self, p_error):
        """d(threshold)/d(p_error) of the interpolated boundary."""
        pe = float(p_error)
        t = self.value(pe)
        logs_e = np.log(self.p_error)
        i = min(max(np.searchsorted(logs_e, np.log(pe)) - 1, 0), logs_e.size - 2)
        gamma = (np.log(self.p_success[i + 1]) - np.log(self.p_success[i])) / (
            logs_e[i + 1] - logs_e[i]
        )
        return float(gamma * t / pe)

    def eta_sensitivity(self, p_error):
        raise DomainError(
            "a swept curve has no efficiency sensitivity; it cannot "
            "propagate an efficiency uncertainty"
        )


def _sweep(kind, eta, t_bs, n_modes, solve, rescale, alpha_min, alpha_max, n_points):
    """Solve each penalty of the grid, warm-started from the point before.

    solve(alpha, warm) returns a RateOptimum and rescale(params, step)
    turns it into the next warm start.  A point that stalls is recorded
    in the curve's meta under "gaps" and the next one starts cold.
    """
    _check_count("points", n_points, 2)
    bounds = (alpha_min, alpha_max)
    if not all(isinstance(a, numbers.Real) and math.isfinite(a) for a in bounds):
        raise DomainError(f"alpha grid bounds must be finite numbers, got {bounds}")
    if not (0 < alpha_min < alpha_max):
        raise DomainError("alpha grid bounds must satisfy 0 < min < max")
    grid = np.geomspace(alpha_min, alpha_max, n_points)
    step = grid[1] / grid[0]
    optima = []
    gaps = []
    warm = None
    for alpha in grid:
        try:
            opt = solve(alpha, warm)
        except SolverError as exc:
            gaps.append({"alpha": float(alpha), "message": str(exc)})
            warm = None
            continue
        optima.append(opt)
        warm = rescale(opt.params, step)
    if len(optima) < 2:
        raise SolverError(
            f"only {len(optima)} of {n_points} boundary points solved; "
            "cannot build a curve"
        )
    return _curve_from_optima(kind, eta, t_bs, n_modes, optima, {
        "alpha_min": alpha_min, "alpha_max": alpha_max, "gaps": gaps})


def single_threshold_curve(eta, t_bs=0.5, *, alpha_min=1.0, alpha_max=1e12, n_points=49):
    """Sweep the single-photon boundary over the penalty grid."""
    # optimum scalings along the sweep: d ~ alpha^(-1/4), r ~ alpha^(-1/2)
    return _sweep(
        "single", eta, t_bs, 1,
        lambda alpha, warm: maximize_single_rate(alpha, eta, t_bs, warm_start=warm),
        lambda params, step: {
            "displacement_amplitude": params["displacement_amplitude"] * step**-0.25,
            "squeezing": params["squeezing"] * step**-0.5,
        },
        alpha_min, alpha_max, n_points)


def pair_threshold_curve(eta, n_modes=1, t_bs=0.5, *, alpha_min=1.0, alpha_max=1e12,
                         n_points=49):
    """Sweep the pair-source boundary over the penalty grid."""
    # optimal brightness scales like 1 / alpha
    return _sweep(
        "pair", eta, t_bs, n_modes,
        lambda alpha, warm: maximize_pair_rate(alpha, eta, n_modes, t_bs, warm_start=warm),
        lambda params, step: {"pair_brightness": [m / step for m in params["pair_brightness"]]},
        alpha_min, alpha_max, n_points)


def _curve_from_optima(kind, eta, t_bs, n_modes, optima, grid_meta):
    search = "nelder-mead" if kind == "single" else "nelder-mead over one shared log-brightness"
    return ThresholdCurve(
        kind=kind,
        eta=eta,
        t_bs=t_bs,
        n_modes=n_modes,
        alphas=np.array([o.alpha for o in optima]),
        p_error=np.array([o.p_error for o in optima]),
        p_success=np.array([o.p_success for o in optima]),
        residuals=np.array([o.residual for o in optima]),
        params=tuple(o.params for o in optima),
        meta={
            "objective": "p_success - alpha * p_error",
            "optimizer": f"{search}, multistart, warm-started sweep",
            "mp_dps": MP_DPS if kind == "single" else None,
            **grid_meta,
        },
    )


class _CubeRootModel:
    """Boundary p_success = cbrt(coefficient * p_error), shared by the
    cube-root closed forms."""

    def value(self, p_error):
        return np.cbrt(self.coefficient * np.asarray(p_error, dtype=float))

    def slope(self, p_error):
        return self.value(p_error) / (3.0 * np.asarray(p_error, dtype=float))


@dataclass(frozen=True)
class SinglePhotonThresholdModel(_CubeRootModel):
    """Small-rate single-photon boundary in closed form.

    At low rates the best Gaussian state obeys
    p_success**3 / p_error = eta / (4 (2 - eta)), so the boundary is a
    cube-root law in the error probability.
    """

    eta: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise DomainError(f"eta must lie in (0, 1], got {self.eta}")

    @property
    def coefficient(self):
        return self.eta / (4.0 * (2.0 - self.eta))

    def eta_sensitivity(self, p_error):
        dc = 1.0 / (2.0 * (2.0 - self.eta) ** 2)
        return self.value(p_error) * dc / (3.0 * self.coefficient)


@dataclass(frozen=True)
class PairThresholdModel:
    """Small-rate pair boundary, second order in the error probability.

    The many-mode ensemble saturates the boundary, which expands as
    (eta / 2) sqrt(p_error) + (1 - 3 eta / 4 + eta**2 / 8) p_error.
    """

    eta: float

    def __post_init__(self):
        if not (0.0 < self.eta <= 1.0):
            raise DomainError(f"eta must lie in (0, 1], got {self.eta}")

    @property
    def curvature(self):
        return 1.0 - 0.75 * self.eta + self.eta**2 / 8.0

    def value(self, p_error):
        pe = np.asarray(p_error, dtype=float)
        return 0.5 * self.eta * np.sqrt(pe) + self.curvature * pe

    def slope(self, p_error):
        pe = np.asarray(p_error, dtype=float)
        return 0.25 * self.eta / np.sqrt(pe) + self.curvature

    def eta_sensitivity(self, p_error):
        pe = np.asarray(p_error, dtype=float)
        return 0.5 * np.sqrt(pe) + (-0.75 + 0.25 * self.eta) * pe


@dataclass(frozen=True)
class SplitterThresholdModel(_CubeRootModel):
    """Loss-free splitter bound mapped to the success axis.

    Depends only on the splitting ratio; use it when the detection
    efficiency is absorbed into the measured rates rather than modeled.
    It has no efficiency sensitivity by construction, so it refuses an
    efficiency uncertainty.
    """

    t_bs: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.t_bs < 1.0):
            raise DomainError(f"t_bs must lie in (0, 1), got {self.t_bs}")

    @property
    def coefficient(self):
        return self.t_bs**2 / (2.0 * (1.0 - self.t_bs))

    def eta_sensitivity(self, p_error):
        raise DomainError(
            "threshold model cannot propagate an efficiency uncertainty"
        )

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
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .photon_statistics.gaussian import no_click_after_loss, single_click_rates
from .photon_statistics.pair_formulas import multimode_click_rates
from .photon_statistics.types import DetectionConfig, GaussianStateParams

LOG_FLOOR = -690.0  # exp() underflows to zero a bit below this
LOG_CEIL = 3.0  # upper edge of the search box in log d and log r
LOG2 = math.log(2.0)

# Solver tuning, shared by both families
SEED_SCALES = (0.5, 1.0, 2.0)  # cold-start multiples of the seed guess
WALL = 1e10  # objective beyond the search box; v < WALL is False for NaN too
FD_STEP = 1e-5  # finite-difference step in the search variables
WIDEST_STEP = 1e-2  # widest step that measures a curvature too weak for FD_STEP
STEP_CAP = 0.5  # longest step
MAX_STEPS = 100  # Newton iterations of one run
MAX_HALVINGS = 40  # step halvings before a run stops
ROUNDING = 2.0**-49  # rounding level of an objective value, relative (8 ulp)
MP_DPS = 50  # digits of the one re-evaluation of each solved single-photon point
RESIDUAL_TOL = 1e-14  # largest Newton decrement, relative to |F|, of an accepted point


@dataclass(frozen=True)
class RateOptimum:
    """One solved point: the best state of the family at one penalty."""

    alpha: float
    p_success: float
    p_error: float
    objective: float
    residual: float
    params: dict


# a run's last iterate, f there, steps, evaluations, and its Newton
# decrement over |f| (inf where the Hessian is not positive definite)
NewtonResult = namedtuple("NewtonResult", "x fun nit nfev residual")


def _check_point(alpha, eta, t_bs):
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    DetectionConfig(eta, t_bs)  # names a bad eta or t_bs


def _check_count(name, value, least):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _derivatives(f, x, f0):
    """Gradient, Hessian and wall sides of f at x from differences of step
    FD_STEP: central, or along an axis with a neighbour beyond the wall
    from the three points on the other side, side +1 (the wall ahead)
    or -1 (behind), or None if those do not lie inside."""
    h, n = FD_STEP, len(x)

    def at(*steps):
        return f([xi + si * h for xi, si in zip(x, steps)])

    g, hess, side, near, far = [0.0] * n, [[0.0] * n for _ in x], [0] * n, [0.0] * n, [0.0] * n
    for i in range(n):
        e = [float(i == j) for j in range(n)]
        lo, mid, hi = at(*(-v for v in e)), f0, at(*e)
        if not hi < WALL:
            side[i], (lo, mid, hi) = 1, (at(*(-2 * v for v in e)), lo, f0)
        elif not lo < WALL:
            side[i], (lo, mid, hi) = -1, (f0, hi, at(*(2 * v for v in e)))
        if not (lo < WALL and mid < WALL and hi < WALL):
            side[i] = None
            continue
        hess[i][i] = (hi - 2 * mid + lo) / h**2
        g[i] = (hi - lo) / (2 * h) + side[i] * hess[i][i] * h  # at x, from the middle point
        near[i], far[i] = (mid, 0.0) if side[i] else (hi, lo)
    if n == 2 and side == [0, 0]:
        hess[0][1] = hess[1][0] = (at(1, 1) + at(-1, -1) - sum(near) - sum(far)
                                   + 2 * f0) / (2 * h**2)
    elif n == 2 and None not in side:
        s0, s1 = (-1 if side[0] == 1 else 1), (-1 if side[1] == 1 else 1)
        fd = at(s0, s1)
        if fd < WALL:
            hess[0][1] = hess[1][0] = (fd - near[0] - near[1] + f0) / (s0 * s1 * h**2)
    return g, hess, side


def _model(f, x, f0, g, hess, free, noise):
    """(step, residual, flat) of the quadratic model over the free axes;
    the residual is the decrement over |f0|.

    A curvature (Hessian eigenvalue) at or below its rounding floor,
    noise over the step squared, is measured again with steps ten times
    wider, up to WIDEST_STEP.  If all clear their floors, the step is
    Newton's, -H^-1 g, and the decrement (1/2) g^T H^-1 g.  Otherwise
    the step is -|H|^-1 g, downhill along negative curvature too, and
    STEP_CAP along unseen curvature; the decrement is 0 where f is flat
    (gradient at rounding level, no curvature negative), else infinite.
    """
    sub = [[hess[i][j] for j in free] for i in free]
    if len(free) == 2:
        (a, b), (_, d) = sub
        m, r, t = 0.5 * (a + d), math.hypot(0.5 * (a - d), b), 0.5 * math.atan2(2 * b, a - d)
        pairs = [(m + r, (math.cos(t), math.sin(t))), (m - r, (-math.sin(t), math.cos(t)))]
    else:
        pairs = [(row[0], (1.0,)) for row in sub]
    curvatures, step = [], [0.0] * len(x)
    for lam, v in pairs:
        u = [v[free.index(i)] if i in free else 0.0 for i in range(len(x))]
        h = FD_STEP
        while abs(lam) * h * h <= noise and h < WIDEST_STEP:
            fp, fm = (f([xi + s * 10 * h * ui for xi, ui in zip(x, u)]) for s in (1, -1))
            if not (fp < WALL and fm < WALL):
                break
            h *= 10
            lam = (fp - 2 * f0 + fm) / (h * h)
        c, floor = sum(gi * ui for gi, ui in zip(g, u)), noise / (h * h)
        s = -c / abs(lam) if abs(lam) > floor else -math.copysign(STEP_CAP, c) if c else 0.0
        step = [si + s * ui for si, ui in zip(step, u)]
        curvatures.append((lam, floor, c))
    if all(lam > floor for lam, floor, _ in curvatures):
        decrement = 0.5 * sum(c * c / lam for lam, _, c in curvatures)
        return step, decrement / max(abs(f0), 1e-300), False
    flat = all(abs(c) * FD_STEP <= noise and lam >= -floor for lam, floor, c in curvatures)
    return step, 0.0 if flat else math.inf, flat


def minimize(fun, x0):
    """Damped Newton from x0 over one or two search variables.

    Steps from _model are capped at STEP_CAP and halved until f falls.
    fun is WALL beyond the search box, a bound: a step into it is drawn
    on up to it, and an axis at it is held while f does not rise
    towards it.  The run stops once the Newton decrement (the fall in
    f the quadratic model predicts) is RESIDUAL_TOL of |f| or less,
    where f is flat (decrement 0), or when no step lowers f.
    _solve_point calls this through the module attribute, where the
    traced benchmark wraps it and reads nit and nfev from the result.
    """
    nfev = 0

    def f(y):
        nonlocal nfev
        nfev += 1
        return fun(y)

    x = [float(v) for v in x0]
    fx = f(x)
    nit = 0
    while True:
        noise = ROUNDING * abs(fx)
        g, hess, side = _derivatives(f, x, fx)
        free = [i for i, s in enumerate(side)
                if s == 0 or (s is not None and s * g[i] * FD_STEP > noise)]
        step, residual, flat = _model(f, x, fx, g, hess, free, noise)
        if (residual <= RESIDUAL_TOL and not flat) or nit == MAX_STEPS or not any(step):
            break
        t, walled = min(1.0, STEP_CAP / math.hypot(*step)), False
        for _ in range(MAX_HALVINGS):
            trial = [xi + t * si for xi, si in zip(x, step)]
            ft = f(trial)
            # an equal value passes where f is not flat: a stencil that
            # straddles the clamped edge of the box steps past it so
            if ft < fx or (ft == fx and not flat):
                break
            t, walled = 0.5 * t, not ft < WALL
        else:
            # no step lowers f.  Where the step left the wall, the model
            # (from points FD_STEP apart) misses finer structure there:
            # the axes at the wall are held, and the rest judged alone
            if any(side[i] for i in free):
                free = [i for i in free if not side[i]]
                step, residual, flat = _model(f, x, fx, g, hess, free, noise)
            break
        # the wall lies within twice the step: bisect up to it, until
        # the ends round to the same point
        lo, hi = t, 2 * t
        while walled:
            mid = 0.5 * (lo + hi)
            point = [xi + mid * si for xi, si in zip(x, step)]
            walled = point not in (trial, [xi + hi * si for xi, si in zip(x, step)])
            fmid = f(point) if walled else WALL
            if fmid <= ft:
                lo, ft, trial = mid, fmid, point
            else:
                hi = mid
        x, fx = trial, ft
        nit += 1
    return NewtonResult(tuple(x), fx, nit, nfev, residual)


def _solve_point(kind, alpha, objective, warm, seeds, finish):
    """Damped Newton at one penalty weight, from warm or else every seed.

    Every seed also runs where the warm run fails, ends at F <= 0 (F
    is positive near the vacuum) or alpha < 1 (the brightest states of
    the box reach F = 1 - alpha and can take over from the warm
    start's branch).  finish(x) maps the best point to (params,
    p_success, p_error); a residual above RESIDUAL_TOL raises
    SolverError."""
    runs = [] if warm is None else [minimize(objective, warm)]
    if not runs or alpha < 1.0 or not (runs[0].residual <= RESIDUAL_TOL and runs[0].fun < 0.0):
        runs += [minimize(objective, seed) for seed in seeds]
    best = min(runs, key=lambda res: (res.fun, res.residual))  # ties: the lower residual
    params, p_success, p_error = finish(best.x)
    if not (math.isfinite(best.fun) and best.residual <= RESIDUAL_TOL):
        raise SolverError(
            f"{kind}-rate optimization stalled at alpha={alpha:.3e} "
            f"(residual {best.residual:.2e})",
            best_point=params,
            best_value=-best.fun,
        )
    return RateOptimum(
        alpha=float(alpha),
        p_success=float(p_success),
        p_error=float(max(p_error, 0.0)),
        objective=-float(best.fun),
        residual=float(best.residual),
        params=params,
    )


def _single_state(x):
    # ridge coordinates (log d, w) with r = (d/2)^2 e^w.  log r is
    # clamped to the box rather than walled: its edge runs diagonally
    # here, where a wall would hold both axes short of the box corner
    log_r = 2.0 * (x[0] - LOG2) + x[1]
    return GaussianStateParams(math.exp(max(x[0], LOG_FLOOR)),
                               math.exp(min(max(log_r, LOG_FLOOR), LOG_CEIL)))


def _single_objective(alpha, k1, k2):
    def objective(x):
        if x[0] > LOG_CEIL:
            return WALL
        p1, p_error = single_click_rates(_single_state(x), k1, k2)
        return -(p1 - alpha * p_error)

    return objective


def _single_seeds(alpha, eta, t_bs):
    # on the locus where one- and two-photon amplitudes cancel,
    # r ~ (d/2)^2 or w = 0, with the success rate scaling like
    # sqrt(c / (3 alpha)), c the small-rate coefficient
    c = eta / (4.0 * (2.0 - eta))
    p1_guess = math.sqrt(c / (3.0 * alpha))
    d0 = 2.0 * math.sqrt(max(p1_guess / (eta * t_bs), 1e-300))
    seeds = [(math.log(d0 * fac), 0.0) for fac in SEED_SCALES]
    seeds.append((math.log(0.5), math.log(0.05) - 2.0 * math.log(0.25)))
    return seeds


def maximize_single_rate(alpha, eta, t_bs=0.5, warm_start=None):
    """Best displaced squeezed vacuum at one penalty weight.

    The search runs at relative angle 0, where the one- and two-photon
    amplitudes can cancel (gamma^2 = tanh r); a search over the angle
    as well finds no better state.  It runs over ridge coordinates
    (log d, w), r = (d/2)^2 e^w: the optimum sits on a narrow ridge
    near w = 0, diagonal in (log d, log r).  It runs in float64 on
    single_click_rates, whose photon-number sum keeps the double-click
    rate's relative precision far below the cancellation floor of
    1 - q1 - q2 + q12.  The solved point is then evaluated once more
    by the closed form at MP_DPS digits, an independent route, and
    those are the rates it reports.
    """
    _check_point(alpha, eta, t_bs)
    k1, k2 = eta * t_bs, eta * (1.0 - t_bs)

    def finish(x):
        import mpmath

        params = _single_state(x)
        with mpmath.workdps(MP_DPS):
            # kappas as mpf, so that no product is rounded to a double
            # and the third transmission is exactly k1 + k2, capped at 1:
            # at eta 1 the two rounded products can sum to just above it
            k12 = min(mpmath.mpf(k1) + k2, mpmath.mpf(1))
            kappas = (mpmath.mpf(k1), mpmath.mpf(k2), k12)
            q1, q2, q12 = no_click_after_loss(params, kappas, mathmod=mpmath)
            p_success, p_error = float(1 - q1), float(1 - q1 - q2 + q12)
        return dataclasses.asdict(params), p_success, p_error

    warm = None
    if warm_start is not None:
        d, r = warm_start["displacement_amplitude"], warm_start["squeezing"]
        if d > 0 and r > 0:
            warm = (math.log(d), math.log(r) - 2.0 * (math.log(d) - LOG2))
    return _solve_point("single", alpha, _single_objective(alpha, k1, k2), warm,
                        _single_seeds(alpha, eta, t_bs), finish)


def _pair_ensemble(x, n_modes):
    # every mode gets the same brightness exp(x): the optimum ensemble
    # is uniform, so one variable spans the search
    return [float(np.exp(max(x[0], LOG_FLOOR)))] * n_modes


def _pair_objective(alpha, eta, n_modes, t_bs):
    def objective(x):
        if x[0] > -1e-9:
            return WALL
        p_s, p_e = multimode_click_rates(_pair_ensemble(x, n_modes), eta, t_bs, t_bs)
        return -(p_s - alpha * p_e)

    return objective


def _pair_seeds(alpha, n_modes):
    # the small-rate stationarity condition puts the shared brightness
    # near 1 / (2 alpha (n + 1))
    mu0 = 1.0 / (2.0 * alpha * (n_modes + 1.0))
    return [(math.log(min(mu0 * fac, 0.5)),) for fac in SEED_SCALES]


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

    warm = None
    if warm_start is not None and min(warm_start["pair_brightness"]) > 0:
        warm = (math.log(np.mean(warm_start["pair_brightness"])),)
    return _solve_point("pair", alpha, _pair_objective(alpha, eta, n_modes, t_bs), warm,
                        _pair_seeds(alpha, n_modes), finish)


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
        DetectionConfig(self.eta, self.t_bs)  # names a bad eta or t_bs
        if self.n_modes < 0:
            raise DomainError(f"n_modes must be >= 0, got {self.n_modes}")
        order = np.argsort(self.p_error)
        for name in ("alphas", "p_error", "p_success", "residuals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float)[order])
        object.__setattr__(self, "params", tuple(self.params[i] for i in order))
        if not (np.all(self.p_error > 0) and np.all(self.p_success > 0)):  # NaN fails
            raise DomainError("curve probabilities must be positive for log interpolation")

    def value(self, p_error):
        """Interpolated success threshold at a given error probability."""
        pe = np.asarray(p_error, dtype=float)
        if not np.all(np.isfinite(pe)):
            raise DomainError(f"p_error must be finite, got {p_error!r}")
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
    over = "ridge coordinates (log d, w)" if kind == "single" else "one shared log-brightness"
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
            "optimizer": f"damped newton over {over}, warm-started sweep, "
                         "multistart when cold",
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

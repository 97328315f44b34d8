"""Bounded nonlinear least squares without importing scipy.

``curve_fit`` is the path that ``scipy.optimize.curve_fit`` takes with
finite lower bounds, infinite upper bounds and ``maxfev`` (scipy 1.17.1,
BSD 3-Clause licence, copyright the SciPy developers):

- ``least_squares``' Trust Region Reflective method with bounds
  (``trf_bounds`` and ``select_step`` in ``scipy/optimize/_lsq/trf.py``),
  Coleman-Li scaling, ``x_scale`` 1, the linear loss, the exact SVD
  trust-region solver, and ``ftol`` = ``xtol`` = ``gtol`` = 1e-8;
- a forward-difference Jacobian (``approx_derivative`` with ``'2-point'``
  and its step adjustment to the bounds, ``scipy/optimize/_numdiff.py``);
- the helpers of ``scipy/optimize/_lsq/common.py`` that these call;
- ``curve_fit``'s covariance from the SVD of the final Jacobian.

It is ported statement for statement: it evaluates the model at the same
points, in the same order, and returns the same floats.  Branches this
path never takes (other methods, losses and trust-region solvers,
``x_scale='jac'``, callbacks, sparse Jacobians) are left out, and the
factors of ``x_scale`` 1, which multiply exactly, are dropped.  Where
scipy raises ``ValueError`` or ``RuntimeError``, this raises ``FitError``.
"""

import warnings
from dataclasses import dataclass
from math import copysign

import numpy as np
from numpy.linalg import norm

from .errors import FitError

EPS = np.finfo(float).eps
TOL = 1e-8  # ftol, xtol and gtol: least_squares' defaults


@dataclass(frozen=True)
class CurveFit:
    """Best-fit parameters, their covariance, and the solver's effort.

    nfev counts the model evaluations of the trust-region steps and the
    starting point, not those of the finite differences, as scipy does.
    """

    popt: np.ndarray
    pcov: np.ndarray
    nfev: int


def _svd(a):
    """scipy.linalg.svd(a, full_matrices=False), bit for bit.

    Both call LAPACK's gesdd.  scipy checks that a is finite first, and
    returns u and vh in Fortran order: the products taken with them later
    run through BLAS, whose rounding depends on the memory order.
    """
    if not np.isfinite(a).all():
        raise FitError("array must not contain infs or NaNs")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise FitError(str(exc)) from exc
    return np.asfortranarray(u), s, np.asfortranarray(vh)


def curve_fit(f, xdata, ydata, p0, lower, max_nfev):
    """Fit f(xdata, *p) to ydata over p >= lower, as scipy's curve_fit does.

    Returns a CurveFit.  pcov is scaled by the residual variance, and is
    all infinite (with a RuntimeWarning) where it cannot be estimated.
    """
    try:
        ydata = np.asarray_chkfinite(ydata, float)
        xdata = np.asarray_chkfinite(xdata, float)
    except ValueError as exc:
        raise FitError(str(exc)) from exc
    x0 = np.atleast_1d(p0).astype(float)
    lb = np.asarray(lower, dtype=float)
    ub = np.full_like(lb, np.inf)
    if not _in_bounds(x0, lb, ub):
        raise FitError("Initial guess is outside of provided bounds")
    x0 = _strictly_feasible(x0, lb, ub, rstep=1e-10)

    def fun(params):
        return np.atleast_1d(f(xdata, *params) - ydata)

    f0 = fun(x0)
    J0 = _jacobian(fun, x0, f0, lb, ub)
    if not np.all(np.isfinite(f0)):
        raise FitError("Residuals are not finite in the initial point.")

    x, cost, J, nfev, status = _trf_bounds(fun, x0, f0, J0, lb, ub, max_nfev)
    if status == 0:
        raise FitError("Optimal parameters not found: The maximum number "
                       "of function evaluations is exceeded.")

    _, s, VT = _svd(J)
    threshold = EPS * max(J.shape) * s[0]
    s = s[s > threshold]
    VT = VT[:s.size]
    pcov = np.dot(VT.T / s**2, VT)
    m, n = J.shape
    if not np.isnan(pcov).any() and m > n:
        s_sq = 2 * cost / (m - n)
        pcov = pcov * s_sq
    else:
        pcov = np.full((n, n), np.inf)
        warnings.warn("Covariance of the parameters could not be estimated",
                      RuntimeWarning, stacklevel=2)
    return CurveFit(popt=x, pcov=pcov, nfev=nfev)


# ------------------------------------------------------ finite differences

def _jacobian(fun, x0, f0, lb, ub):
    """approx_derivative(fun, x0, '2-point', f0=f0, bounds=(lb, ub))."""
    sign_x0 = (x0 >= 0).astype(float) * 2 - 1
    h = EPS**0.5 * sign_x0 * np.maximum(1.0, np.abs(x0))

    # _adjust_scheme_to_bounds, one-sided scheme, one step
    h_adjusted = h.copy()
    lower_dist = x0 - lb
    upper_dist = ub - x0
    x = x0 + h
    violated = (x < lb) | (x > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h_adjusted[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h_adjusted[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h_adjusted[backward] = -lower_dist[backward]
    h = h_adjusted

    # _dense_difference
    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        dx = (x0[i] + h[i]) - x0[i]
        J_transposed[i] = (fun(x1) - f0) / dx
    return J_transposed.T


# ----------------------------------------------------------- trf_bounds

def _trf_bounds(fun, x0, f0, J0, lb, ub, max_nfev):
    """(x, cost, J, nfev, status) at the end of scipy's trf_bounds."""
    x = x0.copy()
    f = f0
    nfev = 1
    J = J0
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = _cl_scaling_vector(x, g, lb, ub)
    Delta = norm(x0 / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # "Levenberg-Marquardt" parameter
    termination_status = None

    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < TOL:
            termination_status = 1
        if termination_status is not None or nfev == max_nfev:
            break

        d = v**0.5
        diag_h = g * dv  # C = diag(g) Jv
        g_h = d * g  # "hat" gradient

        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]  # a view
        J_augmented[m:] = np.diag(diag_h**0.5)
        U, s, V = _svd(J_augmented)
        V = V.T
        uf = U.T.dot(f_augmented)

        # theta controls the step back from the bounds
        theta = max(0.995, 1 - g_norm)

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h  # the trust-region solution in the original space
            step, step_h, predicted_reduction = _select_step(
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)

            x_new = _strictly_feasible(x + step, lb, ub, rstep=0)
            f_new = fun(x_new)
            nfev += 1

            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction,
                step_h_norm, step_h_norm > 0.95 * Delta)

            step_norm = norm(step)
            termination_status = _check_termination(
                actual_reduction, cost, step_norm, norm(x), ratio)
            if termination_status is not None:
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = _jacobian(fun, x, f, lb, ub)
            g = J.T.dot(f)

    if termination_status is None:
        termination_status = 0
    return x, cost, J, nfev, termination_status


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """The best of the trust-region, reflected and Cauchy steps."""
    if _in_bounds(x + p, lb, ub):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)

    # the reflected direction
    r_h = np.copy(p_h)
    r_h[hits.astype(bool)] *= -1
    r = d * r_h

    # restrict the trust-region step so that it hits the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p

    # the reflected direction crosses the feasible region's or the trust
    # region's boundary first
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)

    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        if r_stride == to_bound:
            r_stride_u = theta * to_bound
        else:
            r_stride_u = to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1

    if r_stride_l <= r_stride_u:
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # make p_h strictly interior
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h
    ag = d * ag_h

    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    if to_bound < to_tr:
        ag_stride = theta * to_bound
    else:
        ag_stride = to_tr

    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


# ---------------------------------------------------- _lsq/common.py

def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha,
                            rtol=0.01, max_iter=10):
    """(p, alpha): More's algorithm on the SVD of the augmented Jacobian."""

    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf ** 2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf

    if m >= n:
        threshold = EPS * m * s[0]
        full_rank = s[-1] > threshold
    else:
        full_rank = False

    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta

    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0

    if initial_alpha is None or not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    else:
        alpha = initial_alpha

    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)

        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)

        if phi < 0:
            alpha_upper = alpha

        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta

        if np.abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # the Newton iterations end close to, not on, the boundary
    p *= Delta / norm(p)
    return p, alpha


def _intersect_trust_region(x, s, Delta):
    a = np.dot(s, s)
    if a == 0:
        raise FitError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise FitError("`x` is not within the trust region.")
    d = np.sqrt(b*b - a*c)  # the root of a fourth of the discriminant
    # the roots without loss of significance
    q = -(b + copysign(d, b))
    t1 = q / a
    t2 = c / q
    if t1 < t2:
        return t1, t2
    else:
        return t2, t1


def _update_tr_radius(Delta, actual_reduction, predicted_reduction,
                      step_norm, bound_hit):
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0

    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """Coefficients of the quadratic model along s (from s0)."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5

    b = np.dot(g, s)

    if s0 is not None:
        u = J.dot(s0)
        b += np.dot(u, v)
        c = 0.5 * np.dot(u, u) + np.dot(g, s0)
        b += np.dot(s0 * diag, s)
        c += 0.5 * np.dot(s0 * diag, s0)
        return a, b, c
    else:
        return a, b


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    l = np.dot(s, g)  # noqa: E741 (scipy's name)
    return 0.5 * q + l


def _in_bounds(x, lb, ub):
    return np.all((x >= lb) & (x <= ub))


def _step_size_to_bound(x, s, lb, ub):
    """The step along s to the nearest bound, and which bounds it hits."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over='ignore'):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _strictly_feasible(x, lb, ub, rstep):
    """make_strictly_feasible, with find_active_constraints inlined."""
    x_new = x.copy()

    active = np.zeros_like(x, dtype=int)
    if rstep == 0:
        active[x <= lb] = -1
        active[x >= ub] = 1
    else:
        lower_dist = x - lb
        upper_dist = ub - x
        lower_threshold = rstep * np.maximum(1, np.abs(lb))
        upper_threshold = rstep * np.maximum(1, np.abs(ub))
        active[np.isfinite(lb)
               & (lower_dist <= np.minimum(upper_dist, lower_threshold))] = -1
        active[np.isfinite(ub)
               & (upper_dist <= np.minimum(lower_dist, upper_threshold))] = 1
    lower_mask = np.equal(active, -1)
    upper_mask = np.equal(active, 1)

    if rstep == 0:
        x_new[lower_mask] = np.nextafter(lb[lower_mask], ub[lower_mask])
        x_new[upper_mask] = np.nextafter(ub[upper_mask], lb[upper_mask])
    else:
        x_new[lower_mask] = (lb[lower_mask] +
                             rstep * np.maximum(1, np.abs(lb[lower_mask])))
        x_new[upper_mask] = (ub[upper_mask] -
                             rstep * np.maximum(1, np.abs(ub[upper_mask])))

    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    """Coleman-Li scaling v and its derivative dv."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)

    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1

    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _check_termination(dF, F, dx_norm, x_norm, ratio):
    ftol_satisfied = dF < TOL * F and ratio > 0.25
    xtol_satisfied = dx_norm < TOL * (TOL + x_norm)

    if ftol_satisfied and xtol_satisfied:
        return 4
    elif ftol_satisfied:
        return 2
    elif xtol_satisfied:
        return 3
    else:
        return None

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
factors of ``x_scale`` 1, which multiply exactly, are dropped.  So is
the upper bound: with ``ub`` = +inf every term that reads it is constant
(no step meets it, and its masks are empty), and what is left computes
the same floats.  scipy's termination statuses 1-4 become one
``converged`` flag, since ``curve_fit`` only tells status 0 apart.
Where scipy raises ``ValueError`` or ``RuntimeError``, this raises
``FitError``.
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
    if not np.all(x0 >= lb):
        raise FitError("Initial guess is outside of provided bounds")
    x0 = _strictly_feasible(x0, lb, rstep=1e-10)

    def fun(params):
        return np.atleast_1d(f(xdata, *params) - ydata)

    f0 = fun(x0)
    J0 = _jacobian(fun, x0, f0, lb)
    if not np.all(np.isfinite(f0)):
        raise FitError("Residuals are not finite in the initial point.")

    x, cost, J, nfev, converged = _trf_bounds(fun, x0, f0, J0, lb, max_nfev)
    if not converged:
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

def _jacobian(fun, x0, f0, lb):
    """approx_derivative(fun, x0, '2-point', f0=f0, bounds=(lb, inf))."""
    sign_x0 = (x0 >= 0).astype(float) * 2 - 1
    h = EPS**0.5 * sign_x0 * np.maximum(1.0, np.abs(x0))

    # _adjust_scheme_to_bounds, one-sided scheme, one step: with no upper
    # bound every step fits, so a step below lb is flipped
    h = np.where(x0 + h < lb, -h, h)

    # _dense_difference
    J_transposed = np.empty((x0.size, f0.size))
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        dx = (x0[i] + h[i]) - x0[i]
        J_transposed[i] = (fun(x1) - f0) / dx
    return J_transposed.T


# ----------------------------------------------------------- trf_bounds

def _trf_bounds(fun, x0, f0, J0, lb, max_nfev):
    """(x, cost, J, nfev, converged) at the end of scipy's trf_bounds."""
    x = x0.copy()
    f = f0
    nfev = 1
    J = J0
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)

    v, dv = _cl_scaling_vector(x, g, lb)
    Delta = norm(x0 / v**0.5)
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    alpha = 0.0  # "Levenberg-Marquardt" parameter
    converged = False

    while True:
        v, dv = _cl_scaling_vector(x, g, lb)
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < TOL:
            converged = True
        if converged or nfev == max_nfev:
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
                x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta)

            x_new = _strictly_feasible(x + step, lb, rstep=0)
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
            converged = _check_termination(
                actual_reduction, cost, step_norm, norm(x), ratio)
            if converged:
                break

            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x = x_new
            f = f_new
            cost = cost_new
            J = _jacobian(fun, x, f, lb)
            g = J.T.dot(f)

    return x, cost, J, nfev, converged


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, theta):
    """The best of the trust-region, reflected and Cauchy steps."""
    if np.all(x + p >= lb):
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb)

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
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb)

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
    to_bound, _ = _step_size_to_bound(x, ag, lb)
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

    if not full_rank and initial_alpha == 0:
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


def _step_size_to_bound(x, s, lb):
    """The step along s to the nearest bound, and which bounds it hits.

    Only a component with s < 0 can meet its bound; every other one has
    scipy's max((lb - x)/s, (inf - x)/s) = inf.
    """
    steps = np.full_like(x, np.inf)
    falling = s < 0
    with np.errstate(over='ignore'):
        steps[falling] = (lb - x)[falling] / s[falling]
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _strictly_feasible(x, lb, rstep):
    """make_strictly_feasible, with find_active_constraints inlined."""
    x_new = x.copy()
    if rstep == 0:
        active = x <= lb
        x_new[active] = np.nextafter(lb[active], np.inf)
    else:
        threshold = rstep * np.maximum(1, np.abs(lb))
        active = np.isfinite(lb) & (x - lb <= threshold)
        x_new[active] = lb[active] + threshold[active]
    return x_new


def _cl_scaling_vector(x, g, lb):
    """Coleman-Li scaling v and its derivative dv."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv


def _check_termination(dF, F, dx_norm, x_norm, ratio):
    """Whether the ftol or the xtol test is met."""
    return (dF < TOL * F and ratio > 0.25) or dx_norm < TOL * (TOL + x_norm)

"""Nelder–Mead simplex minimization without importing scipy.

``nelder_mead`` is the downhill simplex method (J. A. Nelder and R.
Mead, *The Computer Journal* 7, 308 (1965)) as written in scipy's
``_minimize_neldermead`` (``scipy/optimize/_optimize.py``, scipy 1.17.1;
BSD 3-Clause licence, copyright the SciPy developers).  It is ported
statement for statement on the path without bounds, adaptive
parameters, an initial simplex or a callback: it evaluates f at the
same points, in the same order, and returns the same x, fun, nit, nfev
and final simplex as ``scipy.optimize.minimize(method="Nelder-Mead")``
with the same options.
"""

from dataclasses import dataclass

import numpy as np

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5  # reflect, expand, contract, shrink
NONZDELT, ZDELT = 0.05, 0.00025  # first steps: relative, and at a zero coordinate


class _MaxFev(Exception):
    """An evaluation asked for once maxfev evaluations are spent."""


@dataclass(frozen=True)
class SimplexResult:
    x: np.ndarray  # best vertex
    fun: float  # f at x
    nit: int
    nfev: int
    final_simplex: tuple  # (vertices, f values), sorted by f


def nelder_mead(fun, x0, xatol, fatol, maxiter, maxfev):
    """Minimize fun from x0 by the downhill simplex.

    Stops when every vertex is within xatol of the best one in each
    coordinate and every f value within fatol of the best, or after
    maxiter iterations or maxfev evaluations of fun, whichever comes
    first.  An evaluation past maxfev abandons its iteration, as
    scipy's does.  fun gets a copy of each point.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).flatten()
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + NONZDELT) * y[k]
        else:
            y[k] = ZDELT
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun(np.copy(x))

    try:
        for k in range(N + 1):
            fsim[k] = func(sim[k])
    except _MaxFev:
        pass
    finally:
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    ind = np.argsort(fsim)
    fsim = np.take(fsim, ind, 0)
    sim = np.take(sim, ind, 0)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol and
                    np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = (1 + RHO) * xbar - RHO * sim[-1]
            fxr = func(xr)
            doshrink = 0
            if fxr < fsim[0]:
                xe = (1 + RHO * CHI) * xbar - RHO * CHI * sim[-1]
                fxe = func(xe)
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
            elif fxr < fsim[-2]:
                sim[-1] = xr
                fsim[-1] = fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + PSI * RHO) * xbar - PSI * RHO * sim[-1]
                    fxc = func(xc)
                    if fxc <= fxr:
                        sim[-1] = xc
                        fsim[-1] = fxc
                    else:
                        doshrink = 1
                else:  # inside contraction
                    xcc = (1 - PSI) * xbar + PSI * sim[-1]
                    fxcc = func(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1] = xcc
                        fsim[-1] = fxcc
                    else:
                        doshrink = 1
                if doshrink:
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + SIGMA * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
            iterations += 1
        except _MaxFev:
            pass
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    return SimplexResult(x=sim[0], fun=np.min(fsim), nit=iterations, nfev=nfev,
                         final_simplex=(sim, fsim))

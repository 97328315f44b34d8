"""Bracketed scalar root finding without importing scipy.

``brentq`` is Brent's method (R. P. Brent, *Algorithms for Minimization
Without Derivatives*, Prentice-Hall 1973, ch. 4) as written in scipy's
``scipy/optimize/Zeros/brentq.c`` (BSD 3-Clause licence, copyright
Enthought, Inc. and the SciPy developers).  It is ported statement for
statement: it evaluates f at the same points, in the same order, and
returns the same float as ``scipy.optimize.brentq`` with the same
tolerances.
"""

import math

from .errors import FitError


def _div(num, den):
    # C's division: a zero denominator gives an infinity or NaN, not an error
    if den != 0.0:
        return num / den
    if num == 0.0 or math.isnan(num):
        return math.nan
    return math.copysign(math.inf, num) * math.copysign(1.0, den)


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Each step tries inverse quadratic interpolation (the secant step
    when only two points are known) and falls back to bisection when
    the step would not shrink the bracket fast enough.  Stops when half
    the bracket is below delta = (xtol + rtol |x|) / 2, then returns the
    end with the smaller |f|.  Raises FitError on a NaN value of f, on
    ends of the same sign, and when maxiter steps do not converge.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise FitError(f"the function value at x={x!r} is NaN")
        return fx

    def opposite(fa, fb):
        return math.copysign(1.0, fa) != math.copysign(1.0, fb)

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not opposite(fpre, fcur):
        raise FitError(f"f(a) and f(b) must have different signs, got {fpre!r} "
                       f"and {fcur!r}")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and opposite(fpre, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:  # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise FitError(f"no root within {maxiter} iterations; last iterate {xcur!r}")

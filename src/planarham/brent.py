"""Brent's root finder (Brent 1973, ch. 4).

:func:`brent_root` takes the floating-point steps of
``scipy.optimize.brentq``, so it returns the same floats.
"""

import contextlib
import math
import sys

RTOL = 4 * sys.float_info.epsilon


def brent_root(f, a: float, b: float, xtol: float = 2e-12, maxiter: int = 100) -> float:
    """A root of f in [a, b] to within ``xtol + RTOL * |x|``.  Raises
    ValueError when f(a) and f(b) have the same sign or f returns NaN,
    and RuntimeError after ``maxiter`` iterations."""
    def call(x: float) -> float:
        if math.isnan(fx := f(x)):
            raise ValueError(f"f({x}) is NaN; the root search cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf                         # no short step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                    # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                               # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                # scipy's C code divides by zero to inf or NaN: no short step
                with contextlib.suppress(ZeroDivisionError):
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"no root found in {maxiter} iterations; the last iterate is {xcur}")

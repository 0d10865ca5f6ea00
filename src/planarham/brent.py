"""Brent's root finder and bounded minimiser (Brent 1973, ch. 4 and 5).

Each takes the floating-point steps of its scipy counterpart, so both
return the same floats: :func:`brent_root` those of
``scipy.optimize.brentq``, :func:`brent_minimum` those of
``minimize_scalar(method="bounded")``.
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


def brent_minimum(f, a: float, b: float, xatol: float = 1e-5,
                  maxiter: int = 500) -> tuple[float, float]:
    """``(x, f(x))``: a local minimum of f on [a, b] to within about
    xatol, or the best point after ``maxiter`` evaluations of f."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = f(xf)
    rat = e = 0.0
    for _ in range(max(maxiter - 1, 1)):        # one evaluation per pass
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:                       # try a parabola through three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = f(x)
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf, fx

"""Brent's root finder against scipy's, bit for bit."""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from planarham.brent import brent_root

coefficient = st.floats(-10.0, 10.0, allow_nan=False)
point = st.floats(-3.0, 3.0, allow_nan=False)


def _bits(x) -> bytes:
    return struct.pack("<d", float(x))


@st.composite
def functions(draw):
    """A polynomial, by its coefficients or its roots, that is inf above a
    cut or on a gap when one is drawn, with a description for failures."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(coefficient, min_size=1, max_size=7))
    else:
        roots = draw(st.lists(point, min_size=1, max_size=5))
        coeffs = [float(c) for c in draw(coefficient) * np.poly(roots)]
    cut = draw(st.none() | point)
    gap = draw(st.none() | st.tuples(point, st.floats(0.0, 0.5)))

    def f(x):
        if cut is not None and x > cut:
            return math.inf
        if gap is not None and gap[0] <= x <= gap[0] + gap[1]:
            return math.inf
        v = 0.0
        for c in coeffs:                # Horner: the same float ops for any x type
            v = v * x + c
        return v

    return f, (coeffs, cut, gap)


def _outcome(solve):
    try:
        return "root", _bits(solve())
    except (ValueError, RuntimeError) as exc:
        return "raise", type(exc)


@settings(max_examples=400, deadline=None)
@given(functions(), point, point, st.sampled_from([1e-15, 2e-12, 1e-6]),
       st.sampled_from([3, 100, 200]))
def test_brent_root_is_brentq(fn, a, b, xtol, maxiter):
    f, _ = fn
    ours = _outcome(lambda: brent_root(f, a, b, xtol=xtol, maxiter=maxiter))
    with np.errstate(all="ignore"):
        theirs = _outcome(lambda: brentq(f, a, b, xtol=xtol, maxiter=maxiter))
    assert ours == theirs


def test_brent_root_raises_on_nan_and_on_no_sign_change():
    for solve in (brent_root, brentq):
        for f in (lambda x: math.nan, lambda x: x * x + 1.0):
            try:
                solve(f, -1.0, 1.0)
            except ValueError:
                continue
            raise AssertionError(f"{solve.__name__} accepted a bad bracket")

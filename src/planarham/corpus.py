"""Built-in example maps, written as map-spec texts.

The first three are the classic fixtures exercised throughout the test
suite; ``identity`` and ``control_noninjective`` are trivial and
negative controls.  ``pinchuk200`` is the Pinchuk polynomial map (the
standard counterexample to the real Jacobian conjecture: det Df > 0
everywhere yet f is not injective) with its second component shifted by
-200; it is gated behind an explicit opt-in because its analysis runs
minutes, not seconds.  Every builtin is built by
:func:`~planarham.field.parse_map_spec`, so it passes the same load
checks as a map file.  Pinchuk's known facts live here too: the zeros,
the exceptional curve, and its fibers, which :func:`pinchuk_fiber`
solves exactly with the generic :func:`~planarham.centers.fiber`.
"""

from __future__ import annotations

from fractions import Fraction

from .centers import fiber, fiber_resultant
from .field import Box, PlanarMap, parse_map_spec

# Pinchuk's map (p, q) = (f + h, _Q) through its shared parts; the
# compiled jet numbers equal subtrees once, so each is evaluated once:
#   t = x*y - 1,  h = t*(x*t + 1),  f = (x*t + 1)^2 * (t^2 + y)
_T = "(x*y - 1)"
_H = f"({_T}*(x*{_T} + 1))"
_F = f"((x*{_T} + 1)^2*({_T}^2 + y))"
_Q = (f"-{_T}^2 - 6*{_T}*{_H}*({_H} + 1) - 170*{_F}*{_H} - 91*{_H}^2"
      f" - 195*{_F}*{_H}^2 - 69*{_H}^3 - 75*{_F}*{_H}^3 - 18.75*{_H}^4")

_SPECS = {
    "example1": '''
f1 = "exp(x) - 1"
f2 = "y"
''',
    "example2": '''
f1 = "x/sqrt(1 + x^2)"
f2 = "(x^2 + (1 + x^2)^2*y)/sqrt(1 + x^2)"
hamiltonian = "0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2"
''',
    "example3": '''
f1 = "exp(x)*cos(y) - 1"
f2 = "exp(x)*sin(y)"
''',
    "identity": '''
f1 = "x"
f2 = "y"
''',
    "control_noninjective": '''
f1 = "x^2"
f2 = "y"
''',
    "pinchuk200": f'''
f1 = "{_F} + {_H}"
f2 = "{_Q} - 200"
# deep in -y so moderate orbits (whose tails hug x*(x*y - 1) = -1)
# stay inside the working window instead of reading as escapes
domain = "box(-2600, 20, -5e6, 20)"
''',
}

BUILTIN_NAMES = tuple(_SPECS)

EXTENDED_NAMES = ("pinchuk200",)


class ExtendedGateError(ValueError):
    """Raised for extended fixtures unless explicitly enabled."""


# Exceptional image curve of the unshifted Pinchuk map, parametrized by s.
def pinchuk_curve(s: float) -> tuple[float, float]:
    ps = s * s - 1.0
    qs = -75.0 * s**5 + 86.25 * s**4 - 29.0 * s**3 + 58.5 * s**2 - 40.75
    return ps, qs


# Zeros of the shifted map, polished to full double precision and
# confirmed by exact rational residual checks.  The first sits on a
# long flat valley (Jacobian condition number ~9e13 there), which is
# why generic grid-seeded Newton never lands on it.
PINCHUK_ZEROS = (
    (-2532.442447630816, -0.0003838953061841223),
    (-0.22922839788848523, -16.99370700917979),
)

# Window containing both zeros of the shifted map; see PINCHUK_ZEROS.
PINCHUK_SEARCH_BOX = Box(-2600.0, 20.0, -20.0, 5.0)


def _eliminant_coeffs(w1: float, w2: float) -> list[Fraction]:
    """[A_0 .. A_6]: the :func:`~planarham.centers.fiber_resultant` of the
    shifted map at (w1, w2) is x^54 * sum_k A_k x^k.  A_6 vanishes exactly
    on the exceptional curve (:func:`pinchuk_curve`), where one preimage
    escapes to infinity; A_0 on the image of the line x = 0, where
    p(0, y) = y and q(0, y) = 50 y + 33/4."""
    coeffs = fiber_resultant(_build("pinchuk200"), (w1, w2))[54:]
    return coeffs + [Fraction(0)] * (7 - len(coeffs))


def pinchuk_fiber(target: tuple[float, float]) -> tuple[tuple[float, float], ...]:
    """All real preimages of ``target`` under pinchuk200, by
    :func:`~planarham.centers.fiber`: grid-seeded search is hopeless here,
    the basins of the two zeros being slivers.  Trustworthy for |target|
    up to about 1500 (the annulus disc plus the sampled exceptional
    curve); far beyond, the second preimage of a generic target sinks so
    deep along the tail (|y| > 1e14) that the count may come up short."""
    return fiber(_build("pinchuk200"), target)


def _build(name: str) -> PlanarMap:
    return parse_map_spec(_SPECS[name], f"builtin:{name}", name)


def builtin(name: str, enable_extended: bool = False) -> PlanarMap:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    if name in EXTENDED_NAMES and not enable_extended:
        raise ExtendedGateError(
            f"builtin {name!r} is an extended fixture; pass --enable-extended to use it")
    return _build(name)


def builtin_corpus(enable_extended: bool = False) -> list[PlanarMap]:
    return [_build(n) for n in BUILTIN_NAMES if enable_extended or n not in EXTENDED_NAMES]

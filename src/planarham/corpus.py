"""Built-in example maps.

The first three are the classic fixtures exercised throughout the test
suite; ``identity`` and ``control_noninjective`` are trivial and
negative controls.  ``pinchuk200`` is the Pinchuk polynomial map (the
standard counterexample to the real Jacobian conjecture: det Df > 0
everywhere yet f is not injective) with its second component shifted by
-200; it is gated behind an explicit opt-in because its analysis runs
minutes, not seconds.  Its known facts live here too: the zeros, the
exceptional curve, and its fibers, which :func:`pinchuk_fiber` solves
exactly with the generic :func:`~planarham.centers.fiber`.
"""

from __future__ import annotations

from fractions import Fraction

from .centers import fiber, fiber_resultant
from .expr import Binary, Constant, Expr, Unary, Variable, parse_expr, powi, to_poly
from .field import Box, PlanarMap

BUILTIN_NAMES = (
    "example1",
    "example2",
    "example3",
    "identity",
    "control_noninjective",
    "pinchuk200",
)

EXTENDED_NAMES = ("pinchuk200",)


class ExtendedGateError(ValueError):
    """Raised for extended fixtures unless explicitly enabled."""


def _mul(*factors: Expr) -> Expr:
    out = factors[0]
    for e in factors[1:]:
        out = Binary("mul", out, e)
    return out


def _pinchuk_components() -> tuple[Expr, Expr]:
    """The Pinchuk map (p, q), second component shifted by -200.

    Built as shared subtrees t, h, f so the compiled jet evaluates each
    once:

        t = x*y - 1
        h = t*(x*t + 1)
        f = (x*t + 1)^2 * (t^2 + y)
        p = f + h
        q = -t^2 - 6*t*h*(h+1) - 170*f*h - 91*h^2 - 195*f*h^2
            - 69*h^3 - 75*f*h^3 - (75/4)*h^4
    """
    x, y = Variable("x"), Variable("y")
    one = Constant(1.0)
    t = Binary("sub", _mul(x, y), one)
    xt1 = Binary("add", _mul(x, t), one)
    h = _mul(t, xt1)
    f = _mul(powi(xt1, 2), Binary("add", powi(t, 2), y))
    p = Binary("add", f, h)

    def c(v: float) -> Constant:
        return Constant(float(v))

    q: Expr = Unary("neg", powi(t, 2))
    for term in (
        _mul(c(6), t, h, Binary("add", h, one)),
        _mul(c(170), f, h),
        _mul(c(91), powi(h, 2)),
        _mul(c(195), f, powi(h, 2)),
        _mul(c(69), powi(h, 3)),
        _mul(c(75), f, powi(h, 3)),
        _mul(c(18.75), powi(h, 4)),
    ):
        q = Binary("sub", q, term)
    return p, Binary("sub", q, c(200.0))


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
    if name == "example1":
        return PlanarMap(
            f1=parse_expr("exp(x) - 1"),
            f2=parse_expr("y"),
            name="example1",
        )
    if name == "example2":
        declared = to_poly(parse_expr(
            "0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2"))
        assert declared is not None
        return PlanarMap(
            f1=parse_expr("x/sqrt(1 + x^2)"),
            f2=parse_expr("(x^2 + (1 + x^2)^2*y)/sqrt(1 + x^2)"),
            declared_hamiltonian=declared,
            name="example2",
        )
    if name == "example3":
        return PlanarMap(
            f1=parse_expr("exp(x)*cos(y) - 1"),
            f2=parse_expr("exp(x)*sin(y)"),
            name="example3",
        )
    if name == "identity":
        return PlanarMap(f1=parse_expr("x"), f2=parse_expr("y"), name="identity")
    if name == "control_noninjective":
        return PlanarMap(f1=parse_expr("x^2"), f2=parse_expr("y"),
                         name="control_noninjective")
    if name == "pinchuk200":
        p, q200 = _pinchuk_components()
        # deep in -y so moderate orbits (whose tails hug x*(x*y - 1) = -1)
        # stay inside the working window instead of reading as escapes
        return PlanarMap(f1=p, f2=q200, domain=Box(-2600.0, 20.0, -5.0e6, 20.0),
                         name="pinchuk200")
    raise KeyError(name)


def builtin(name: str, enable_extended: bool = False) -> PlanarMap:
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    if name in EXTENDED_NAMES and not enable_extended:
        raise ExtendedGateError(
            f"builtin {name!r} is an extended fixture; pass --enable-extended to use it")
    return _build(name)


def builtin_corpus(enable_extended: bool = False) -> list[PlanarMap]:
    names = [n for n in BUILTIN_NAMES if enable_extended or n not in EXTENDED_NAMES]
    return [_build(n) for n in names]

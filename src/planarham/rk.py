"""Embedded Dormand-Prince 5(4) step for planar autonomous systems.

Specialised to two scalar state variables (plain floats, no arrays):
orbit tracing spends nearly all its time here and tuple-of-float
arithmetic is several times faster than tiny numpy vectors.  The first
stage reuses the last stage of the previous accepted step (FSAL).

Each field gets its own step function, a *kernel*, generated as one
straight-line Python function: the field's body (from the expression
code generator) inlined at each of the six stage points, the tableau
constants as literals, and the scaled error norm.  A call per stage, a
tuple per stage and a separate error-norm call would otherwise cost more
than the arithmetic.  The stage and error expressions keep the operand
order of the textbook loop, so every float operation, and with it every
result bit, is what a stage-by-stage step computes.

Two kernels exist: :func:`orbit_kernel` for the Hamiltonian field of a
map (used by orbit tracing), and :func:`poly_kernel` for a polynomial
field run in either time direction (the chart fields of the
compactification and the disc portrait).

The drivers call each trial step through :func:`dp5_step`, not the
kernel directly: one call per trial step, looked up in the driver's
module, is where a step counter or a test can attach per driver.
"""

from __future__ import annotations

from typing import Callable

from .expr import Expr, Poly2, _compile_source, _emit

# Butcher tableau, Dormand & Prince RK5(4)7M
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
# fifth-order minus embedded fourth-order weights
E1, E3, E4, E5, E6, E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                          -17253 / 339200, 22 / 525, -1 / 40)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0

# the tableau as the kernel source spells it; repr round-trips exactly
_LITERALS = {name: repr(value) for name, value in globals().items()
             if name[:1] in "ABE" and name[1:].isdigit()}

# coordinate {c} of the points of stages 2..6, of the fifth-order
# solution and of the embedded error estimate
_STAGE_POINTS = (
    "{c} + h * {A21} * k1{c}",
    "{c} + h * ({A31} * k1{c} + {A32} * k2{c})",
    "{c} + h * ({A41} * k1{c} + {A42} * k2{c} + {A43} * k3{c})",
    "{c} + h * ({A51} * k1{c} + {A52} * k2{c} + {A53} * k3{c} + {A54} * k4{c})",
    "{c} + h * ({A61} * k1{c} + {A62} * k2{c} + {A63} * k3{c} + {A64} * k4{c}"
    " + {A65} * k5{c})",
)
_FIFTH_ORDER = ("{c} + h * ({B1} * k1{c} + {B3} * k3{c} + {B4} * k4{c} + {B5} * k5{c}"
                " + {B6} * k6{c})")
_ERROR = ("h * ({E1} * k1{c} + {E3} * k3{c} + {E4} * k4{c} + {E5} * k5{c}"
          " + {E6} * k6{c} + {E7} * k7{c})")


def _spell(template: str, c: str) -> str:
    return template.format(c=c, **_LITERALS)


def _kernel_source(params: str, body: list[str], kx: str, ky: str,
                   guard: bool, returns: str) -> str:
    """Source of ``_generated(x, y, k1x, k1y, h, rtol, atol{params})``.

    ``body`` evaluates the field at the stage point ``(sx, sy)``; ``kx``
    and ``ky`` are the field's components in terms of the body's
    operands.  With ``guard`` a failing body raises
    ``_locate(sx, sy, exc)`` for the raw error ``exc`` in ``_ERRORS``.
    The function returns ``x5, y5, enorm, k7x, k7y`` and ``returns``.
    """
    out = [f"def _generated(x, y, k1x, k1y, h, rtol, atol{params}):"]

    def stage(k: int) -> None:
        if guard and body:
            out.append("    try:")
            out.extend(f"        {line}" for line in body)
            out.append("    except _ERRORS as exc:")
            out.append("        raise _locate(sx, sy, exc) from None")
        else:
            out.extend(f"    {line}" for line in body)
        out.append(f"    k{k}x = {kx}")
        out.append(f"    k{k}y = {ky}")

    for k, point in enumerate(_STAGE_POINTS, start=2):
        out.append(f"    sx = {_spell(point, 'x')}")
        out.append(f"    sy = {_spell(point, 'y')}")
        stage(k)
    out.append(f"    x5 = {_spell(_FIFTH_ORDER, 'x')}")
    out.append(f"    y5 = {_spell(_FIFTH_ORDER, 'y')}")
    out.append("    sx = x5")
    out.append("    sy = y5")
    stage(7)
    # the scaled RMS error; `b if b > a else a` is max(a, b), NaNs included
    for c in "xy":
        out.append(f"    e{c} = {_spell(_ERROR, c)}")
        out.append(f"    a{c} = abs({c})")
        out.append(f"    b{c} = abs({c}5)")
        out.append(f"    r{c} = e{c} / (atol + rtol * (b{c} if b{c} > a{c} else a{c}))")
    out.append("    enorm = sqrt(0.5 * (rx * rx + ry * ry))")
    out.append(f"    return x5, y5, enorm, k7x, k7y{returns}")
    return "\n".join(out) + "\n"


def orbit_kernel(f1: Expr, f2: Expr, errors: tuple[type[BaseException], ...],
                 locate: Callable[[float, float, BaseException], BaseException]):
    """The DP5 step of the Hamiltonian field (-H_y, H_x) of f = (f1, f2).

    ``kernel(x, y, k1x, k1y, h, rtol, atol)`` returns
    ``(x5, y5, enorm, k7x, k7y, jet)``: the fifth-order point, the scaled
    error norm (a step is acceptable when it is <= 1), the field there
    and the jet ``(v1, dx1, dy1, v2, dx2, dy2)`` of f there.  A stage
    whose evaluation raises one of ``errors`` raises
    ``locate(sx, sy, exc)`` instead, at the stage point.
    """
    body, ((v1, dx1, dy1), (v2, dx2, dy2)) = _emit((f1, f2), inputs=("sx", "sy"))
    # operands are names or float literals, which bind tighter than `*`
    src = _kernel_source("", body,
                         kx=f"-({v1} * {dy1} + {v2} * {dy2})",
                         ky=f"{v1} * {dx1} + {v2} * {dx2}",
                         guard=True,
                         returns=f", ({v1}, {dx1}, {dy1}, {v2}, {dx2}, {dy2})")
    return _compile_source(src, _ERRORS=errors, _locate=locate)


def poly_kernel(p: Poly2, q: Poly2):
    """The DP5 step of the polynomial field (p, q) scaled by a direction.

    ``kernel(x, y, k1x, k1y, h, rtol, atol, direction)`` steps the field
    ``direction * (p, q)`` and returns ``(x5, y5, enorm, k7x, k7y)``.
    Evaluation errors (``**`` overflowing) come through raw.  Nothing is
    cached: compile where the field is used and keep the kernel for the
    run.
    """
    body, ((pv, _, _), (qv, _, _)) = _emit((p.to_expr(), q.to_expr()), values_only=True,
                                           inputs=("sx", "sy"))
    src = _kernel_source(", direction", body, kx=f"direction * {pv}",
                         ky=f"direction * {qv}", guard=False, returns="")
    return _compile_source(src)


def dp5_step(kernel, x: float, y: float, k1x: float, k1y: float, h: float, *args):
    """One trial step from (x, y) with k1 = (k1x, k1y) already evaluated.

    ``args`` are the rest of the kernel's parameters (the tolerances, and
    a polynomial field's direction).  Returns what the kernel returns,
    starting ``x5, y5, enorm, k7x, k7y``; k7 is the field at the new
    point, valid as the next step's k1 only if the step is accepted.
    """
    return kernel(x, y, k1x, k1y, h, *args)


def step_factor(enorm: float) -> float:
    """Step-size multiplier from the scaled error (fifth-order formula)."""
    if enorm == 0.0:
        return MAX_FACTOR
    return min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * enorm ** -0.2))

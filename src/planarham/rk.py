"""Embedded Dormand-Prince 5(4) step for small autonomous systems.

Specialised to two or three scalar state variables (plain floats, no
arrays): orbit tracing spends nearly all its time here and tuple-of-float
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

Two kernels exist, both generated from the jet of a map f:
:func:`orbit_kernel` for the lift of f's image circle, stepped in the
image angle with the elapsed time as a third coordinate (used by orbit
tracing), and :func:`flow_kernel` for the Hamiltonian field of
H = |f|^2 / 2 run in either time direction (the disc portrait's flow,
its only user).

The drivers call each trial step through :func:`dp5_step`, not the
kernel directly: one call per trial step, looked up in the driver's
module, is where a step counter or a test can attach per driver.
"""

from __future__ import annotations

from typing import Callable

from .expr import Expr, _compile_source, _emit

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


def _kernel_source(state: str, params: str, body: list[str], field: dict[str, str],
                   guard: bool, returns: str) -> str:
    """Source of ``_generated(*state, *k1, h, rtol, atol{params})``.

    ``state`` names the coordinates, ``"xy"`` or ``"xyT"``; ``body``
    evaluates the field at the stage point ``(sx, sy)``, so a third
    coordinate is a quadrature whose rate does not depend on it.
    ``field`` spells each coordinate's rate in terms of the body's
    operands.  With ``guard`` a failing body raises
    ``_locate(sx, sy, exc)`` for the raw error ``exc`` in ``_ERRORS``.
    The function returns the fifth-order state, the scaled RMS error
    norm, the field there (k7) and ``returns``.
    """
    ks = ", ".join(f"k1{c}" for c in state)
    out = [f"def _generated({', '.join(state)}, {ks}, h, rtol, atol{params}):"]

    def stage(k: int) -> None:
        if guard and body:
            out.append("    try:")
            out.extend(f"        {line}" for line in body)
            out.append("    except _ERRORS as exc:")
            out.append("        raise _locate(sx, sy, exc) from None")
        else:
            out.extend(f"    {line}" for line in body)
        out.extend(f"    k{k}{c} = {field[c]}" for c in state)

    for k, point in enumerate(_STAGE_POINTS, start=2):
        out.append(f"    sx = {_spell(point, 'x')}")
        out.append(f"    sy = {_spell(point, 'y')}")
        stage(k)
    out.extend(f"    {c}5 = {_spell(_FIFTH_ORDER, c)}" for c in state)
    out.append("    sx = x5")
    out.append("    sy = y5")
    stage(7)
    # the scaled RMS error; `b if b > a else a` is max(a, b), NaNs included
    for c in state:
        out.append(f"    e{c} = {_spell(_ERROR, c)}")
        out.append(f"    a{c} = abs({c})")
        out.append(f"    b{c} = abs({c}5)")
        out.append(f"    r{c} = e{c} / (atol + rtol * (b{c} if b{c} > a{c} else a{c}))")
    squares = " + ".join(f"r{c} * r{c}" for c in state)
    out.append(f"    enorm = sqrt(({squares}) / {len(state)})")
    fifth = ", ".join(f"{c}5" for c in state)
    k7 = ", ".join(f"k7{c}" for c in state)
    out.append(f"    return {fifth}, enorm, {k7}{returns}")
    return "\n".join(out) + "\n"


def orbit_kernel(f1: Expr, f2: Expr, errors: tuple[type[BaseException], ...],
                 locate: Callable[[float, float, BaseException], BaseException]):
    """The DP5 step, in the image angle theta, of the lift of f = (f1, f2).

    Along an orbit of the Hamiltonian field (-H_y, H_x) of
    H = |f|^2 / 2, theta = arg f grows at rate det Df, so with theta as
    the parameter the orbit and its elapsed time t solve
    (x, y, t)' = (-H_y, H_x, 1) / det Df; the (x, y) part is
    Df^-1 J f, the lift of the image circle.

    ``kernel(x, y, t, k1x, k1y, k1t, h, rtol, atol)`` returns
    ``(x5, y5, t5, enorm, k7x, k7y, k7t, jet)``: the fifth-order state,
    the scaled error norm over all three coordinates (a step is
    acceptable when it is <= 1), the field there and the jet
    ``(v1, dx1, dy1, v2, dx2, dy2)`` of f there.  A stage whose
    evaluation raises one of ``errors``, or meets det Df = 0, raises
    ``locate(sx, sy, exc)`` instead, at the stage point.
    """
    body, ((v1, dx1, dy1), (v2, dx2, dy2)) = _emit((f1, f2), inputs=("sx", "sy"))
    # operands are names or float literals, which bind tighter than `*`
    body.append(f"idet = 1.0 / ({dx1} * {dy2} - {dx2} * {dy1})")
    # the time is T in the source: the body's temporaries are t0, t1, ...
    src = _kernel_source("xyT", "", body,
                         {"x": f"-({v1} * {dy1} + {v2} * {dy2}) * idet",
                          "y": f"({v1} * {dx1} + {v2} * {dx2}) * idet",
                          "T": "idet"},
                         guard=True,
                         returns=f", ({v1}, {dx1}, {dy1}, {v2}, {dx2}, {dy2})")
    return _compile_source(src, _ERRORS=errors, _locate=locate)


def flow_kernel(f1: Expr, f2: Expr):
    """The DP5 step of the Hamiltonian field (-H_y, H_x) of
    H = |f|^2 / 2, read off the jet of f = (f1, f2), scaled by a
    direction.

    ``kernel(x, y, k1x, k1y, h, rtol, atol, direction)`` steps the field
    ``direction * (-(v1 dy1 + v2 dy2), v1 dx1 + v2 dx2)`` and returns
    ``(x5, y5, enorm, k7x, k7y)``.  Evaluation errors come through raw.
    Nothing is cached: compile where the field is used and keep the
    kernel for the run.
    """
    body, ((v1, dx1, dy1), (v2, dx2, dy2)) = _emit((f1, f2), inputs=("sx", "sy"))
    src = _kernel_source("xy", ", direction", body,
                         {"x": f"direction * -({v1} * {dy1} + {v2} * {dy2})",
                          "y": f"direction * ({v1} * {dx1} + {v2} * {dx2})"},
                         guard=False, returns="")
    return _compile_source(src)


def dp5_step(kernel, *args):
    """One trial step: ``kernel(*args)``, the state, then k1 (the field
    there, already evaluated), the step and the rest of the kernel's
    parameters.  Returns what the kernel returns; its k7 is the field at
    the new point, valid as the next step's k1 only if the step is
    accepted.
    """
    return kernel(*args)


def step_factor(enorm: float) -> float:
    """Step-size multiplier from the scaled error (fifth-order formula)."""
    if enorm == 0.0:
        return MAX_FACTOR
    return min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * enorm ** -0.2))

"""Orbit tracing on level sets of H as the lift of the image circle.

Along an orbit of the Hamiltonian field, f runs round the circle
|w| = sqrt(2h) at angular speed det Df, so the orbit is the lift
dp/dtheta = Df^-1 J f of that circle and closes exactly at a whole turn
of theta.  Orbits are stepped in theta, each accepted point corrected
by Newton steps onto f(p) = sqrt(2h) e^{i theta}, which bounds the error
in (x, y) (predictor-corrector continuation, Allgower-Georg ch. 6);
start points lift an image ray from the center.  Where det Df < 0,
theta still advances and the orbit runs back in time, clockwise.

Each trial step is one call of the map's generated orbit kernel
(:func:`planarham.rk.orbit_kernel`) through :func:`~planarham.rk.dp5_step`,
the one per-step call, so that steps can be counted here.  The kernel
raises located errors at the failing stage point and returns the jet of
f at the step's end, which the correction takes as its first iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import DomainError
from .field import JET_ERRORS, OverflowEvent, PlanarMap, located_jet_failure, sample
from .rk import dp5_step, step_factor

RTOL = 1e-9
ATOL = 1e-12
# 0.085 rad per step keeps image-angle gaps far below the 5-degree
# coverage requirement while letting an orbit close in ~75 steps
MAX_DTHETA = 0.085
CORRECT_TOL = 1e-13
CHORD_FRACTION = 1e-3   # of a step's chord: the most its correction may move it
STEP_UNDERFLOW = 1e-14
RETURN_TOL = 1e-7
TWO_PI = 2 * math.pi

_EVAL_ERRORS = (DomainError, OverflowEvent)     # located, as _jet_at raises them


@dataclass(frozen=True)
class AngleBudget:
    max_winding: int = 3
    max_steps: int = 200_000


@dataclass(frozen=True)
class Closed:
    period: float
    winding: int
    kind: str = "closed"


@dataclass(frozen=True)
class Escaped:
    side: str
    time: float
    kind: str = "escaped"


@dataclass(frozen=True)
class BudgetExhausted:
    stiff: bool = False
    kind: str = "budget_exhausted"


@dataclass(frozen=True)
class DomainFailure:
    point: tuple[float, float]
    message: str
    kind: str = "domain_error"


Outcome = Closed | Escaped | BudgetExhausted | DomainFailure


@dataclass(frozen=True)
class OrbitTrace:
    h: float
    points: tuple[tuple[float, float], ...]
    times: tuple[float, ...]
    thetas: tuple[float, ...]
    outcome: Outcome
    level_error: float = 0.0     # the largest |H - h| over the stored points
    sign: int = 1                # det Df's at the start: the time's direction

    def closed(self) -> bool:
        return isinstance(self.outcome, Closed)


@dataclass(frozen=True)
class WindingCertificate:
    h: float
    start: tuple[float, float]
    closed: bool
    injective_on_orbit: bool
    winding: int
    period: float | None
    trace: OrbitTrace


class LevelUnreachable(RuntimeError):
    """The lift of the image ray from the center stalls below the level."""


class LiftEscaped(LevelUnreachable):
    """The lift of the image ray at angle ``theta`` left the working window
    below the level, at ``point`` through ``side``: the center's sublevel
    component reaches the window's edge."""

    def __init__(self, point: tuple[float, float], side: str, theta: float):
        super().__init__(f"the lift of the image ray leaves the window at {point}")
        self.point, self.side, self.theta = point, side, theta


def center_point(center) -> tuple[float, float]:
    """Accept either a bare point or a record carrying .location."""
    loc = getattr(center, "location", center)
    return (float(loc[0]), float(loc[1]))


def _jet_at(pmap: PlanarMap):
    """The jet of f as a function of (x, y), failures located."""
    jet, f1, f2 = pmap.jet, pmap.f1, pmap.f2

    def jet_at(x: float, y: float):
        try:
            return jet(x, y)
        except JET_ERRORS as exc:
            raise located_jet_failure(f1, f2, (x, y), exc) from None

    return jet_at


def _correct(jet_at, x: float, y: float, jet, w: tuple[float, float], tol: float):
    """Newton steps from (x, y), whose jet of f is ``jet``, onto f(p) = w:
    ``(x, y, jet, converged)`` with the jet at the returned point, once
    both residuals are within ``tol`` or after ten iterations."""
    for _ in range(10):
        v1, dx1, dy1, v2, dx2, dy2 = jet
        r1, r2 = v1 - w[0], v2 - w[1]
        if abs(r1) <= tol and abs(r2) <= tol:
            return x, y, jet, True
        det = dx1 * dy2 - dx2 * dy1
        if det == 0.0:
            break
        x -= (dy2 * r1 - dy1 * r2) / det
        y -= (dx1 * r2 - dx2 * r1) / det
        jet = jet_at(x, y)
    return x, y, jet, False


def _lift_field(jet, sign: int) -> tuple[float, float, float] | None:
    """(dx, dy, dt) / dtheta from a jet of f, as the kernel spells it;
    None where det Df lacks the orbit's sign ``sign``, where the lift
    would turn round in time."""
    v1, dx1, dy1, v2, dx2, dy2 = jet
    det = dx1 * dy2 - dx2 * dy1
    if not sign * det > 0.0:
        return None
    idet = 1.0 / det
    return -(v1 * dy1 + v2 * dy2) * idet, (v1 * dx1 + v2 * dx2) * idet, idet


def _hermite(a: float, b: float, ma: float, mb: float, s: float) -> float:
    """The cubic Hermite interpolant on [0, 1] from a to b, end slopes ma, mb."""
    d = b - a
    return a + s * (ma + s * (3.0 * d - 2.0 * ma - mb + s * (ma + mb - 2.0 * d)))


def _exits(a: float, b: float, ma: float, mb: float, lo: float, hi: float) -> list[float]:
    """The s in (0, 1) where that interpolant has an extremum outside
    [lo, hi].  None when its inner Bezier points a + ma/3 and b - mb/3
    are inside, for it lies in the hull of those and its ends."""
    if lo <= a + ma / 3.0 <= hi and lo <= b - mb / 3.0 <= hi:
        return []
    d = b - a
    c2, c3 = 3.0 * d - 2.0 * ma - mb, ma + mb - 2.0 * d     # slope ma + 2 c2 s + 3 c3 s^2
    disc = c2 * c2 - 3.0 * c3 * ma
    if c3 != 0.0 and disc >= 0.0:
        sq = math.sqrt(disc)
        roots = ((-c2 - sq) / (3.0 * c3), (-c2 + sq) / (3.0 * c3))
    else:
        roots = (-ma / (2.0 * c2),) if c3 == 0.0 and c2 != 0.0 else ()
    return [s for s in roots if 0.0 < s < 1.0 and not lo <= _hermite(a, b, ma, mb, s) <= hi]


def integrate_orbit(pmap: PlanarMap, start: tuple[float, float],
                    budget: AngleBudget = AngleBudget(),
                    *, center: tuple[float, float],
                    rtol: float = RTOL, atol: float = ATOL,
                    max_dtheta: float = MAX_DTHETA) -> OrbitTrace:
    """Trace the orbit through ``start`` on its own level of H.

    Steps theta from its value theta0 at the start, by at most
    ``max_dtheta``, landing a step on each whole turn theta0 + 2*pi*k:
    the orbit is :class:`Closed` with winding k (and period |t|) when that
    point lies within RETURN_TOL * (1 + |start - center|) of the start,
    :class:`BudgetExhausted` when not by ``budget.max_winding`` turns.
    It is :class:`Escaped` at an accepted point outside the working
    window, or inside a step where a coordinate extremum of the step's
    cubic Hermite interpolant (ends and theta-derivatives) lies outside
    and stays outside once corrected onto the level.  t runs with the
    sign of det Df at the start; a point where det Df lacks that sign
    ends the orbit as a :class:`DomainFailure` there.

    A trial step is corrected when the kernel's error norm of t, which
    the correction does not reset, is <= 1, and accepted when the
    correction moved its end by at most CHORD_FRACTION of its chord,
    which unlike rtol |p| has no floor where Df^-1 magnifies CORRECT_TOL;
    the larger ratio sets the next step.  A failing evaluation is retried
    with a fifth of the step; below STEP_UNDERFLOW the orbit has run off
    the domain, a :class:`DomainFailure` at the last accepted point whose
    message names the failing subexpression and point.  Underflow from
    either bound is ``BudgetExhausted(stiff=True)``.
    """
    s0 = sample(pmap, start)
    radius = math.hypot(*s0.f_value)
    if radius == 0.0:
        raise ValueError("start point is a zero of the map")
    theta0 = math.atan2(s0.f_value[1], s0.f_value[0])
    (dx1, dy1), (dx2, dy2) = s0.jacobian
    sign = 1 if s0.det > 0.0 else -1
    rate = _lift_field((s0.f_value[0], dx1, dy1, s0.f_value[1], dx2, dy2), sign)
    points, times, thetas, level_error = [start], [0.0], [theta0], 0.0

    def finish(outcome: Outcome) -> OrbitTrace:
        return OrbitTrace(s0.hamiltonian, tuple(points), tuple(times), tuple(thetas), outcome,
                          level_error, sign)

    def on_level(theta: float) -> tuple[float, float]:     # f there: sqrt(2h) e^{i theta}
        return (radius * math.cos(theta), radius * math.sin(theta))

    if rate is None:
        return finish(DomainFailure(start, f"det Df = 0 at the start {start}"))
    kx, ky, kt = rate
    jet_at = _jet_at(pmap)
    kernel = pmap.orbit_kernel
    box = pmap.working_box()
    xmin, xmax, ymin, ymax = box.xmin, box.xmax, box.ymin, box.ymax
    tol = CORRECT_TOL * (1.0 + radius)
    return_tol = RETURN_TOL * (1.0 + math.dist(start, center))
    x, y = start
    t, phi, turn, h = 0.0, 0.0, 1, max_dtheta   # phi = theta - theta0; turn: the next to land
    for _ in range(budget.max_steps):
        land = phi + h >= TWO_PI * turn
        step = TWO_PI * turn - phi if land else h
        phi_new = TWO_PI * turn if land else phi + step
        try:
            x5, y5, t5, enorm, _, _, _, jet = dp5_step(kernel, x, y, t, kx, ky, kt,
                                                       step, rtol, atol)
            if not math.isfinite(enorm):
                enorm = math.inf
            if enorm <= 1.0:
                xn, yn, jet, _ = _correct(jet_at, x5, y5, jet, on_level(theta0 + phi_new), tol)
                chord = CHORD_FRACTION * math.hypot(x5 - x, y5 - y)
                enorm = max(enorm, math.hypot(xn - x5, yn - y5) / chord if chord else math.inf)
        except _EVAL_ERRORS as err:
            # one stage overshooting the domain edge is not yet a failure,
            # so retry smaller; underflow here means the orbit ran off it
            h = 0.2 * step
            if h < STEP_UNDERFLOW:
                return finish(DomainFailure(points[-1], str(err)))
            continue
        if enorm > 1.0:
            h = step * step_factor(enorm)
            if h < STEP_UNDERFLOW:
                return finish(BudgetExhausted(stiff=True))
            continue
        rate = _lift_field(jet, sign)
        if rate is None:
            return finish(DomainFailure((xn, yn), f"det Df changes sign at {(xn, yn)}"))

        mx0, my0, mx1, my1 = step * kx, step * ky, step * rate[0], step * rate[1]
        for s in sorted(_exits(x, xn, mx0, mx1, xmin, xmax) + _exits(y, yn, my0, my1, ymin, ymax)):
            p = (_hermite(x, xn, mx0, mx1, s), _hermite(y, yn, my0, my1, s))
            try:
                px, py, pjet, _ = _correct(jet_at, *p, jet_at(*p),
                                           on_level(theta0 + phi + s * step), tol)
            except _EVAL_ERRORS as err:
                return finish(DomainFailure(points[-1], str(err)))
            if not box.contains((px, py)):  # the orbit ends here, its time interpolated
                xn, yn, jet, t5, phi_new = px, py, pjet, t + s * (t5 - t), phi + s * step
                break

        x, y, t, phi = xn, yn, t5, phi_new
        kx, ky, kt = rate
        points.append((x, y))
        times.append(t)
        thetas.append(theta0 + phi)
        level_error = max(level_error, abs(0.5 * (jet[0] ** 2 + jet[3] ** 2) - s0.hamiltonian))
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            return finish(Escaped(side=box.exit_side((x, y)), time=abs(t)))
        if land:
            if math.dist((x, y), start) <= return_tol:
                return finish(Closed(period=abs(t), winding=turn))
            if turn >= budget.max_winding:
                return finish(BudgetExhausted(stiff=False))
            turn += 1
        else:
            h = min(max_dtheta, step * step_factor(enorm))
    return finish(BudgetExhausted(stiff=False))


def level_start_point(pmap: PlanarMap, center: tuple[float, float],
                      h: float, angle: float | None = None) -> tuple[float, float]:
    """The point with H = h on the lift of an image ray from the center c.

    The ray s -> s sqrt(2h) e^{i theta0} is lifted from c by Newton
    continuation in |f| (tangent predictor, then a correction onto the
    ray), which takes a step only when the correction converges within a
    quarter of the predictor's length, so the lift keeps to its branch,
    and halves it otherwise.  |f| grows along the lift, so it stays in
    c's own component of {H < h}.  theta0 is ``angle`` when given, else
    arg(Df(c) e_x): then the lift runs along +x where Df(c) e_x keeps
    its direction, as for affine maps.  Aimed at arg f(q), q the point
    where c's sublevel component first meets the window's edge, the lift
    at a level just above H(q) runs out of the window through q, as long
    as f is one-to-one on that component.
    Raises :class:`LiftEscaped` when the lift leaves the working window
    below the level, :class:`LevelUnreachable` when the step underflows.
    """
    if h <= 0:
        raise ValueError("level must be positive")
    box = pmap.working_box()
    cx, cy = center_point(center)
    jet_at = _jet_at(pmap)
    radius = math.sqrt(2.0 * h)
    tol = CORRECT_TOL * (1.0 + radius)
    try:
        s0 = sample(pmap, (cx, cy))     # with the overflow guard
    except _EVAL_ERRORS as err:
        raise LevelUnreachable(f"no lift from {center}: {err}") from None
    (dx1, dy1), (dx2, dy2) = s0.jacobian
    jet = (s0.f_value[0], dx1, dy1, s0.f_value[1], dx2, dy2)
    theta0 = math.atan2(dx2, dx1) if angle is None else angle   # default: Df(c) e_x's
    ux, uy = math.cos(theta0), math.sin(theta0)
    x, y, rho, step = cx, cy, 0.0, radius
    while rho < radius:
        _, dx1, dy1, _, dx2, dy2 = jet
        det = dx1 * dy2 - dx2 * dy1
        if step < STEP_UNDERFLOW * radius or det == 0.0:
            raise LevelUnreachable(f"the lift from {center} towards level h={h} "
                                   f"stalls at {(x, y)}")
        d = min(step, radius - rho)
        run_x, run_y = d * (dy2 * ux - dy1 * uy) / det, d * (dx1 * uy - dx2 * ux) / det
        px, py = x + run_x, y + run_y
        rho_new = radius if d == radius - rho else rho + d
        try:
            xc, yc, jc, converged = _correct(jet_at, px, py, jet_at(px, py),
                                             (rho_new * ux, rho_new * uy), tol)
        except _EVAL_ERRORS:
            converged = False
        moved = math.hypot(xc - px, yc - py) if converged else math.inf
        if moved > 0.25 * math.hypot(run_x, run_y):
            step = 0.5 * d
            continue
        x, y, jet, rho = xc, yc, jc, rho_new
        if not box.contains((x, y)):
            raise LiftEscaped((x, y), box.exit_side((x, y)), theta0)
        if moved <= 0.05 * math.hypot(run_x, run_y):
            step = 2.0 * d
    return (x, y)


def winding_certificate(pmap: PlanarMap, center: tuple[float, float], h: float,
                        budget: AngleBudget = AngleBudget(),
                        rtol: float = RTOL, atol: float = ATOL,
                        angle: float | None = None) -> WindingCertificate:
    """Injectivity evidence for f restricted to the orbit at level h.

    The orbit starts on the lift of the image ray at ``angle`` from the
    center (:func:`level_start_point`, whose default angle is
    arg Df(c) e_x); a lift that leaves the window first gives an
    :class:`Escaped` trace of its exit point alone, no orbit traced.  The
    certificate is positive exactly when the orbit closes, its image
    winds once around the origin, the closed trace polygon winds once
    around the center (clockwise where det Df < 0), and every stored
    point lies within 1e-8 (1 + h) of the level.
    """
    cpt = center_point(center)
    try:
        start = level_start_point(pmap, cpt, h, angle)
    except LiftEscaped as esc:
        trace = OrbitTrace(h, (esc.point,), (0.0,), (esc.theta,), Escaped(esc.side, 0.0))
        return WindingCertificate(h, esc.point, False, False, 0, None, trace)
    trace = integrate_orbit(pmap, start, budget=budget, center=cpt,
                            rtol=rtol, atol=atol)
    closed = isinstance(trace.outcome, Closed)
    winding = trace.outcome.winding if closed else 0
    period = trace.outcome.period if closed else None
    injective = (closed and winding == 1 and _winds_once(trace.points, cpt, trace.sign)
                 and trace.level_error <= 1e-8 * (1.0 + abs(trace.h)))
    return WindingCertificate(h=h, start=start, closed=closed,
                              injective_on_orbit=injective, winding=winding,
                              period=period, trace=trace)


def _winds_once(points, center: tuple[float, float], sign: int = 1) -> bool:
    """Whether the closed polygon through ``points`` winds once round
    ``center`` in the direction ``sign`` (+1 counterclockwise): the
    signed crossings of the half-line from the center in +x, which is
    exact for any edge length."""
    cx, cy = center
    wn = 0
    for (ax, ay), (bx, by) in zip(points, points[1:] + points[:1]):
        side = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        if ay <= cy < by and side > 0.0:
            wn += 1
        elif by <= cy < ay and side < 0.0:
            wn -= 1
    return wn == sign

"""Orbit tracing on level sets of H with image-winding bookkeeping.

Orbits of the Hamiltonian field are integrated with an embedded RK5(4)
pair; after every accepted step the point is projected back onto
{H = h} along the gradient, which removes secular energy drift.  Along
an orbit the image f(orbit) moves on the circle of radius sqrt(2h) with
angular speed det Df, so the continuous lift theta of atan2(f2, f1) is
strictly increasing and closure bookkeeping can budget on it.

Step acceptance caps the per-step advance of theta, which keeps the
unwrap unambiguous and the image-circle coverage dense.  theta grows by
exactly 2*pi*k from the start to a return of winding k, so returns are
looked for only at whole turns of theta.

Each trial step is one call of the map's generated orbit kernel
(:attr:`PlanarMap.orbit_kernel`, see :mod:`planarham.rk`) through
:func:`~planarham.rk.dp5_step`, which stays the one per-step call so
that steps can be counted here.  The kernel evaluates all stages inline,
raises located errors at the failing stage point, and returns the jet
of f at the step's end, which the projection takes as its first
iterate: an accepted point costs no jet evaluation unless the
projection moves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .expr import DomainError
from .field import JET_ERRORS, OverflowEvent, PlanarMap, located_jet_failure, sample
from .rk import dp5_step, step_factor

RTOL = 1e-9
ATOL = 1e-12
# 0.085 rad per step keeps image-angle gaps far below the 5-degree
# coverage requirement while letting an orbit close in ~75 steps
MAX_DTHETA = 0.085
PROJECT_TOL = 1e-13
STEP_UNDERFLOW = 1e-14
RETURN_TOL = 1e-7
START_FAN_N = 8             # rays level_start_point tries around a center
TWO_PI = 2 * math.pi

# every evaluation path below raises its failures located (see _Flow)
_EVAL_ERRORS = (DomainError, OverflowEvent)


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
    """No start point on the requested level along any fan ray."""


class StiffUnderflow(ArithmeticError):
    """The error norm rejected a sub-step of the return refinement."""


def center_point(center) -> tuple[float, float]:
    """Accept either a bare point or a record carrying .location."""
    loc = getattr(center, "location", center)
    return (float(loc[0]), float(loc[1]))


class _Flow:
    """One map's compiled jet and orbit kernel, pinned to one energy level.

    Evaluation failures surface as :class:`DomainError` or
    :class:`OverflowEvent` located at the point that was evaluated, which
    for a DP5 stage is the stage point rather than the step's base point
    (the kernel raises them itself).
    """

    def __init__(self, pmap: PlanarMap, h_level: float):
        self.pmap = pmap
        self.jet = pmap.jet
        self.kernel = pmap.orbit_kernel
        self.h_level = h_level

    def jet_at(self, x: float, y: float):
        """The jet of f at (x, y), failures located."""
        try:
            return self.jet(x, y)
        except JET_ERRORS as exc:
            raise located_jet_failure(self.pmap.f1, self.pmap.f2, (x, y), exc) from None

    def project(self, x: float, y: float, jet=None):
        """Newton step(s) along grad H back onto {H = h_level}.

        ``jet``, when given, is the jet of f at (x, y), as the kernel
        returns it with a step's end point; the first iteration uses it
        instead of evaluating the jet there again.
        Returns ``(x, y, jet)`` with the jet of f at the returned point,
        which :func:`_jet_rhs` and :func:`_jet_angle` read without a new
        evaluation.  The jet is evaluated again only when all ten
        iterations are used, since the last one moves the point.
        """
        tol = PROJECT_TOL * (1.0 + abs(self.h_level))
        for _ in range(10):
            if jet is None:
                jet = self.jet_at(x, y)
            v1, dx1, dy1, v2, dx2, dy2 = jet
            r = 0.5 * (v1 * v1 + v2 * v2) - self.h_level
            if abs(r) <= tol:
                return x, y, jet
            gx = v1 * dx1 + v2 * dx2
            gy = v1 * dy1 + v2 * dy2
            g2 = gx * gx + gy * gy
            if g2 < 1e-300:
                return x, y, jet
            x -= r * gx / g2
            y -= r * gy / g2
            jet = None
        return x, y, self.jet_at(x, y)


def _jet_rhs(jet) -> tuple[float, float]:
    """The Hamiltonian field (-H_y, H_x) from a jet of f."""
    v1, dx1, dy1, v2, dx2, dy2 = jet
    return (-(v1 * dy1 + v2 * dy2), v1 * dx1 + v2 * dx2)


def _jet_angle(jet) -> float:
    """The image angle atan2(f2, f1) from a jet of f."""
    return math.atan2(jet[3], jet[0])


def _wrap_pi(a: float) -> float:
    while a > math.pi:
        a -= TWO_PI
    while a < -math.pi:
        a += TWO_PI
    return a


def integrate_orbit(pmap: PlanarMap, start: tuple[float, float],
                    budget: AngleBudget = AngleBudget(),
                    *, center: tuple[float, float],
                    rtol: float = RTOL, atol: float = ATOL,
                    max_dtheta: float = MAX_DTHETA) -> OrbitTrace:
    """Trace the orbit through ``start`` on its own level of H.

    Stops at closure, escape from the working box, a domain error, or
    the angle budget.  A return of winding k lies in the accepted step
    where theta - theta0 first reaches 2*pi*k.  When that step crosses
    the line through ``center`` and ``start``, the crossing is refined
    (:func:`_refine_return`); the orbit is :class:`Closed` when it lies
    within RETURN_TOL * (1 + |start - center|) of the start.

    A trial step whose evaluation fails (a DP5 stage, the projection or
    the image angle left the map's domain) is retried with a fifth of the
    step.  When that drives the step below STEP_UNDERFLOW the orbit has
    run off the domain: the outcome is :class:`DomainFailure` at the last
    accepted point, whose message names the failing subexpression and the
    point where evaluation broke down.  Underflow forced by the error norm
    or by the dtheta cap is stiffness instead, and gives
    ``BudgetExhausted(stiff=True)``.  A refinement sub-step that fails to
    evaluate ends the orbit as a :class:`DomainFailure` at the last
    accepted point, one that is rejected as stiff.

    Each accepted point is evaluated once after its projection: the image
    angle and the next step's first stage come from that jet.
    """
    s0 = sample(pmap, start)
    if math.hypot(*s0.f_value) == 0.0:
        raise ValueError("start point is a zero of the map")
    h_level = s0.hamiltonian
    flow = _Flow(pmap, h_level)
    box = pmap.working_box()
    cx, cy = center
    norm = math.hypot(start[0] - cx, start[1] - cy)
    ux, uy = (start[0] - cx) / norm, (start[1] - cy) / norm
    scale = 1.0 + norm
    return_tol = RETURN_TOL * scale

    def offset(p: tuple[float, float]) -> float:   # signed, from the center-start line
        return ux * (p[1] - cy) - uy * (p[0] - cx)

    theta = math.atan2(s0.f_value[1], s0.f_value[0])
    try:
        x, y, jet = flow.project(*start)
    except _EVAL_ERRORS as err:
        # the start itself evaluated cleanly in sample() above
        return OrbitTrace(h_level, (start,), (0.0,), (theta,),
                          DomainFailure(start, str(err)))
    fx, fy = _jet_rhs(jet)
    raw_prev = theta
    t = 0.0
    points = [(x, y)]
    times = [0.0]
    thetas = [theta]
    theta0 = theta
    turn = TWO_PI               # theta - theta0 at the next whole turn
    max_theta = budget.max_winding * 2 * math.pi
    kernel = flow.kernel
    xmin, xmax, ymin, ymax = box.xmin, box.xmax, box.ymin, box.ymax
    g_prev = offset((x, y))

    speed = math.hypot(fx, fy)
    h = min(0.01, 0.1 * scale / (1.0 + speed))

    def finish(outcome: Outcome) -> OrbitTrace:
        return OrbitTrace(h_level, tuple(points), tuple(times), tuple(thetas), outcome)

    def domain_failure(err: ArithmeticError) -> OrbitTrace:
        return finish(DomainFailure(points[-1], str(err)))

    # the loop inlines _jet_angle, _wrap_pi, offset and Box.exit_side's test
    for _ in range(budget.max_steps):
        try:
            x5, y5, enorm, _, _, jet = dp5_step(kernel, x, y, fx, fy, h, rtol, atol)
            if not math.isfinite(enorm):
                enorm = math.inf
            if enorm <= 1.0:
                xp, yp, jet = flow.project(x5, y5, jet)
                raw_new = math.atan2(jet[3], jet[0])
        except _EVAL_ERRORS as err:
            # one stage overshooting the domain edge is not yet a failure,
            # so retry smaller.  Underflow here means the orbit itself ran
            # off the domain (DomainFailure at the last accepted point);
            # underflow from the error norm or the cap below is stiffness
            h *= 0.2
            if h < STEP_UNDERFLOW:
                return domain_failure(err)
            continue
        if enorm > 1.0:
            h *= step_factor(enorm)
            if h < STEP_UNDERFLOW:
                return finish(BudgetExhausted(stiff=True))
            continue

        dtheta = raw_new - raw_prev
        while dtheta > math.pi:
            dtheta -= TWO_PI
        while dtheta < -math.pi:
            dtheta += TWO_PI
        if abs(dtheta) > max_dtheta:
            h *= max(0.2, 0.8 * max_dtheta / abs(dtheta))
            if h < STEP_UNDERFLOW:
                return finish(BudgetExhausted(stiff=True))
            continue
        if dtheta < 0.0:
            return finish(DomainFailure(
                (xp, yp), "image angle regressed; det Df <= 0 along the orbit?"))

        t_new = t + h
        p_new = (xp, yp)
        g_new = ux * (yp - cy) - uy * (xp - cx)
        theta_new = theta + dtheta
        if theta_new - theta0 >= turn:
            turn += TWO_PI
            if g_prev < 0.0 <= g_new or g_new <= 0.0 < g_prev:     # crosses that line
                try:
                    dt, xh, yh, jet_hit = _refine_return(flow, offset, (x, y), (fx, fy), h,
                                                         (xp, yp, jet), rtol, atol)
                except _EVAL_ERRORS as err:
                    return domain_failure(err)
                except StiffUnderflow:
                    return finish(BudgetExhausted(stiff=True))
                if math.hypot(xh - start[0], yh - start[1]) <= return_tol:
                    theta_hit = theta + _wrap_pi(_jet_angle(jet_hit) - raw_prev)
                    points.append((xh, yh))
                    times.append(t + dt)
                    thetas.append(theta_hit)
                    return finish(Closed(period=t + dt,
                                         winding=round((theta_hit - theta0) / TWO_PI)))
        g_prev = g_new

        theta = theta_new
        raw_prev = raw_new
        x, y = xp, yp
        t = t_new
        fx, fy = _jet_rhs(jet)
        points.append(p_new)
        times.append(t_new)
        thetas.append(theta)

        if xp < xmin or xp > xmax or yp < ymin or yp > ymax:
            return finish(Escaped(side=box.exit_side(p_new), time=t_new))
        if theta - theta0 > max_theta:
            return finish(BudgetExhausted(stiff=False))
        h *= step_factor(enorm)

    return finish(BudgetExhausted(stiff=False))


def _refine_return(flow: _Flow, offset, p0: tuple[float, float],
                   k1: tuple[float, float], h_step: float, end, rtol: float, atol: float):
    """Locate the return crossing inside the accepted step from ``p0``.

    Solves offset(p(dt)) = 0 for dt in (0, h_step], ``offset`` being the
    signed distance from the line through the center and the start, on
    the real flow: each trial p(dt) is one DP5 sub-step of the accepted
    step, from its base point ``p0`` with its first stage ``k1`` and the
    orbit's tolerances, projected back onto the level.  The bracket's ends are
    ``p0`` and ``end = (x, y, jet)``, the step's projected end point with
    the jet of f there, so neither is integrated again.  A sub-step whose
    error norm fails raises :class:`StiffUnderflow`, so no unaccepted
    point reaches the root finder; evaluation errors come through
    located.  Returns ``(dt, x, y, jet)`` at the crossing.
    """
    g0 = offset(p0)
    subs = {h_step: end}

    def g_of_dt(dt: float) -> float:
        if dt <= 0.0:
            return g0
        if dt not in subs:
            x5, y5, enorm, _, _, jet = dp5_step(flow.kernel, *p0, *k1, dt, rtol, atol)
            if not enorm <= 1.0:
                raise StiffUnderflow(f"sub-step of {dt:.3g} from {p0} rejected")
            subs[dt] = flow.project(x5, y5, jet)
        return offset(subs[dt])

    dt = h_step
    if offset(end) != 0.0:
        dt = brentq(g_of_dt, 0.0, h_step, xtol=1e-14, maxiter=200)
    return (dt, *subs[dt])


def level_start_point(pmap: PlanarMap, center: tuple[float, float],
                      h: float) -> tuple[float, float]:
    """A point with H = h on a ray from the center (+x first, then a fan).

    Marches outward until H - h changes sign, solves on the bracketing
    segment, then projects exactly onto the level.  Raises
    :class:`LevelUnreachable` when no fan ray crosses the level inside
    the working box.
    """
    if h <= 0:
        raise ValueError("level must be positive")
    box = pmap.working_box()
    cx, cy = center_point(center)
    flow = _Flow(pmap, h)

    def h_minus(r: float, ux: float, uy: float) -> float:
        return sample(pmap, (cx + r * ux, cy + r * uy)).hamiltonian - h

    for k in range(START_FAN_N):
        ang = 2 * math.pi * k / START_FAN_N
        ux, uy = math.cos(ang), math.sin(ang)
        # max radius still inside the box along this ray
        r_cap = math.inf
        if ux > 0:
            r_cap = min(r_cap, (box.xmax - cx) / ux)
        elif ux < 0:
            r_cap = min(r_cap, (box.xmin - cx) / ux)
        if uy > 0:
            r_cap = min(r_cap, (box.ymax - cy) / uy)
        elif uy < 0:
            r_cap = min(r_cap, (box.ymin - cy) / uy)
        if not math.isfinite(r_cap) or r_cap <= 0:
            continue
        r_lo = 0.0
        r_hi = min(1e-4 * r_cap, r_cap)
        found = False
        try:
            while r_hi <= r_cap:
                if h_minus(r_hi, ux, uy) >= 0.0:
                    found = True
                    break
                r_lo = r_hi
                r_hi *= 1.5
            if not found and r_lo < r_cap and h_minus(r_cap, ux, uy) >= 0.0:
                r_hi = r_cap
                found = True
        except _EVAL_ERRORS:
            continue
        if not found:
            continue
        r_star = brentq(h_minus, r_lo, r_hi, args=(ux, uy), xtol=1e-15, maxiter=200)
        p = flow.project(cx + r_star * ux, cy + r_star * uy)[:2]
        if box.contains(p):
            return p
    raise LevelUnreachable(f"no start point on level h={h} around {center}")


def winding_certificate(pmap: PlanarMap, center: tuple[float, float], h: float,
                        budget: AngleBudget = AngleBudget(),
                        rtol: float = RTOL, atol: float = ATOL) -> WindingCertificate:
    """Injectivity evidence for f restricted to the orbit at level h.

    The certificate is positive exactly when the orbit closes, its image
    winds once around the origin, the closed trace polygon winds once
    around the center (the start may lie on another center's oval), and
    the trace invariants hold.
    """
    cpt = center_point(center)
    start = level_start_point(pmap, cpt, h)  # may raise LevelUnreachable
    trace = integrate_orbit(pmap, start, budget=budget, center=cpt,
                            rtol=rtol, atol=atol)
    closed = isinstance(trace.outcome, Closed)
    winding = trace.outcome.winding if closed else 0
    period = trace.outcome.period if closed else None
    injective = (closed and winding == 1 and _winds_once(trace.points, cpt)
                 and _invariants_hold(pmap, trace))
    return WindingCertificate(h=h, start=start, closed=closed,
                              injective_on_orbit=injective, winding=winding,
                              period=period, trace=trace)


def _winds_once(points, center: tuple[float, float]) -> bool:
    """Whether the closed polygon through ``points`` winds once round
    ``center``, counterclockwise: the signed crossings of the half-line
    from the center in +x, which is exact for any edge length."""
    cx, cy = center
    wn = 0
    for (ax, ay), (bx, by) in zip(points, points[1:] + points[:1]):
        side = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        if ay <= cy < by and side > 0.0:
            wn += 1
        elif by <= cy < ay and side < 0.0:
            wn -= 1
    return wn == 1


def _invariants_hold(pmap: PlanarMap, trace: OrbitTrace) -> bool:
    """Energy stays pinned and theta is monotone over the stored points."""
    tol = 1e-8 * (1.0 + abs(trace.h))
    jet = pmap.jet
    for (x, y) in trace.points[:: max(1, len(trace.points) // 256)]:
        v1, _, _, v2, _, _ = jet(x, y)
        if abs(0.5 * (v1 * v1 + v2 * v2) - trace.h) > tol:
            return False
    for a, b in zip(trace.thetas, trace.thetas[1:]):
        if b <= a:
            return False
    return True


def angular_speed_check(pmap: PlanarMap, trace: OrbitTrace) -> float:
    """Max deviation of the measured image-angle speed from det Df.

    A three-point nonuniform finite difference of theta(t) is compared
    with det Df at each interior stored point; the deviation is
    normalised by 1 + |det|.
    """
    if len(trace.points) < 10:
        raise ValueError("trace too short for the angular-speed diagnostic")
    worst = 0.0
    for i in range(1, len(trace.points) - 1):
        t0, t1, t2 = trace.times[i - 1], trace.times[i], trace.times[i + 1]
        th0, th1, th2 = trace.thetas[i - 1], trace.thetas[i], trace.thetas[i + 1]
        h1 = t1 - t0
        h2 = t2 - t1
        if h1 <= 0 or h2 <= 0:
            continue
        fd = (-h2 / (h1 * (h1 + h2)) * th0
              + (h2 - h1) / (h1 * h2) * th1
              + h1 / (h2 * (h1 + h2)) * th2)
        det = sample(pmap, trace.points[i]).det
        worst = max(worst, abs(fd - det) / (1.0 + abs(det)))
    return worst

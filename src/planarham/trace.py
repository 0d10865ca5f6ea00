"""Orbit tracing on level sets of H with image-winding bookkeeping.

Orbits of the Hamiltonian field are integrated with an embedded RK5(4)
pair; after every accepted step the point is projected back onto
{H = h} along the gradient, which removes secular energy drift.  Along
an orbit the image f(orbit) moves on the circle of radius sqrt(2h) with
angular speed det Df, so the continuous lift theta of atan2(f2, f1) is
strictly increasing and closure bookkeeping can budget on it.

Step acceptance caps the per-step advance of theta (keeps the unwrap
unambiguous and the image-circle coverage dense) and of the domain
angle around the center (so a step can never jump the return section).

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
MAX_DPHI = 0.35
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
    """The error norm drove the step below STEP_UNDERFLOW before the
    requested time was covered."""


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

    def image_angle(self, x: float, y: float) -> float:
        return _jet_angle(self.jet_at(x, y))


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


def _flow_dt(flow: _Flow, x: float, y: float, dt: float,
             rtol: float, atol: float, h_init: float) -> tuple[float, float]:
    """Integrate exactly dt forward with error control and projection.

    Evaluation errors in a trial step are handled as in
    :func:`integrate_orbit`: the step is retried smaller, and the located
    error is re-raised once that drives it below STEP_UNDERFLOW.  When
    the error norm drives it there, or the step budget runs out first,
    :class:`StiffUnderflow` is raised: the point reached so far is not
    the flow over dt.
    """
    kernel = flow.kernel
    remaining = dt
    h = min(h_init, dt) if dt > 0 else dt
    fx, fy = _jet_rhs(flow.jet_at(x, y))
    for _ in range(10_000):
        if remaining <= 0:
            return x, y
        h = min(h, remaining)
        try:
            x5, y5, enorm, _, _, jet = dp5_step(kernel, x, y, fx, fy, h, rtol, atol)
            if not math.isfinite(enorm):
                enorm = math.inf
            if enorm <= 1.0:
                xp, yp, jet = flow.project(x5, y5, jet)
        except _EVAL_ERRORS:
            h *= 0.2
            if h < STEP_UNDERFLOW:
                raise
            continue
        if enorm > 1.0:
            h *= step_factor(enorm)
            if h < STEP_UNDERFLOW:
                break
            continue
        remaining -= h
        x, y = xp, yp
        fx, fy = _jet_rhs(jet)
        h *= step_factor(enorm)
    if remaining <= 0:
        return x, y
    raise StiffUnderflow(f"flow stopped at {(x, y)} with {remaining:.3g} "
                         f"of dt = {dt:.3g} left")


class _Section:
    """Return section: the ray from the center through the start point."""

    def __init__(self, center: tuple[float, float], start: tuple[float, float]):
        self.cx, self.cy = center
        dx = start[0] - self.cx
        dy = start[1] - self.cy
        norm = math.hypot(dx, dy)
        self.ux = dx / norm
        self.uy = dy / norm
        self.scale = norm
        self.sign_ref = 0.0  # sign of g just after leaving the start
        self.armed = False
        self.phi_acc = 0.0
        self.phi_prev = math.atan2(dy, dx)

    def g(self, p: tuple[float, float]) -> float:
        """Signed cross-track offset from the section line."""
        return self.ux * (p[1] - self.cy) - self.uy * (p[0] - self.cx)

    def on_ray_side(self, p: tuple[float, float]) -> bool:
        return self.ux * (p[0] - self.cx) + self.uy * (p[1] - self.cy) > 0.0

    def advance_phi(self, phi: float, dphi: float) -> None:
        """Move on to domain angle ``phi``, ``dphi`` (wrapped) past the
        last one; arms the section once the orbit has moved 0.5 rad away
        from the start ray."""
        self.phi_prev = phi
        self.phi_acc += dphi
        if abs(self.phi_acc) > 0.5:
            self.armed = True

    def crossing(self, p_prev: tuple[float, float], g_prev: float,
                 p_new: tuple[float, float], g_new: float) -> bool:
        """True when the segment crosses the ray in the start orientation;
        ``g_prev`` and ``g_new`` are the offsets :meth:`g` of its ends."""
        if self.sign_ref == 0.0 and g_new != 0.0:
            self.sign_ref = math.copysign(1.0, g_new)
            return False
        if not self.armed:
            return False
        if not (g_prev * self.sign_ref < 0.0 and g_new * self.sign_ref >= 0.0):
            return False
        return self.on_ray_side(p_prev) and self.on_ray_side(p_new)


def integrate_orbit(pmap: PlanarMap, start: tuple[float, float],
                    budget: AngleBudget = AngleBudget(),
                    center: tuple[float, float] | None = None,
                    rtol: float = RTOL, atol: float = ATOL,
                    max_dtheta: float = MAX_DTHETA) -> OrbitTrace:
    """Trace the orbit through ``start`` on its own level of H.

    Stops at closure (section return within RETURN_TOL of the start, only
    when a center is given), escape from the working box, a domain error,
    or the angle budget.

    A trial step whose evaluation fails (a DP5 stage, the projection or
    the image angle left the map's domain) is retried with a fifth of the
    step.  When that drives the step below STEP_UNDERFLOW the orbit has
    run off the domain: the outcome is :class:`DomainFailure` at the last
    accepted point, whose message names the failing subexpression and the
    point where evaluation broke down.  Evaluation errors while locating
    the return crossing end the orbit the same way.  Underflow forced by
    the error norm or by the dtheta/dphi caps is stiffness instead, and
    gives ``BudgetExhausted(stiff=True)``, also when it happens while
    locating the return crossing.

    Each accepted point is evaluated once after its projection: the image
    angle and the next step's first stage come from that jet.
    """
    s0 = sample(pmap, start)
    if math.hypot(*s0.f_value) == 0.0:
        raise ValueError("start point is a zero of the map")
    h_level = s0.hamiltonian
    flow = _Flow(pmap, h_level)
    box = pmap.working_box()
    section = _Section(center, start) if center is not None else None
    return_tol = RETURN_TOL * (1.0 + (section.scale if section else 0.0))

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
    max_theta = budget.max_winding * 2 * math.pi
    kernel = flow.kernel
    xmin, xmax, ymin, ymax = box.xmin, box.xmax, box.ymin, box.ymax
    if section is not None:
        cx, cy, ux, uy = section.cx, section.cy, section.ux, section.uy
        g_prev = section.g((x, y))

    speed = math.hypot(fx, fy)
    scale = 1.0 + (section.scale if section is not None else 0.0)
    h = min(0.01, 0.1 * scale / (1.0 + speed))

    def finish(outcome: Outcome) -> OrbitTrace:
        return OrbitTrace(h_level, tuple(points), tuple(times), tuple(thetas), outcome)

    def domain_failure(err: ArithmeticError) -> OrbitTrace:
        return finish(DomainFailure(points[-1], str(err)))

    # the loop inlines _jet_angle, _wrap_pi, _Section.g and Box.exit_side's test
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
            # underflow from the error norm or the caps below is stiffness
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
        if section is not None:
            # one atan2 per accepted point: the probe's angle is the one
            # the section advances to
            phi = math.atan2(yp - cy, xp - cx)
            dphi = phi - section.phi_prev
            while dphi > math.pi:
                dphi -= TWO_PI
            while dphi < -math.pi:
                dphi += TWO_PI
            if abs(dphi) > MAX_DPHI:
                h *= max(0.2, 0.8 * MAX_DPHI / abs(dphi))
                if h < STEP_UNDERFLOW:
                    return finish(BudgetExhausted(stiff=True))
                continue

        if dtheta < 0.0:
            return finish(DomainFailure(
                (xp, yp), "image angle regressed; det Df <= 0 along the orbit?"))

        t_new = t + h
        p_new = (xp, yp)

        if section is not None:
            g_new = ux * (yp - cy) - uy * (xp - cx)
            if section.crossing((x, y), g_prev, p_new, g_new):
                try:
                    hit = _refine_return(flow, section, (x, y), t, h, rtol, atol)
                except _EVAL_ERRORS as err:
                    return domain_failure(err)
                except StiffUnderflow:
                    return finish(BudgetExhausted(stiff=True))
                if hit is not None:
                    t_hit, p_hit = hit
                    if math.hypot(p_hit[0] - start[0], p_hit[1] - start[1]) <= return_tol:
                        raw_hit = flow.image_angle(*p_hit)
                        theta_hit = theta + _wrap_pi(raw_hit - raw_prev)
                        winding = round((theta_hit - theta0) / (2 * math.pi))
                        points.append(p_hit)
                        times.append(t_hit)
                        thetas.append(theta_hit)
                        return finish(Closed(period=t_hit, winding=winding))
            section.advance_phi(phi, dphi)
            g_prev = g_new

        theta += dtheta
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


def _refine_return(flow: _Flow, section: _Section, p0: tuple[float, float],
                   t0: float, h_step: float, rtol: float, atol: float):
    """Locate the section crossing inside the step [t0, t0 + h_step].

    Solves g(flow(p0, dt)) = 0 for dt by bracketing on the real flow (not
    an interpolant), so the crossing time inherits the integrator's
    accuracy.  :class:`StiffUnderflow` from the flow propagates, so no
    partial flow reaches the root finder.
    """
    g0 = section.g(p0)

    def g_of_dt(dt: float) -> float:
        if dt <= 0.0:
            return g0
        px, py = _flow_dt(flow, p0[0], p0[1], dt, rtol, atol, h_step)
        return section.g((px, py))

    g1 = g_of_dt(h_step)
    if g0 == 0.0 or g0 * g1 > 0.0:
        return None
    if g1 == 0.0:
        dt_star = h_step
    else:
        try:
            dt_star = brentq(g_of_dt, 0.0, h_step, xtol=1e-14, maxiter=200)
        except ValueError:
            return None
    p_hit = _flow_dt(flow, p0[0], p0[1], dt_star, rtol, atol, h_step)
    return t0 + dt_star, p_hit


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

    The certificate is positive exactly when the orbit closes and its
    image winds once around the origin circle with all trace invariants
    holding.
    """
    cpt = center_point(center)
    start = level_start_point(pmap, cpt, h)  # may raise LevelUnreachable
    trace = integrate_orbit(pmap, start, budget=budget, center=cpt,
                            rtol=rtol, atol=atol)
    closed = isinstance(trace.outcome, Closed)
    winding = trace.outcome.winding if closed else 0
    period = trace.outcome.period if closed else None
    injective = closed and winding == 1 and _invariants_hold(pmap, trace)
    return WindingCertificate(h=h, start=start, closed=closed,
                              injective_on_orbit=injective, winding=winding,
                              period=period, trace=trace)


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

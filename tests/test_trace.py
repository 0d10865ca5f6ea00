"""Orbit integration, closure, winding certificates, angular speed."""

import functools
import math

import numpy as np
import pytest

from orbit_checks import angular_speed_check
from planarham import trace as trace_mod
from planarham.annulus import BAD, INCONCLUSIVE, classify_certificate
from planarham.expr import parse_expr
from planarham.field import Box, PlanarMap, sample
from planarham.trace import (
    AngleBudget,
    BudgetExhausted,
    Closed,
    DomainFailure,
    Escaped,
    LevelUnreachable,
    integrate_orbit,
    level_start_point,
    winding_certificate,
)

TWO_PI = 2 * math.pi


def polyline_hausdorff(pts_a: np.ndarray, pts_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two closed polylines."""

    def one_sided(p, q):
        # distance from each point of p to the nearest segment of q
        q0 = q
        q1 = np.roll(q, -1, axis=0)
        d = q1 - q0                                    # (m, 2)
        dd = (d * d).sum(axis=1)
        dd[dd == 0] = 1.0
        worst = 0.0
        for pt in p:
            t = ((pt - q0) * d).sum(axis=1) / dd
            t = np.clip(t, 0.0, 1.0)
            proj = q0 + t[:, None] * d
            dist = np.hypot(*(pt - proj).T).min()
            worst = max(worst, dist)
        return worst

    return max(one_sided(pts_a, pts_b), one_sided(pts_b, pts_a))


# ---- closure on the linear center ----

def test_identity_unit_circle_period(identity_map):
    trace = integrate_orbit(identity_map, (1.0, 0.0), center=(0.0, 0.0))
    assert isinstance(trace.outcome, Closed)
    assert abs(trace.outcome.period - TWO_PI) <= 1e-8
    assert trace.outcome.winding == 1
    # the orbit is the unit circle
    for (x, y) in trace.points:
        assert abs(math.hypot(x, y) - 1.0) <= 1e-9


def test_identity_certificate_h_half(identity_map):
    cert = winding_certificate(identity_map, (0.0, 0.0), 0.5)
    assert cert.closed and cert.injective_on_orbit
    assert cert.winding == 1
    assert abs(cert.period - TWO_PI) <= 1e-8


# ---- the oval of the exponential map ----

def test_example1_oval_matches_implicit_curve(example1):
    # level h = 0.125 through (-ln 2, 0); exact curve is
    # (e^x - 1)^2 + y^2 = 1/4
    start = (-math.log(2.0), 0.0)
    assert abs(sample(example1, start).hamiltonian - 0.125) <= 1e-15
    trace = integrate_orbit(example1, start, center=(0.0, 0.0), max_dtheta=0.02)
    assert isinstance(trace.outcome, Closed)
    assert trace.outcome.winding == 1
    phi = np.linspace(0.0, TWO_PI, 4000, endpoint=False)
    exact = np.column_stack([np.log1p(0.5 * np.cos(phi)), 0.5 * np.sin(phi)])
    traced = np.array(trace.points)
    assert polyline_hausdorff(traced, exact) <= 1e-4


def test_example1_certificate_quarter(example1):
    cert = winding_certificate(example1, (0.0, 0.0), 0.25)
    assert cert.closed and cert.injective_on_orbit and cert.winding == 1


# ---- invariants along stored points ----

def test_energy_and_image_circle_invariants(example1, example3):
    for pmap, h in [(example1, 0.25), (example3, 0.45)]:
        cert = winding_certificate(pmap, (0.0, 0.0), h)
        assert cert.closed
        trace = cert.trace
        for (x, y) in trace.points:
            s = sample(pmap, (x, y))
            assert abs(s.hamiltonian - h) <= 1e-8 * (1 + h)
            v1, v2 = s.f_value
            assert abs(v1 * v1 + v2 * v2 - 2 * h) <= 2e-8 * (1 + h)


def test_theta_monotone_and_closure_angle(example1, identity_map):
    for pmap, h in [(example1, 0.25), (identity_map, 0.5)]:
        cert = winding_certificate(pmap, (0.0, 0.0), h)
        th = cert.trace.thetas
        assert all(b > a for a, b in zip(th, th[1:]))
        assert abs((th[-1] - th[0]) - TWO_PI * cert.winding) <= 1e-6


# ---- isochronous center ----

def test_example2_isochronous_periods(example2):
    for h in (0.01, 0.1, 0.4):
        cert = winding_certificate(example2, (0.0, 0.0), h)
        assert cert.closed, f"level {h} did not close"
        assert abs(cert.period - TWO_PI) <= 1e-5 * TWO_PI


# ---- the flower map: closure below 1/2, escape above ----

def test_example3_h045_closes_and_period_is_converged(example3):
    cert = winding_certificate(example3, (0.0, 0.0), 0.45)
    assert cert.closed and cert.injective_on_orbit
    tight = winding_certificate(example3, (0.0, 0.0), 0.45, rtol=5e-10, atol=5e-13)
    assert abs(cert.period - tight.period) <= 1e-6 * cert.period


def test_example3_h06_does_not_close(example3):
    cert = winding_certificate(example3, (0.0, 0.0), 0.6)
    assert not cert.closed
    assert not cert.injective_on_orbit
    assert isinstance(cert.trace.outcome, (Escaped, BudgetExhausted))


def test_example3_other_center(example3):
    cert = winding_certificate(example3, (0.0, 2 * math.pi), 0.45)
    assert cert.closed and cert.injective_on_orbit


# ---- start-point independence ----

def test_period_independent_of_start(example1):
    t1 = integrate_orbit(example1, level_start_point(example1, (0.0, 0.0), 0.25),
                         center=(0.0, 0.0))
    start2 = (0.0, math.sqrt(0.5))  # same level, +y ray
    assert abs(sample(example1, start2).hamiltonian - 0.25) <= 1e-12
    t2 = integrate_orbit(example1, start2, center=(0.0, 0.0))
    assert isinstance(t1.outcome, Closed) and isinstance(t2.outcome, Closed)
    assert abs(t1.outcome.period - t2.outcome.period) <= 1e-6 * t1.outcome.period


# ---- angular-speed identity ----

def test_angular_speed_identity_map(identity_map):
    trace = integrate_orbit(identity_map, (1.0, 0.0), center=(0.0, 0.0),
                            max_dtheta=0.01)
    assert angular_speed_check(identity_map, trace) <= 1e-6


def test_angular_speed_example2(example2):
    trace = integrate_orbit(example2, level_start_point(example2, (0.0, 0.0), 0.2),
                            center=(0.0, 0.0), max_dtheta=0.01)
    assert angular_speed_check(example2, trace) <= 1e-5


def test_angular_speed_example1(example1):
    trace = integrate_orbit(example1, level_start_point(example1, (0.0, 0.0), 0.25),
                            center=(0.0, 0.0), max_dtheta=0.01)
    assert angular_speed_check(example1, trace) <= 1e-4


# ---- level start points ----

def test_level_start_point_on_x_ray(example3):
    p = level_start_point(example3, (0.0, 2 * math.pi), 0.125)
    assert abs(p[1] - 2 * math.pi) <= 1e-12
    assert abs(p[0] - math.log(1.5)) <= 1e-9
    assert abs(sample(example3, p).hamiltonian - 0.125) <= 1e-12


def test_level_unreachable(identity_map):
    with pytest.raises(LevelUnreachable):
        level_start_point(identity_map, (0.0, 0.0), 500.0)


# ---- outcomes ----

def test_budget_when_return_never_matches(identity_map, monkeypatch):
    # no return lands within a zero tolerance of the start, so the orbit
    # winds until the angle budget runs out
    monkeypatch.setattr(trace_mod, "RETURN_TOL", 0.0)
    trace = integrate_orbit(identity_map, (1.0, 0.0), center=(0.0, 0.0))
    assert isinstance(trace.outcome, BudgetExhausted)
    assert not trace.outcome.stiff
    # it stopped at the last whole turn the budget allows
    assert trace.thetas[-1] - trace.thetas[0] == pytest.approx(3 * TWO_PI, abs=1e-12)


def test_escape_through_declared_box():
    pmap = PlanarMap(f1=parse_expr("x"), f2=parse_expr("y"),
                     domain=Box(-0.3, 0.5, -0.5, 0.5), name="clipped")
    trace = integrate_orbit(pmap, (0.4, 0.0), center=(0.0, 0.0))
    assert isinstance(trace.outcome, Escaped)
    assert trace.outcome.side == "xmin"
    assert trace.outcome.time > 0


def test_domain_failure_outcome():
    # H = (x + y^2)/2: the orbit follows x = 1 - y^2 and leaves x >= 0 at
    # (0, 1), t = 2; the step underflows on evaluation errors there
    pmap = PlanarMap(f1=parse_expr("sqrt(x)"), f2=parse_expr("y"), name="halfplane")
    trace = integrate_orbit(pmap, (1.0, 0.0), center=(0.0, 0.0))
    assert isinstance(trace.outcome, DomainFailure)
    assert trace.outcome.point == trace.points[-1]
    assert math.dist(trace.outcome.point, (0.0, 1.0)) < 1e-6
    assert "sqrt(x)" in trace.outcome.message


@pytest.mark.parametrize("kwargs", [
    {"rtol": 0.0, "atol": 1e-300},   # error norm can never be met
    {"rtol": 1e-300, "atol": 0.0},   # nor its relative part alone
])
def test_underflow_without_evaluation_error_is_stiff(example1, kwargs):
    # the norm bounds t alone, whose rate 1/det Df = e^-x varies on
    # example1's orbits (the identity's t would be integrated exactly)
    trace = integrate_orbit(example1, (0.5, 0.0), center=(0.0, 0.0), **kwargs)
    assert trace.outcome == BudgetExhausted(stiff=True)


def test_correct_returns_jet_at_returned_point(example3):
    jet_at = trace_mod._jet_at(example3)
    w = (0.5 * math.cos(0.3), 0.5 * math.sin(0.3))
    x, y, jet, converged = trace_mod._correct(jet_at, 0.5, 0.3, jet_at(0.5, 0.3), w, 1e-13)
    assert converged
    assert jet == example3.jet(x, y)
    assert abs(jet[0] - w[0]) <= 1e-13 and abs(jet[3] - w[1]) <= 1e-13


def _recording_map(pmap, points, step_ends):
    """A copy of ``pmap`` whose jet records each point it evaluates and
    whose orbit kernel records each step's end."""
    copy = PlanarMap(f1=pmap.f1, f2=pmap.f2, domain=pmap.domain, name=pmap.name)
    jet, kernel = pmap.jet, pmap.orbit_kernel

    def recording(x, y):
        points.append((x, y))
        return jet(x, y)

    def recording_kernel(*args):
        out = kernel(*args)
        step_ends.add(out[:2])
        return out

    vars(copy).update(jet=recording, orbit_kernel=recording_kernel)
    return copy


def test_accepted_point_evaluated_once(example1):
    # correction, window test and the next step's first stage share one
    # evaluation, and the kernel hands its last stage's jet to the
    # correction: no point is evaluated twice in a row, and the end
    # point of a step never by a separate jet call
    points, step_ends = [], set()
    pmap = _recording_map(example1, points, step_ends)
    trace = integrate_orbit(pmap, (0.5, 0.0), budget=AngleBudget(max_winding=1),
                            center=(0.0, 0.0))
    assert isinstance(trace.outcome, Closed)
    assert len(step_ends) >= 74
    assert all(a != b for a, b in zip(points, points[1:]))
    assert not step_ends.intersection(points)
    # at most one correction per accepted point
    assert len(points) <= len(trace.points)


# ---- the window, tested between accepted points ----

def test_exit_between_accepted_points_is_seen(example3):
    # the window edge y = -20 cuts the annulus of (0, -6 pi) at
    # 1/2 sin^2 20; just above, the orbit pokes out of the window for a
    # stretch far shorter than one step
    contact = 0.5 * math.sin(20.0) ** 2
    cert = winding_certificate(example3, (0.0, -6 * math.pi), contact + 1e-8)
    assert isinstance(cert.trace.outcome, Escaped)
    assert cert.trace.outcome.side == "ymin"
    exit_point = cert.trace.points[-1]
    assert exit_point[1] < -20.0
    assert abs(sample(example3, exit_point).hamiltonian - (contact + 1e-8)) <= 1e-12
    assert all(p[1] >= -20.0 for p in cert.trace.points[:-1])


def test_level_just_below_a_tangency_stays_inside(example3, monkeypatch):
    # just below the contact the step's interpolant crosses y = -20, but
    # the point there, corrected onto the level, does not
    interpolated = []
    real = trace_mod._hermite

    def recording(*args):
        interpolated.append(args)
        return real(*args)

    monkeypatch.setattr(trace_mod, "_hermite", recording)
    contact = 0.5 * math.sin(20.0) ** 2
    cert = winding_certificate(example3, (0.0, -6 * math.pi), contact - 1e-8)
    assert interpolated
    assert cert.injective_on_orbit


# ---- returns at whole turns of the image angle ----

@pytest.fixture
def square_map():
    # f = z^2 - 1: centers at (+-1, 0), det Df = 4|z|^2 vanishes at the origin
    return PlanarMap(f1=parse_expr("x^2 - y^2 - 1"), f2=parse_expr("2*x*y"), name="square")


def test_winding_two_return(square_map):
    # |z^2 - 1| = sqrt(2) is one oval round both centers, whose image winds
    # twice; half-way round (theta up one turn) the orbit crosses the start
    # line again at -start, which must not close it
    cert = winding_certificate(square_map, (1.0, 0.0), 1.0)
    assert isinstance(cert.trace.outcome, Closed) and cert.trace.outcome.winding == 2
    assert classify_certificate(cert) == (BAD, "winding=2")


def test_winding_two_return_past_a_one_turn_budget(square_map):
    cert = winding_certificate(square_map, (1.0, 0.0), 1.0,
                               budget=AngleBudget(max_winding=1))
    assert cert.trace.outcome == BudgetExhausted(stiff=False)


def test_level_start_is_the_centers_own_crossing(square_map):
    # the center's own oval at h = 0.498 crosses the x-axis at -0.0447,
    # in a thin band next to the origin where det Df -> 0; the lift of
    # the image ray stays in the center's sublevel component, so it does
    # not step over that crossing onto the oval round (1, 0)
    cert = winding_certificate(square_map, (-1.0, 0.0), 0.498)
    assert cert.start[0] == pytest.approx(-math.sqrt(1.0 - math.sqrt(0.996)), abs=1e-9)
    assert abs(cert.start[1]) <= 1e-12
    assert cert.closed and cert.winding == 1
    assert trace_mod._winds_once(cert.trace.points, (-1.0, 0.0))
    assert cert.injective_on_orbit


def test_lift_leaving_the_window_is_an_escape(identity_map):
    # |f| = sqrt(1000) lies beyond the window's edge x = 20 on the +x ray:
    # the center's sublevel component reaches the edge, which is BAD
    with pytest.raises(trace_mod.LiftEscaped):
        level_start_point(identity_map, (0.0, 0.0), 500.0)
    cert = winding_certificate(identity_map, (0.0, 0.0), 500.0)
    assert cert.trace.outcome.kind == "escaped" and not cert.closed
    assert classify_certificate(cert) == (BAD, "escaped:xmax")


def test_lift_stalling_at_a_fold_is_unreachable(square_map):
    # from (-1, 0) the lift of the image ray meets det Df = 0 at the
    # origin, where |f| = 1 < sqrt(1.2)
    with pytest.raises(LevelUnreachable) as err:
        level_start_point(square_map, (-1.0, 0.0), 0.6)
    assert not isinstance(err.value, trace_mod.LiftEscaped)


def test_winds_once_round_the_given_point_only():
    square = [(2.0, -1.0), (2.0, 1.0), (0.0, 1.0), (0.0, -1.0)]   # round (1, 0)
    assert trace_mod._winds_once(square, (1.0, 0.0))
    assert not trace_mod._winds_once(square, (-1.0, 0.0))
    assert not trace_mod._winds_once(square[::-1], (1.0, 0.0))


def test_one_off_level_point_voids_the_certificate(monkeypatch):
    # the orbit's second stored point is moved off the level after its
    # correction; among over a thousand points, every one is checked
    # (steps of at most 2 pi / 1100 make that many)
    c, s = math.cos(0.3), math.sin(0.3)
    pmap = PlanarMap(f1=parse_expr(f"{c!r}*x - {s!r}*y"),
                     f2=parse_expr(f"({s!r}*x + {c!r}*y)/100"), name="anisotropic")
    start = level_start_point(pmap, (0.0, 0.0), 0.01)
    monkeypatch.setattr(trace_mod, "level_start_point", lambda *args: start)
    correct, calls = trace_mod._correct, []

    def off_level_once(jet_at, x, y, jet, w, tol):
        calls.append(None)
        x, y, jet, converged = correct(jet_at, x, y, jet, w, tol)
        if len(calls) == 1:     # the correction of the orbit's first step
            return x + 1e-6, y, jet_at(x + 1e-6, y), False
        return x, y, jet, converged

    monkeypatch.setattr(trace_mod, "_correct", off_level_once)
    monkeypatch.setattr(trace_mod, "integrate_orbit", functools.partial(
        integrate_orbit, max_dtheta=TWO_PI / 1100))
    cert = winding_certificate(pmap, (0.0, 0.0), 0.01)
    assert cert.closed and cert.winding == 1 and len(cert.trace.points) > 1024
    assert not cert.injective_on_orbit
    assert classify_certificate(cert) == (INCONCLUSIVE, "invariant-violation")
    assert cert.trace.level_error > 1e-8 * (1.0 + cert.h)


@pytest.mark.parametrize("h,rel", [(0.1, 1e-8), (0.3, 1e-8), (0.45, 1e-8),
                                   (0.49999954793884643, 1e-6)])
def test_example1_period(example1, h, rel):
    # on example1's orbits e^x = 1 + r cos(theta) with r^2 = 2h, and
    # det Df = e^x, so T = integral of d(theta) / e^x = 2 pi / sqrt(1 - 2h):
    # the error norm's one coordinate, t, must still come out right
    period = winding_certificate(example1, (0.0, 0.0), h).period
    assert period == pytest.approx(TWO_PI / math.sqrt(1.0 - 2.0 * h), rel=rel)


def test_orientation_reversing_orbit_runs_back_in_time():
    # f = (x, -y): det Df = -1, so theta advances while t falls, and the
    # orbit winds clockwise; the period is |t|
    pmap = PlanarMap(f1=parse_expr("x"), f2=parse_expr("-y"), name="flip")
    cert = winding_certificate(pmap, (0.0, 0.0), 0.5)
    assert cert.trace.sign == -1 and cert.trace.times[-1] < 0.0
    assert cert.closed and cert.injective_on_orbit
    assert abs(cert.period - TWO_PI) <= 1e-8
    assert not trace_mod._winds_once(cert.trace.points, (0.0, 0.0))
    assert trace_mod._winds_once(cert.trace.points, (0.0, 0.0), -1)


@pytest.mark.parametrize("h", [1e-4, 1e-2])
def test_anisotropic_linear_map_closes(h):
    # f = diag(1, 1/100) R(0.3) p: ellipses of aspect 100, where the domain
    # angle turns fast at the ends of the long axis; period 2*pi/det = 200*pi
    c, s = math.cos(0.3), math.sin(0.3)
    pmap = PlanarMap(f1=parse_expr(f"{c!r}*x - {s!r}*y"),
                     f2=parse_expr(f"({s!r}*x + {c!r}*y)/100"), name="anisotropic")
    cert = winding_certificate(pmap, (0.0, 0.0), h)
    assert cert.closed and cert.injective_on_orbit and cert.winding == 1
    assert abs(cert.period - 200 * math.pi) <= 1e-8 * 200 * math.pi


def test_start_at_zero_rejected(identity_map):
    with pytest.raises(ValueError, match="zero"):
        integrate_orbit(identity_map, (0.0, 0.0), center=(0.0, 0.0))


def test_budget_dataclass_defaults():
    b = AngleBudget()
    assert b.max_winding == 3 and b.max_steps == 200_000

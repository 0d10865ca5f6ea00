"""Orbit integration, closure, winding certificates, angular speed."""

import math

import numpy as np
import pytest

from planarham import trace as trace_mod
from planarham.expr import DomainError, parse_expr
from planarham.field import Box, PlanarMap, sample
from planarham.trace import (
    AngleBudget,
    BudgetExhausted,
    Closed,
    DomainFailure,
    Escaped,
    LevelUnreachable,
    angular_speed_check,
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

def test_budget_without_section(identity_map):
    trace = integrate_orbit(identity_map, (1.0, 0.0))  # no center given
    assert isinstance(trace.outcome, BudgetExhausted)
    assert not trace.outcome.stiff
    assert trace.thetas[-1] - trace.thetas[0] > 3 * TWO_PI


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
    trace = integrate_orbit(pmap, (1.0, 0.0))
    assert isinstance(trace.outcome, DomainFailure)
    assert trace.outcome.point == trace.points[-1]
    assert math.dist(trace.outcome.point, (0.0, 1.0)) < 1e-6
    assert "sqrt(x)" in trace.outcome.message


@pytest.mark.parametrize("kwargs", [
    {"rtol": 0.0, "atol": 1e-300},   # error norm can never be met
    {"max_dtheta": 1e-300},          # dtheta cap can never be met
])
def test_underflow_without_evaluation_error_is_stiff(identity_map, kwargs):
    trace = integrate_orbit(identity_map, (1.0, 0.0), center=(0.0, 0.0), **kwargs)
    assert trace.outcome == BudgetExhausted(stiff=True)


def test_flow_dt_reraises_located_domain_error():
    pmap = PlanarMap(f1=parse_expr("sqrt(x)"), f2=parse_expr("y"), name="halfplane")
    flow = trace_mod._Flow(pmap, 0.5)
    with pytest.raises(DomainError, match=r"sqrt of a negative value in 'sqrt\(x\)'"):
        trace_mod._flow_dt(flow, 1e-3, 0.9995, 0.01, 1e-9, 1e-12, 0.01)


def test_flow_dt_signals_stiff_underflow(identity_map):
    # the error norm can never be met: the step underflows at once, and
    # the start point must not come back as the flow over dt
    flow = trace_mod._Flow(identity_map, 0.5)
    with pytest.raises(trace_mod.StiffUnderflow):
        trace_mod._flow_dt(flow, 1.0, 0.0, 0.5, rtol=0.0, atol=1e-300, h_init=0.01)


def test_stiff_return_refinement_ends_orbit_stiff(identity_map, monkeypatch):
    real_flow_dt = trace_mod._flow_dt

    def stiff_flow_dt(flow, x, y, dt, rtol, atol, h_init):
        return real_flow_dt(flow, x, y, dt, 0.0, 1e-300, h_init)

    monkeypatch.setattr(trace_mod, "_flow_dt", stiff_flow_dt)
    trace = integrate_orbit(identity_map, (1.0, 0.0), center=(0.0, 0.0))
    assert trace.outcome == BudgetExhausted(stiff=True)
    # it ended at the first return, not by running out of winding
    assert trace.thetas[-1] - trace.thetas[0] < 1.5 * TWO_PI


def test_project_returns_jet_at_returned_point(example3):
    flow = trace_mod._Flow(example3, 0.125)
    x, y, jet = flow.project(0.5, 0.3)
    assert jet == flow.jet(x, y)
    assert abs(sample(example3, (x, y)).hamiltonian - 0.125) <= 1e-12


def test_accepted_point_evaluated_once(example1, monkeypatch):
    # projection, image angle and the next step's first stage share one
    # evaluation, and the kernel hands its last stage's jet to the
    # projection: no point is evaluated twice in a row, and the end
    # point of a step never by a separate jet call
    points = []
    step_ends = set()
    real_flow = trace_mod._Flow

    class RecordingFlow(real_flow):
        def __init__(self, pmap, h_level):
            super().__init__(pmap, h_level)
            jet, kernel = self.jet, self.kernel

            def recording(x, y):
                points.append((x, y))
                return jet(x, y)

            def recording_kernel(*args):
                out = kernel(*args)
                step_ends.add(out[:2])
                return out

            self.jet = recording
            self.kernel = recording_kernel

    monkeypatch.setattr(trace_mod, "_Flow", RecordingFlow)
    # no center, so no return refinement: only accepted and rejected steps
    trace = integrate_orbit(example1, (0.5, 0.0), budget=AngleBudget(max_winding=1))
    assert trace.outcome == BudgetExhausted(stiff=False)
    assert len(step_ends) > 100
    assert all(a != b for a, b in zip(points, points[1:]))
    assert not step_ends.intersection(points)


def test_domain_error_in_return_refinement_ends_orbit(identity_map, monkeypatch):
    def off_domain(flow, section, p0, t0, h_step, rtol, atol):
        raise DomainError("sqrt of a negative value", parse_expr("sqrt(x)"), p0)

    monkeypatch.setattr(trace_mod, "_refine_return", off_domain)
    trace = integrate_orbit(identity_map, (1.0, 0.0), center=(0.0, 0.0))
    assert isinstance(trace.outcome, DomainFailure)
    assert trace.outcome.point == trace.points[-1]
    assert "sqrt(x)" in trace.outcome.message


def test_start_at_zero_rejected(identity_map):
    with pytest.raises(ValueError, match="zero"):
        integrate_orbit(identity_map, (0.0, 0.0))


def test_budget_dataclass_defaults():
    b = AngleBudget()
    assert b.max_winding == 3 and b.max_steps == 200_000

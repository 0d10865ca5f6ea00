"""Generated DP5 kernels against a stage-by-stage step from the tableau."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planarham import rk
from planarham import trace as trace_mod
from planarham.expr import DomainError, Poly2, compile_polys, parse_expr
from planarham.field import JET_ERRORS, PlanarMap, located_jet_failure
from planarham.trace import AngleBudget, Closed, integrate_orbit

# Dormand & Prince RK5(4)7M, written out independently of planarham.rk
A = ((1 / 5,),
     (3 / 40, 9 / 40),
     (44 / 45, -56 / 15, 32 / 9),
     (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
     (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _weighted(weights, ks, c):
    """sum of w * k[c] left to right, skipping the zero weights."""
    terms = [w * k[c] for w, k in zip(weights, ks) if w != 0.0]
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def reference_step(rhs, state, k1, h, rtol, atol):
    """One DP5 step of an autonomous field of (x, y), with a call per
    stage; ``state`` may carry further coordinates whose rates ``rhs``
    returns but does not read.  Returns (state5, enorm, k7)."""
    n = len(state)
    ks = [k1]
    for row in A:
        if len(row) == 1:   # the second stage is h * a21 * k1, not h * (a21 * k1)
            ks.append(rhs(state[0] + h * row[0] * k1[0], state[1] + h * row[0] * k1[1]))
        else:
            ks.append(rhs(*(state[c] + h * _weighted(row, ks, c) for c in range(2))))
    state5 = tuple(state[c] + h * _weighted(B, ks, c) for c in range(n))
    ks.append(rhs(*state5[:2]))
    squares = 0.0
    for c in range(n):
        e = h * _weighted(E, ks, c)
        r = e / (atol + rtol * max(abs(state[c]), abs(state5[c])))
        squares = r * r if c == 0 else squares + r * r
    return state5, math.sqrt(squares / n), ks[-1]


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# ---- polynomial fields ----

_coeffs = st.one_of(st.floats(min_value=-20, max_value=20, allow_nan=False),
                    st.sampled_from([1.0, -1.0, 0.5]))
_polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda ij: sum(ij) <= 6),
    _coeffs, max_size=10).map(Poly2.from_dict)
_coord = st.floats(min_value=-3, max_value=3, allow_nan=False)
_steps = st.one_of(st.floats(min_value=1e-8, max_value=0.5), st.sampled_from([1e-3, 0.1]))


@given(_polys, _polys, _coord, _coord, _steps, st.sampled_from([1.0, -1.0]))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_poly_kernel_equals_reference_step(p, q, x, y, h, direction):
    field = compile_polys(p, q)

    def rhs(u, v):
        fu, fv = field(u, v)
        return direction * fu, direction * fv

    k1 = rhs(x, y)
    kernel = rk.poly_kernel(p, q)
    try:
        want = reference_step(rhs, (x, y), k1, h, 1e-6, 1e-12)
    except OverflowError:
        with pytest.raises(OverflowError):
            rk.dp5_step(kernel, x, y, *k1, h, 1e-6, 1e-12, direction)
        return
    x5, y5, enorm, k7x, k7y = rk.dp5_step(kernel, x, y, *k1, h, 1e-6, 1e-12, direction)
    for got, w in zip((x5, y5, enorm, k7x, k7y), (*want[0], want[1], *want[2])):
        assert _same(got, w)


# ---- the lift of a map's image circle ----

def _located_rhs(pmap):
    """The lift field (-H_y, H_x, 1) / det Df with located errors, a call
    per point."""
    def rhs(x, y):
        try:
            v1, dx1, dy1, v2, dx2, dy2 = pmap.jet(x, y)
            idet = 1.0 / (dx1 * dy2 - dx2 * dy1)
        except JET_ERRORS as exc:
            raise located_jet_failure(pmap.f1, pmap.f2, (x, y), exc) from None
        return -(v1 * dy1 + v2 * dy2) * idet, (v1 * dx1 + v2 * dx2) * idet, idet
    return rhs


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
@pytest.mark.parametrize("h", [1e-4, 0.01, 0.3])
def test_orbit_kernel_equals_reference_step(name, h, request):
    pmap = request.getfixturevalue(name)
    rhs = _located_rhs(pmap)
    for x, y, t in [(0.5, 0.0, 0.0), (-0.7, 1.3, 2.5), (1.1, -2.4, 0.1), (0.05, 0.2, 7.0)]:
        k1 = rhs(x, y)
        try:
            want = reference_step(rhs, (x, y, t), k1, h, 1e-9, 1e-12)
        except ArithmeticError as err:   # a stage left the domain or overflowed
            with pytest.raises(type(err)) as got:
                rk.dp5_step(pmap.orbit_kernel, x, y, t, *k1, h, 1e-9, 1e-12)
            assert str(got.value) == str(err)
            continue
        x5, y5, t5, enorm, k7x, k7y, k7t, jet = rk.dp5_step(pmap.orbit_kernel, x, y, t,
                                                            *k1, h, 1e-9, 1e-12)
        assert ((x5, y5, t5), enorm, (k7x, k7y, k7t)) == want
        assert jet == pmap.jet(x5, y5)


def test_failing_stage_is_located_at_the_stage_point():
    # the lift of H = (x + y^2)/2 is (x, y) = (cos^2 theta, sin theta):
    # from x = 0.003 the step runs into x < 0 at a later stage, never at
    # the base point
    pmap = PlanarMap(f1=parse_expr("sqrt(x)"), f2=parse_expr("y"), name="halfplane")
    rhs = _located_rhs(pmap)
    for h in (0.06, 0.1, 0.3):
        x, y = 0.003, math.sqrt(1.0 - 0.003)
        k1 = rhs(x, y)
        with pytest.raises(DomainError) as want:
            reference_step(rhs, (x, y, 0.0), k1, h, 1e-9, 1e-12)
        with pytest.raises(DomainError) as got:
            rk.dp5_step(pmap.orbit_kernel, x, y, 0.0, *k1, h, 1e-9, 1e-12)
        assert got.value.point == want.value.point != (x, y)
        assert str(got.value) == str(want.value)
        assert "sqrt of a negative value in 'sqrt(x)'" in str(got.value)


def test_domain_failure_names_the_stage_point():
    pmap = PlanarMap(f1=parse_expr("sqrt(x)"), f2=parse_expr("y"), name="halfplane")
    trace = integrate_orbit(pmap, (1.0, 0.0), center=(0.0, 0.0))
    assert isinstance(trace.outcome, trace_mod.DomainFailure)
    # the last trial step failed at one of its stage points, x < 0
    at = trace.outcome.message.rsplit(" at ", 1)[1]
    x_stage = float(at.strip("()").split(",")[0])
    assert x_stage < 0.0
    assert at != str(trace.outcome.point)


def test_dp5_step_runs_once_per_trial_step(example3, monkeypatch):
    calls = {"dp5_step": 0, "kernel": 0}
    real_step = trace_mod.dp5_step
    kernel = example3.orbit_kernel

    def counted_step(*args):
        calls["dp5_step"] += 1
        return real_step(*args)

    def counting(*args):
        calls["kernel"] += 1
        return kernel(*args)

    pmap = PlanarMap(f1=example3.f1, f2=example3.f2, name="counted")
    vars(pmap)["orbit_kernel"] = counting
    monkeypatch.setattr(trace_mod, "dp5_step", counted_step)
    # a closed orbit: accepted and rejected steps
    trace = integrate_orbit(pmap, (0.5, 0.0), budget=AngleBudget(max_winding=2),
                            center=(0.0, 0.0))
    assert isinstance(trace.outcome, Closed)
    assert calls["dp5_step"] == calls["kernel"] >= len(trace.points) - 1

"""Compactified fields: charts, equator roots, sectors, Conti type."""

import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarham import corpus
from planarham.annulus import SIGN_CHANGE, GlobalVerdict
from planarham.brent import brent_root
from planarham.cli import _compactification_block
from planarham.compactify import (ROOT_RESIDUAL, SCAN_N, VALLEY_DEPTHS, ContiVerdict,
                                  EquatorDegenerate, InfinitySingularity, _chart_for, build_compactification,
                                  classify_sectors, compactification_for_map, conti_verdict,
                                  infinite_singularities)
from planarham.expr import Poly2, compile_polys, parse_expr, to_poly
from planarham.field import parse_map_spec


def double_well_poly() -> Poly2:
    return to_poly(parse_expr("0.5*((x^2 - 1)^2 + y^2)"))


def cubic_poly() -> Poly2:
    # H = x^3 + y^3: even field degree, sign-changing equator polynomial
    return to_poly(parse_expr("x^3 + y^3"))


@pytest.fixture(scope="module")
def cf2(example2):
    return compactification_for_map(example2)


@pytest.fixture(scope="module")
def sings2(example2, cf2):
    return [classify_sectors(example2, cf2, s) for s in infinite_singularities(cf2)]


@pytest.fixture(scope="module")
def cf_identity(identity_map):
    return compactification_for_map(identity_map)


# ===== field construction ===== #


def test_example2_field_components_frozen(cf2):
    assert cf2.degree == 7
    assert cf2.warnings == ()


def test_identity_compactification(cf_identity):
    cf = cf_identity
    assert cf.degree == 1
    assert cf.equator_poly.as_dict() == {(0, 2): 1.0, (2, 0): 1.0}
    assert infinite_singularities(cf) == []


@pytest.mark.parametrize("hpoly_fn", [double_well_poly, cubic_poly])
def test_euler_identity_for_equator_poly(hpoly_fn):
    # c * Q_d - s * P_d is m * H_m for H of degree m: the equator
    # polynomial is the top form of H up to the factor m
    hpoly = hpoly_fn()
    cf = build_compactification(hpoly)
    m = hpoly.degree()
    assert cf.degree == m - 1
    expected = hpoly.top_form().scale(float(m))
    got = cf.equator_poly.as_dict()
    want = expected.as_dict()
    assert got.keys() == want.keys()
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12)


def test_euler_identity_example2(cf2, example2):
    hpoly = example2.declared_hamiltonian
    expected = hpoly.top_form().scale(float(hpoly.degree()))
    assert cf2.equator_poly.as_dict() == pytest.approx(expected.as_dict())


def test_degree_rejection():
    with pytest.raises(ValueError):
        build_compactification(Poly2.from_dict({(1, 0): 1.0}))
    with pytest.raises(ValueError):
        build_compactification(Poly2.from_dict({(0, 0): 3.0}))


def test_vanishing_component_flagged():
    cf = build_compactification(to_poly(parse_expr("x^3")))
    assert cf.warnings
    assert build_compactification(cubic_poly()).warnings == ()


def _pair_field_equator(hpoly: Poly2):
    """The reference: degree, warnings and equator polynomial of the pair
    field (P, Q) = (-H_y, H_x), g = u Q_d - v P_d with the top forms
    taken at the field degree d."""
    p, q = -hpoly.dy(), hpoly.dx()
    d = max(p.degree(), q.degree())
    if d < 1:
        raise ValueError("field degree below 1")
    warnings = ("a field component vanishes identically; the field is singular "
                "along a curve",) if not (p.terms and q.terms) else ()
    u = Poly2.from_dict({(1, 0): 1.0})
    v = Poly2.from_dict({(0, 1): 1.0})
    pd = Poly2.from_dict({(i, j): c for c, i, j in p.terms if i + j == d})
    qd = Poly2.from_dict({(i, j): c for c, i, j in q.terms if i + j == d})
    return d, warnings, u * qd - v * pd


_h_polys = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda ij: sum(ij) <= 12),
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-9, 9).map(float)),
    max_size=12).map(Poly2.from_dict)


@given(_h_polys)
@settings(max_examples=500, deadline=None)
def test_equator_poly_equals_the_pair_field_construction(hpoly):
    try:
        d, warnings, g = _pair_field_equator(hpoly)
    except ValueError:
        assert hpoly.degree() <= 1
        with pytest.raises(ValueError):
            build_compactification(hpoly)
        return
    cf = build_compactification(hpoly)
    assert cf.degree == d
    assert cf.warnings == warnings
    assert [(repr(c), i, j) for c, i, j in cf.equator_poly.terms] == \
        [(repr(c), i, j) for c, i, j in g.terms]


# ===== equator roots ===== #


def test_example2_equator_roots(cf2):
    assert cf2.equator_poly.as_dict() == {(6, 2): 4.0}
    sings = infinite_singularities(cf2)
    assert len(sings) == 2
    a, b = sings
    assert a.theta == 0.0
    assert a.chart == "U1"
    assert a.u == 0.0
    assert abs(b.theta - math.pi / 2) <= 1e-9
    assert b.chart == "U2"
    assert abs(b.u) <= 1e-12


def test_scan_density_insensitive(cf2):
    coarse = infinite_singularities(cf2, scan_n=512)
    fine = infinite_singularities(cf2, scan_n=4096)
    assert len(coarse) == len(fine) == 2
    for c, f in zip(coarse, fine):
        assert abs(c.theta - f.theta) <= 1e-9


def test_sign_change_root():
    # G = 3(c^3 + s^3) changes sign at theta = 3pi/4
    cf = build_compactification(cubic_poly())
    sings = infinite_singularities(cf)
    assert len(sings) == 1
    s = sings[0]
    assert abs(s.theta - 3 * math.pi / 4) <= 1e-12
    # |cos| == |sin| up to one ulp here, so the chart pick is a tie;
    # the abscissa is -1 in both charts
    assert s.chart in ("U1", "U2")
    assert s.u == pytest.approx(-1.0, abs=1e-12)


def test_a_sign_change_at_the_wrap_that_g_does_not_show_at_pi():
    # G = 2cs + 2.4e-59 c^2: G(pi - step) < 0 < G(0), but at the float pi,
    # a hair below the real one, G is negative too, so no bracket holds
    # the root at theta = -1.2e-59 (mod pi), which reads as 0
    cf = build_compactification(Poly2.from_dict({(1, 1): 1.0, (2, 0): 1.2e-59}))
    sings = infinite_singularities(cf)
    assert [(s.theta, s.chart) for s in sings] == [(0.0, "U1"), (math.pi / 2, "U2")]
    assert repr(sings) == repr(_scalar_infinite_singularities(cf))


def test_double_well_equator_root():
    cf = build_compactification(double_well_poly())
    assert cf.equator_poly.as_dict() == {(4, 0): 2.0}
    sings = infinite_singularities(cf)
    assert len(sings) == 1
    assert abs(sings[0].theta - math.pi / 2) <= 1e-9
    assert sings[0].chart == "U2"
    assert abs(sings[0].u) <= 1e-12


def test_equator_degenerate_raises(cf_identity):
    broken = replace(cf_identity, equator_poly=Poly2.zero())
    with pytest.raises(EquatorDegenerate):
        infinite_singularities(broken)


@pytest.mark.parametrize("terms", [{(2, 0): math.inf, (0, 2): 1.0},
                                   {(6, 0): 1.5e308, (0, 2): 1.0}])
def test_an_overflowing_equator_polynomial_is_inconclusive(cf_identity, terms):
    # an infinite coefficient of g, then one of its partial in x (6 * 1.5e308)
    broken = replace(cf_identity, equator_poly=Poly2.from_dict(terms))
    with pytest.raises(EquatorDegenerate, match="non-finite coefficient"):
        infinite_singularities(broken)


def _scalar_infinite_singularities(cf, scan_n=SCAN_N):
    """The scalar scan that the array pass of infinite_singularities
    replaced, kept as its reference: G sampled one angle at a time, each
    sample's brackets tried in a Python loop."""
    g = cf.equator_poly
    g0_at = compile_polys(g)
    g1_at = compile_polys(g.dx(), g.dy())

    def G(t):
        return g0_at(math.cos(t), math.sin(t))[0]

    def G1(t):
        c, s = math.cos(t), math.sin(t)
        vx, vy = g1_at(c, s)
        return -s * vx + c * vy

    step = math.pi / scan_n
    thetas = [k * step for k in range(scan_n)]
    vals = [G(t) for t in thetas]
    scale = max(1.0, max(abs(x) for x in vals))
    if all(abs(x) <= 1e-12 * scale for x in vals):
        raise EquatorDegenerate("equator polynomial vanishes identically")
    wrap_sign = 1.0 if (cf.degree + 1) % 2 == 0 else -1.0

    def val(k):
        q, r = divmod(k, scan_n)
        return vals[r] * (wrap_sign ** q)

    roots = []

    def push(t):
        t = t % math.pi
        for r in roots:
            if abs(t - r) <= 1e-8 or abs(abs(t - r) - math.pi) <= 1e-8:
                return
        if abs(G(t)) <= ROOT_RESIDUAL * scale:
            roots.append(t)

    for k in range(scan_n):
        a, b = thetas[k], thetas[k] + step
        va, vb = val(k), val(k + 1)
        if va == 0.0:
            push(a)
        elif va * vb < 0.0:
            ga, gb = G(a), G(b)
            if min(ga, gb) <= 0.0 <= max(ga, gb):
                push(brent_root(G, a, b, xtol=1e-15, maxiter=200))
            else:
                push(b)
        if abs(va) <= 1e-3 * scale and va <= abs(val(k - 1)) and va <= abs(vb):
            lo, hi = a - step, a + step
            if G1(lo) < 0.0 < G1(hi):
                push(brent_root(G1, lo, hi, xtol=1e-15, maxiter=200))

    return [InfinitySingularity(t, *_chart_for(t)) for t in sorted(roots)]


def _scan_outcome(scan, cf, scan_n=SCAN_N):
    try:
        return repr(scan(cf, scan_n))
    except EquatorDegenerate as exc:
        return f"{type(exc).__name__}({exc})"


def _homogeneous(draw, degree):
    """A form of the given degree with small integer or float coefficients."""
    coeffs = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
    return Poly2.from_dict({(i, degree - i): draw(coeffs) for i in range(degree + 1)})


@st.composite
def equator_hamiltonians(draw):
    """Top forms H_m of degree 2..12: generic, squares (touching roots),
    with a factor x*y (roots at the sample angles 0 and pi/2), and scaled
    down to the degenerate test's threshold or up."""
    x, y = Poly2.from_dict({(1, 0): 1.0}), Poly2.from_dict({(0, 1): 1.0})
    kind = draw(st.sampled_from(["generic", "square", "xy", "xy-square"]))
    m = draw(st.integers(2, 12))
    if kind == "generic":
        h = _homogeneous(draw, m)
    elif kind == "square":
        h = _homogeneous(draw, max(1, m // 2)).pow_int(2)
    elif kind == "xy":
        h = x * y * _homogeneous(draw, m - 2)
    else:
        h = x * y * _homogeneous(draw, max(1, m // 2 - 1)).pow_int(2)
    return h.scale(draw(st.sampled_from([1.0, 1e-13, 3e-12, 1e6])))


@settings(max_examples=200, deadline=None)
@given(equator_hamiltonians(), st.sampled_from([SCAN_N, 512, 333]))
def test_array_scan_equals_the_scalar_scan(hpoly, scan_n):
    if hpoly.degree() < 2:
        return
    cf = build_compactification(hpoly)
    assert (_scan_outcome(infinite_singularities, cf, scan_n)
            == _scan_outcome(_scalar_infinite_singularities, cf, scan_n))


# ===== sector classification ===== #


def test_example2_sector_classification(sings2):
    by_theta = {round(s.theta, 6): s for s in sings2}
    along_x = by_theta[0.0]
    along_y = by_theta[round(math.pi / 2, 6)]
    assert along_x.classification == "has-nondegenerate-sector"
    assert along_x.confidence >= 0.9
    # H levels at 1/2 along the x axis on both sides: |f| -> (1, 0)
    assert along_x.evidence == ("bounded", "bounded")
    for floors in along_x.valley:
        assert len(floors) == len(VALLEY_DEPTHS)
        assert floors[-1] == pytest.approx(0.5, abs=1e-9)
    assert along_y.classification == "two-degenerate-hyperbolic"
    assert along_y.confidence >= 0.9
    assert along_y.evidence == ("coercive", "coercive")
    for floors in along_y.valley:
        assert all(b > 10.0 * a for a, b in zip(floors, floors[1:]))


def classify_map(pmap):
    cf = compactification_for_map(pmap)
    return [classify_sectors(pmap, cf, s) for s in infinite_singularities(cf)]


def test_double_well_sectors():
    # compact level sets: H grows into the cone on both sides
    pmap = parse_map_spec('f1 = "x^2 - 1"\nf2 = "y"\n', "double well", "double_well")
    assert compactification_for_map(pmap) == build_compactification(double_well_poly())
    (c,) = classify_map(pmap)
    assert c.classification == "two-degenerate-hyperbolic"
    assert c.confidence >= 0.9


def test_classification_follows_a_swap_of_the_axes(sings2):
    # example2 with x and y swapped: the bounded valley moves to the y
    # axis, chart U2, and the coercive point to the x axis, chart U1
    swapped = parse_map_spec('''
f1 = "y/sqrt(1 + y^2)"
f2 = "(y^2 + (1 + y^2)^2*x)/sqrt(1 + y^2)"
hamiltonian = "0.5*(1 + y^2)^3*x^2 + y^2*(1 + y^2)*x + 0.5*y^2"
''', "swapped example2", "swapped")
    by_theta = {round(s.theta, 6): s for s in classify_map(swapped)}
    for s in sings2:
        mirror = by_theta[round(math.pi / 2 - s.theta, 6)]
        assert mirror.chart != s.chart
        assert mirror.classification == s.classification
        assert mirror.evidence == s.evidence


def test_classify_deterministic(example2, cf2):
    s = infinite_singularities(cf2)[0]
    a = classify_sectors(example2, cf2, s)
    b = classify_sectors(example2, cf2, s)
    assert a == b


def _spec(f1: str, f2: str, hamiltonian: str | None = None) -> str:
    text = f'f1 = "{f1}"\nf2 = "{f2}"\n'
    return text + (f'hamiltonian = "{hamiltonian}"\n' if hamiltonian else "")


# The seed fan's classifications (16 seeds a side, integrated both ways
# in the chart field) on each map's infinite singular points, keyed by
# round(theta, 6); the valley classifier must reproduce them.  The
# generated maps are the benchmark's: `polynomial`'s stripscaled_a and
# tri3_a at seeds 7 and 11, `small-maps`' triangular maps r0_m1 and
# r0_m7 at seeds 1 and 7.
_N, _H = "has-nondegenerate-sector", "two-degenerate-hyperbolic"
_Y = round(math.pi / 2, 6)
FAN_GATE = {
    "example2": ("builtin:example2", {0.0: _N, _Y: _H}),
    "control_noninjective": ("builtin:control_noninjective", {_Y: _H}),
    "parabola": (_spec("x", "y + x^2"), {_Y: _H}),
    "double_well": (_spec("x^2 - 1", "y"), {_Y: _H}),
    "stripscaled_a_7": (_spec(
        "0.94729*x/sqrt(1 + 0.8973583440999999*x^2)",
        "(0.8973583440999999*x^2 + (1 + 0.8973583440999999*x^2)^2*1.00032*y)"
        "/sqrt(1 + 0.8973583440999999*x^2)",
        "0.5*(1 + 0.8973583440999999*x^2)^3*1.0006401024000002*y^2"
        " + 0.8973583440999999*x^2*(1 + 0.8973583440999999*x^2)*1.00032*y"
        " + 0.5*0.8973583440999999*x^2"), {0.0: _N, _Y: _H}),
    "stripscaled_a_11": (_spec(
        "1.16406*x/sqrt(1 + 1.3550356836000002*x^2)",
        "(1.3550356836000002*x^2 + (1 + 1.3550356836000002*x^2)^2*0.97827*y)"
        "/sqrt(1 + 1.3550356836000002*x^2)",
        "0.5*(1 + 1.3550356836000002*x^2)^3*0.9570121929*y^2"
        " + 1.3550356836000002*x^2*(1 + 1.3550356836000002*x^2)*0.97827*y"
        " + 0.5*1.3550356836000002*x^2"), {0.0: _N, _Y: _H}),
    "tri3_a_7": (_spec(
        "1.08675*(x - -1.82695)",
        "1.03657*(y - -1.27437) + 0.0249778*(x - -1.82695)^1"
        " + 0.106845*(x - -1.82695)^2 + -0.0102851*(x - -1.82695)^3"), {_Y: _H}),
    "tri3_a_11": (_spec(
        "1.01857*(x - 1.29274)",
        "0.956278*(y - -0.0327492) + 0.0991283*(x - 1.29274)^1"
        " + -0.120845*(x - 1.29274)^2 + 0.0103032*(x - 1.29274)^3"), {_Y: _H}),
    "r0_m1_1": (_spec(
        "1.00053*(x - -0.424016)",
        "1.01932*(y - -0.128558) + 0.059904*(x - -0.424016)^1"
        " + -0.139676*(x - -0.424016)^2"), {_Y: _H}),
    "r0_m7_1": (_spec(
        "0.989573*(x - -1.45844)",
        "1.07257*(y - 1.48706) + -0.036815*(x - -1.45844)^1"
        " + -0.146559*(x - -1.45844)^2"), {_Y: _H}),
    "r0_m1_7": (_spec(
        "1.09663*(x - -0.716614)",
        "0.985185*(y - -1.35035) + -0.0910703*(x - -0.716614)^1"
        " + 0.116529*(x - -0.716614)^2"), {_Y: _H}),
    "r0_m7_7": (_spec(
        "1.06274*(x - -0.95844)",
        "0.982218*(y - 1.48895) + 0.0745634*(x - -0.95844)^1"
        " + 0.14881*(x - -0.95844)^2"), {_Y: _H}),
}


@pytest.mark.parametrize("name", sorted(FAN_GATE))
def test_valleys_agree_with_the_seed_fan(name):
    source, want = FAN_GATE[name]
    if source.startswith("builtin:"):
        pmap = corpus.builtin(source.removeprefix("builtin:"))
    else:
        pmap = parse_map_spec(source, name, name)
    got = {round(s.theta, 6): s for s in classify_map(pmap)}
    assert {t: s.classification for t, s in got.items()} == want
    # every side settled, as every seed of the fan was conclusive
    assert all(s.confidence == 1.0 for s in got.values())


@pytest.mark.parametrize("name", sorted(FAN_GATE))
def test_array_scan_equals_the_scalar_scan_on_the_gate_maps(name):
    source, _ = FAN_GATE[name]
    if source.startswith("builtin:"):
        pmap = corpus.builtin(source.removeprefix("builtin:"))
    else:
        pmap = parse_map_spec(source, name, name)
    cf = compactification_for_map(pmap)
    assert (_scan_outcome(infinite_singularities, cf)
            == _scan_outcome(_scalar_infinite_singularities, cf))


def test_a_valley_between_two_samples_is_found():
    # (x, y + x^5) maps the plane onto itself, so H is coercive.  Its
    # valley follows y = -x^5: at depth 1e-5 it is about 2e-9 wide in u,
    # between samples 3.9e-4 apart, beside a local minimum of H on a
    # sample (H = 5e9 at x = 0).  The sign change of f2 finds it.
    (s,) = classify_map(parse_map_spec(_spec("x", "y + x^5"), "quintic", "quintic"))
    assert s.classification == "two-degenerate-hyperbolic"
    assert s.evidence == ("coercive", "coercive")
    for floors in s.valley:
        # |x| = 10 where y + x^5 = 0 and |y| = 1e5: H = x^2 / 2
        assert floors[3] == pytest.approx(50.0, rel=1e-6)


def test_pinchuk200_points_at_infinity():
    # the fan called both points "has-nondegenerate-sector" after 47 s;
    # along the x axis the valley levels at |(0, -200)|^2 / 2 = 20000
    pmap = corpus.builtin("pinchuk200", enable_extended=True)
    sings = {round(s.theta, 6): s for s in classify_map(pmap)}
    assert sorted(sings) == [0.0, _Y]
    assert all(s.classification != "two-degenerate-hyperbolic" for s in sings.values())
    along_x = sings[0.0]
    assert along_x.classification == "has-nondegenerate-sector"
    assert along_x.evidence[0] == "bounded"
    assert along_x.valley[0][-1] == pytest.approx(20000.0, rel=1e-9)


# ===== Conti verdict ===== #


def report_with(verdict: str) -> SimpleNamespace:
    return SimpleNamespace(verdict=GlobalVerdict(verdict, ()))


def test_conti_example2(sings2):
    # both routes say B: (d) fails on the nondegenerate sector, and the
    # annulus route's not-global fails (a)
    v = conti_verdict([report_with("not-global")], sings2)
    assert v == ContiVerdict("B", True, ())


def test_conti_identity():
    # no infinite singular points: (d) holds, as (a) does by the annulus route
    v = conti_verdict([report_with("global")], [])
    assert v == ContiVerdict("A", True, ())


def test_conti_not_applicable(example1):
    # H is not polynomial: the report skips the compactification
    warnings: list[str] = []
    assert _compactification_block(example1, [], warnings) == ("not-applicable", 0, 0, False)
    assert warnings == []


def test_conti_requires_reports(identity_map):
    # with no analyzed center there is no annulus route to cross-check
    warnings: list[str] = []
    block, _, _, inconclusive = _compactification_block(identity_map, [], warnings)
    assert not inconclusive
    assert (block["conti_type"], block["routes_agree"]) == ("not-applicable", True)
    assert "conti: skipped, no analyzed center" in warnings


def test_conti_route_disagreement_flagged():
    v = conti_verdict([report_with("not-global")], [])
    assert not v.routes_agree
    assert any("inconsistency" in n for n in v.notes)


def _dummy_singularity():
    from planarham.compactify import InfinitySingularity
    return InfinitySingularity(theta=0.0, chart="U1", u=0.0)


def test_conti_undetermined_falls_back():
    unclassified = _dummy_singularity()   # classification "unclassified"
    v = conti_verdict([report_with("global")], [unclassified])
    assert v.conti_type == "A"
    assert any("incomplete" in n for n in v.notes)
    v2 = conti_verdict([report_with("inconclusive")], [unclassified])
    # no route decided: no type is stated
    assert v2.conti_type == "undetermined"
    assert any("undetermined" in n for n in v2.notes)


def test_conti_not_applicable_on_jacobian_sign_change():
    # a sign change of det Df voids the hypothesis of both routes, even
    # when the singularity route alone would say type A
    voided = SimpleNamespace(verdict=GlobalVerdict(
        "inconclusive", (SIGN_CHANGE, "det Df > 0 at p but < 0 at q")))
    v = conti_verdict([voided, report_with("global")], [])
    assert v == ContiVerdict("not-applicable", True, (
        "det Df changes sign; the type classification does not apply",))

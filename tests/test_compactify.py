"""Compactified fields: charts, equator roots, sectors, Conti type."""

import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from planarham.annulus import GlobalVerdict
from planarham.compactify import (CompactifiedField, EquatorDegenerate,
                                  build_compactification, classify_sectors,
                                  compactification_for_map, conti_verdict,
                                  infinite_singularities)
from planarham.expr import Poly2, parse_expr, to_poly


def double_well_poly() -> Poly2:
    return to_poly(parse_expr("0.5*((x^2 - 1)^2 + y^2)"))


def cubic_poly() -> Poly2:
    # H = x^3 + y^3: even field degree, sign-changing equator polynomial
    return to_poly(parse_expr("x^3 + y^3"))


@pytest.fixture(scope="module")
def cf2(example2):
    return compactification_for_map(example2)


@pytest.fixture(scope="module")
def sings2(cf2):
    return [classify_sectors(cf2, s) for s in infinite_singularities(cf2)]


@pytest.fixture(scope="module")
def cf_identity(identity_map):
    return compactification_for_map(identity_map)


# ===== chart construction ===== #


def test_example2_field_components_frozen(cf2):
    assert cf2.degree == 7
    assert cf2.p.as_dict() == {(0, 1): -1.0, (2, 0): -1.0, (2, 1): -3.0,
                               (4, 0): -1.0, (4, 1): -3.0, (6, 1): -1.0}
    assert cf2.q.as_dict() == {(1, 0): 1.0, (1, 1): 2.0, (1, 2): 3.0,
                               (3, 1): 4.0, (3, 2): 6.0, (5, 2): 3.0}
    assert cf2.warnings == ()


def test_example2_chart_fields_frozen(cf2):
    assert cf2.u1[0].as_dict() == {(0, 6): 1.0, (1, 3): 5.0, (1, 5): 3.0,
                                   (2, 0): 4.0, (2, 2): 9.0, (2, 4): 6.0,
                                   (2, 6): 1.0}
    assert cf2.u1[1].as_dict() == {(0, 4): 1.0, (0, 6): 1.0, (1, 1): 1.0,
                                   (1, 3): 3.0, (1, 5): 3.0, (1, 7): 1.0}
    assert cf2.u2[0].as_dict() == {(0, 6): -1.0, (2, 4): -6.0, (2, 5): -3.0,
                                   (2, 6): -1.0, (4, 2): -9.0, (4, 3): -5.0,
                                   (6, 0): -4.0}
    assert cf2.u2[1].as_dict() == {(1, 5): -3.0, (1, 6): -2.0, (1, 7): -1.0,
                                   (3, 3): -6.0, (3, 4): -4.0, (5, 1): -3.0}


def test_identity_compactification(cf_identity):
    cf = cf_identity
    assert cf.degree == 1
    assert cf.u1[0].as_dict() == {(0, 0): 1.0, (2, 0): 1.0}
    assert cf.u1[1].as_dict() == {(1, 1): 1.0}
    assert cf.u2[0].as_dict() == {(0, 0): -1.0, (2, 0): -1.0}
    assert cf.u2[1].as_dict() == {(1, 1): -1.0}
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


def test_equator_invariance_coefficient_level(cf2, cf_identity):
    # v' must vanish on v = 0: every monomial carries at least one v
    for cf in (cf2, cf_identity, build_compactification(double_well_poly())):
        for name in ("U1", "U2", "V1", "V2"):
            _, vdot = cf.chart(name)
            assert all(j >= 1 for _, _, j in vdot.terms), name


def test_antipodal_charts_odd_degree(cf2, cf_identity):
    # odd field degree: the antipodal charts carry the identical field,
    # so antipodal singular points get the same classification for free
    for cf in (cf2, cf_identity):
        assert cf.v1 == cf.u1
        assert cf.v2 == cf.u2


def test_antipodal_charts_even_degree():
    cf = build_compactification(cubic_poly())
    assert cf.degree == 2
    assert cf.v1 == (-cf.u1[0], -cf.u1[1])
    assert cf.v2 == (-cf.u2[0], -cf.u2[1])


def test_degree_rejection():
    with pytest.raises(ValueError):
        build_compactification(Poly2.from_dict({(1, 0): 1.0}))
    with pytest.raises(ValueError):
        build_compactification(Poly2.from_dict({(0, 0): 3.0}))


def test_vanishing_component_flagged():
    cf = build_compactification(to_poly(parse_expr("x^3")))
    assert cf.warnings
    assert build_compactification(cubic_poly()).warnings == ()


def test_chart_overlap_consistency(cf2, cf_identity):
    # on the overlap the chart fields are positive multiples of each
    # other's pushforward (field degree odd for both maps here)
    rng = random.Random(7)
    for cf in (cf2, cf_identity):
        for _ in range(100):
            u = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0)
            v = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
            x1 = (cf.u1[0].eval(u, v), cf.u1[1].eval(u, v))
            u2, v2 = 1.0 / u, v / u
            x2 = (cf.u2[0].eval(u2, v2), cf.u2[1].eval(u2, v2))
            # pushforward through (u, v) -> (1/u, v/u)
            w = (-x1[0] / u ** 2, -v * x1[0] / u ** 2 + x1[1] / u)
            nw = math.hypot(*w)
            n2 = math.hypot(*x2)
            cross = w[0] * x2[1] - w[1] * x2[0]
            dot = w[0] * x2[0] + w[1] * x2[1]
            assert abs(cross) <= 1e-6 * nw * n2 + 1e-300
            assert dot > 0.0


# ===== equator roots ===== #


def test_example2_equator_roots(cf2):
    assert cf2.equator_poly.as_dict() == {(6, 2): 4.0}
    sings = infinite_singularities(cf2)
    assert len(sings) == 2
    a, b = sings
    assert a.theta == 0.0
    assert a.chart == "U1"
    assert a.u == 0.0
    assert not a.degenerate_root        # plain double root of G
    assert abs(b.theta - math.pi / 2) <= 1e-9
    assert b.chart == "U2"
    assert abs(b.u) <= 1e-12
    assert b.degenerate_root            # order-six root of G
    assert all(s.residual <= 1e-9 for s in sings)


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
    assert not s.degenerate_root


def test_double_well_equator_root():
    cf = build_compactification(double_well_poly())
    assert cf.equator_poly.as_dict() == {(4, 0): 2.0}
    sings = infinite_singularities(cf)
    assert len(sings) == 1
    assert abs(sings[0].theta - math.pi / 2) <= 1e-9
    assert sings[0].degenerate_root     # order-four root


def test_equator_degenerate_raises(cf_identity):
    broken = replace(cf_identity, equator_poly=Poly2.zero())
    with pytest.raises(EquatorDegenerate):
        infinite_singularities(broken)


# ===== sector classification ===== #


def test_example2_sector_classification(sings2):
    by_theta = {round(s.theta, 6): s for s in sings2}
    along_x = by_theta[0.0]
    along_y = by_theta[round(math.pi / 2, 6)]
    assert along_x.classification == "has-nondegenerate-sector"
    assert along_x.confidence >= 0.9
    assert "converge" in along_x.evidence
    assert along_y.classification == "two-degenerate-hyperbolic"
    assert along_y.confidence >= 0.9
    assert set(along_y.evidence) == {"sweep"}


def test_double_well_sectors():
    # compact level sets: everything sweeps past the infinite point
    cf = build_compactification(double_well_poly())
    (s,) = infinite_singularities(cf)
    c = classify_sectors(cf, s)
    assert c.classification == "two-degenerate-hyperbolic"
    assert c.confidence >= 0.9


def test_classification_time_reversal_invariant(cf2, sings2):
    flipped = replace(
        cf2,
        u1=(-cf2.u1[0], -cf2.u1[1]), u2=(-cf2.u2[0], -cf2.u2[1]),
        v1=(-cf2.v1[0], -cf2.v1[1]), v2=(-cf2.v2[0], -cf2.v2[1]))
    for s in infinite_singularities(cf2):
        a = classify_sectors(cf2, s)
        b = classify_sectors(flipped, s)
        assert a.classification == b.classification
        assert a.confidence == b.confidence


def test_classify_deterministic(cf2):
    s = infinite_singularities(cf2)[0]
    a = classify_sectors(cf2, s)
    b = classify_sectors(cf2, s)
    assert a == b


# ===== Conti verdict ===== #


def report_with(verdict: str) -> SimpleNamespace:
    return SimpleNamespace(verdict=GlobalVerdict(verdict, ()))


def test_conti_example2(example2, sings2):
    v = conti_verdict(example2, [report_with("not-global")], sings2)
    assert v.conti_type == "B"
    assert v.routes_agree
    outcomes = {c.name: c.outcome for c in v.criteria}
    assert outcomes == {"a": "fails", "b": "fails", "c": "fails",
                        "d": "fails"}


def test_conti_identity(identity_map):
    v = conti_verdict(identity_map, [report_with("global")], [])
    assert v.conti_type == "A"
    assert v.routes_agree
    outcomes = {c.name: c.outcome for c in v.criteria}
    assert outcomes == {"a": "holds", "b": "holds", "c": "holds",
                        "d": "holds"}


def test_conti_not_applicable(example1):
    v = conti_verdict(example1, [], [])
    assert v.conti_type == "not-applicable"
    assert v.routes_agree


def test_conti_route_disagreement_flagged(identity_map):
    v = conti_verdict(identity_map, [report_with("not-global")], [])
    assert not v.routes_agree
    assert any("inconsistency" in n for n in v.notes)


def _dummy_singularity():
    from planarham.compactify import InfinitySingularity
    return InfinitySingularity(theta=0.0, chart="U1", u=0.0, residual=0.0,
                               degenerate_root=False)


def test_conti_undetermined_falls_back(identity_map):
    unclassified = _dummy_singularity()   # classification "unclassified"
    v = conti_verdict(identity_map, [report_with("global")], [unclassified])
    assert v.conti_type == "A"
    assert any("incomplete" in n for n in v.notes)
    v2 = conti_verdict(identity_map, [report_with("inconclusive")],
                       [unclassified])
    assert v2.conti_type == "B"
    assert any("undetermined" in n for n in v2.notes)


def test_conti_requires_reports(identity_map):
    with pytest.raises(ValueError):
        conti_verdict(identity_map, [], [])

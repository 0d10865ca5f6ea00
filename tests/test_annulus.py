"""Annulus bracket, region oracle, image shape, globality, spotcheck."""

import math

import numpy as np
import pytest

from planarham.annulus import (
    AnnulusBelowResolution,
    EllEstimate,
    Probe,
    RegionTooCoarse,
    build_annulus_report,
    classify_certificate,
    default_h_max,
    estimate_ell,
    global_center_verdict,
    image_shape,
    injectivity_spotcheck,
    region,
)
from planarham.field import Box
from planarham.trace import winding_certificate

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def ex1_estimate(example1):
    return estimate_ell(example1, (0.0, 0.0), h_max=1.0, tol=1e-6)


@pytest.fixture(scope="module")
def ex1_region(example1, ex1_estimate):
    return region(example1, (0.0, 0.0), ex1_estimate.ell_lo,
                  grid_n=200, box=Box(-3, 3, -3, 3))


# h_max default


def test_default_h_max_frozen(example1, example3, identity_map):
    # example1/example3 boundary minima sit near 1/2 and clip up to 1
    assert default_h_max(example1) == 1.0
    assert default_h_max(example3) == 1.0
    # identity: min H on the +/-20 box boundary is 20^2/2
    assert abs(default_h_max(identity_map) - 200.0) <= 1e-9


# ell bracketing


def test_example1_ell_bracket(ex1_estimate):
    est = ex1_estimate
    assert est.ell_lo <= est.ell_hi
    assert est.ell_hi - est.ell_lo <= 1e-6
    assert abs(est.ell_lo - 0.5) <= 1e-5
    assert abs(est.ell_hi - 0.5) <= 1e-5
    assert not est.budget_exceeded
    assert not est.has_inconclusive


def test_rim_is_the_certified_orbit_at_ell_lo(ex1_estimate):
    (probe,) = [p for p in ex1_estimate.probes if p.h == ex1_estimate.ell_lo]
    assert probe.status == "good"
    assert ex1_estimate.rim == probe.certificate.trace.points
    x0, y0 = ex1_estimate.rim[0]
    x1, y1 = ex1_estimate.rim[-1]
    assert math.hypot(x1 - x0, y1 - y0) <= 1e-6


def test_certified_levels_below_ell_lo(ex1_estimate):
    # downward closure: every probe at h <= ell_lo must have been GOOD
    for p in ex1_estimate.probes:
        if p.h <= ex1_estimate.ell_lo:
            assert p.status == "good", (p.h, p.reason)
            assert p.certificate.injective_on_orbit


def test_example3_ell_both_centers(example3):
    for cy in (0.0, TWO_PI):
        est = estimate_ell(example3, (0.0, cy), h_max=1.0, tol=1e-6)
        assert abs(est.ell_lo - 0.5) <= 1e-5, cy
        assert est.ell_hi - est.ell_lo <= 1e-6


def test_example2_ell_truncated_by_box(example2):
    # the level oval's x-extent sqrt(2h/(1-2h)) hits the +/-20 working box
    # slightly before h = 1/2, so the bracket lands just under it
    est = estimate_ell(example2, (0.0, 0.0), h_max=1.0, tol=1e-6)
    assert 0.49 <= est.ell_lo <= 0.4995
    assert est.ell_hi - est.ell_lo <= 1e-6


def test_identity_budget(identity_map):
    est = estimate_ell(identity_map, (0.0, 0.0), h_max=50.0, tol=1e-6)
    assert est.ell_lo == 50.0
    assert est.budget_exceeded
    assert all(p.status == "good" for p in est.probes)
    assert est.rim == ()


def test_below_resolution(example1):
    # with tol beyond ell the very first probe sits on an unbounded level
    with pytest.raises(AnnulusBelowResolution):
        estimate_ell(example1, (0.0, 0.0), h_max=1.0, tol=0.7)


def test_estimate_ell_validates_inputs(example1):
    with pytest.raises(ValueError):
        estimate_ell(example1, (0.0, 0.0), h_max=-1.0)
    with pytest.raises(ValueError):
        estimate_ell(example1, (0.0, 0.0), tol=0.0)


@pytest.mark.parametrize("name,h_max", [
    ("example1", 1.0), ("example2", 1.0), ("example3", 1.0)])
def test_bracket_maximality(name, h_max, request):
    # enlarging ell_lo by 10 tol must land beyond the annulus
    pmap = request.getfixturevalue(name)
    est = estimate_ell(pmap, (0.0, 0.0), h_max=h_max, tol=1e-4)
    cert = winding_certificate(pmap, (0.0, 0.0), est.ell_lo + 10 * est.tol)
    assert not cert.injective_on_orbit


def test_classify_certificate_on_real_orbits(example1):
    good = winding_certificate(example1, (0.0, 0.0), 0.25)
    assert classify_certificate(good) == ("good", "injective")
    bad = winding_certificate(example1, (0.0, 0.0), 0.7)
    status, reason = classify_certificate(bad)
    assert status == "bad"
    assert reason.startswith("escaped:")


# image shape


def test_image_shape_disc(ex1_estimate):
    shape = image_shape(ex1_estimate)
    assert shape.kind == "disc"
    assert abs(shape.radius ** 2 - 2.0 * ex1_estimate.ell_lo) <= 1e-12
    assert shape.bracket == ex1_estimate.ell_hi - ex1_estimate.ell_lo


def test_image_shape_plane(identity_map):
    est = estimate_ell(identity_map, (0.0, 0.0), h_max=50.0, tol=1e-6)
    assert image_shape(est).kind == "plane"


def test_image_shape_unknown_on_inconclusive():
    est = EllEstimate(
        center=(0.0, 0.0), h_max=1.0, tol=1e-6, ell_lo=0.25, ell_hi=0.5,
        probes=(Probe(0.25, "good", "injective", None),
                Probe(0.5, "inconclusive", "stiff", None)))
    assert image_shape(est).kind == "unknown"


# region sampler


def test_region_identity_disc(identity_map):
    sampler = region(identity_map, (0.0, 0.0), 0.5, grid_n=200,
                     box=Box(-3, 3, -3, 3))
    assert sampler.classify((0.0, 0.0)) == "inside"
    assert sampler.classify((0.7, 0.0)) == "inside"
    assert sampler.classify((1.5, 0.0)) == "outside"
    assert sampler.classify((5.0, 5.0)) == "outside"
    # the orbit at the level is the unit circle
    poly = winding_certificate(identity_map, (0.0, 0.0), 0.5).trace.points
    assert len(poly) > 50
    radii = [math.hypot(x, y) for (x, y) in poly]
    assert max(abs(r - 1.0) for r in radii) <= 1e-6


def region_agreement(sampler, predicate, box, n=200):
    """(n_disagreements, all_near_boundary) against a truth predicate."""
    xs = box.xmin + (np.arange(n) + 0.5) * (box.xmax - box.xmin) / n
    ys = box.ymin + (np.arange(n) + 0.5) * (box.ymax - box.ymin) / n
    cell_x = (box.xmax - box.xmin) / n
    cell_y = (box.ymax - box.ymin) / n
    disagreements = 0
    all_near = True
    for x in xs:
        for y in ys:
            verdict = sampler.classify((x, y))
            if verdict == "boundary":
                continue
            want = predicate(x, y)
            if (verdict == "inside") == want:
                continue
            disagreements += 1
            near = any(predicate(x + dx, y + dy) != want
                       for dx in (-cell_x, 0.0, cell_x)
                       for dy in (-cell_y, 0.0, cell_y))
            all_near = all_near and near
    return disagreements, all_near


def test_region_example1_against_predicate(ex1_region):
    sampler = ex1_region

    def predicate(x, y):
        return y * y < math.exp(x) * (2.0 - math.exp(x))

    disagreements, all_near = region_agreement(
        sampler, predicate, Box(-3, 3, -3, 3))
    assert disagreements <= 0.005 * 200 * 200
    assert all_near


def test_region_example3_second_center(example3):
    est = estimate_ell(example3, (0.0, TWO_PI), h_max=1.0, tol=1e-6)
    box = Box(-3, 3, TWO_PI - 3, TWO_PI + 3)
    sampler = region(example3, (0.0, TWO_PI), est.ell_lo, grid_n=200, box=box)

    def predicate(x, y):
        return (math.exp(x) < 2.0 * math.cos(y)
                and 1.5 * math.pi < y < 2.5 * math.pi)

    disagreements, all_near = region_agreement(sampler, predicate, box)
    assert disagreements <= 0.005 * 200 * 200
    assert all_near


def test_region_components_are_separate(example3):
    # the mask at h < 1/2 has one oval per center; flood fill must pick
    # the component of the requested center only
    sampler = region(example3, (0.0, TWO_PI), 0.499, grid_n=300,
                     box=Box(-8, 8, -8, 8))
    assert sampler.classify((0.0, TWO_PI)) == "inside"
    assert sampler.classify((0.0, 0.0)) == "outside"


def test_region_too_coarse(identity_map):
    with pytest.raises(RegionTooCoarse, match="too coarse"):
        region(identity_map, (0.0, 0.0), 1e-9, grid_n=8, box=Box(-3, 3, -3, 3))


def test_region_validates_inputs(identity_map):
    with pytest.raises(ValueError):
        region(identity_map, (0.0, 0.0), -0.5)
    with pytest.raises(ValueError):
        region(identity_map, (10.0, 10.0), 0.5, box=Box(-3, 3, -3, 3))


def test_sample_inside_deterministic(ex1_region):
    sampler = ex1_region
    a = sampler.sample_inside(50, seed=7)
    b = sampler.sample_inside(50, seed=7)
    assert a == b
    assert all(sampler.classify(p) == "inside" for p in a)


# flood fill versus traced orbit


@pytest.mark.parametrize("name,center", [
    ("example1", (0.0, 0.0)), ("example3", (0.0, 0.0))])
def test_mask_boundary_matches_orbit(name, center, request):
    pmap = request.getfixturevalue(name)
    box = Box(-3, 3, -3, 3)
    for frac in (0.25, 0.5, 0.75):
        h = frac * 0.5
        sampler = region(pmap, center, h, grid_n=200, box=box)
        poly = winding_certificate(pmap, center, h).trace.points
        assert poly, h
        mask = sampler.mask
        rim = _mask_rim(mask)
        for (x, y) in poly:
            i, j = sampler.cell_of((x, y))
            assert rim[max(0, i - 1):i + 2, max(0, j - 1):j + 2].any(), \
                (h, x, y)


def _mask_rim(mask):
    interior = (np.roll(mask, 1, 0) & np.roll(mask, -1, 0)
                & np.roll(mask, 1, 1) & np.roll(mask, -1, 1))
    return mask & ~interior


def test_image_coverage_of_circle(example1):
    # stored image angles of a GOOD orbit are monotone with gaps < 5 deg
    cert = winding_certificate(example1, (0.0, 0.0), 0.25)
    thetas = np.asarray(cert.trace.thetas)
    gaps = np.diff(thetas)
    assert (gaps > 0).all()
    assert gaps.max() < math.radians(5.0)
    assert thetas[-1] - thetas[0] >= TWO_PI - 1e-6


# globality


def test_global_verdicts(example1, identity_map, ex1_estimate):
    v1 = global_center_verdict(example1, ex1_estimate)
    assert v1.verdict == "not-global"
    est = estimate_ell(identity_map, (0.0, 0.0), h_max=50.0, tol=1e-6)
    v2 = global_center_verdict(identity_map, est)
    assert v2.verdict == "global"
    assert "up-to-budget" in v2.reasons


def test_jacobian_flip_demotes(noninjective_map):
    est = EllEstimate(center=(0.0, 0.0), h_max=1.0, tol=1e-6,
                      ell_lo=0.25, ell_hi=0.25 + 1e-6,
                      probes=(Probe(0.25, "good", "injective", None),))
    v = global_center_verdict(noninjective_map, est, box=Box(-2, 2, -2, 2))
    assert v.verdict == "inconclusive"
    assert "jacobian-sign-change" in v.reasons


def test_inconclusive_probes_demote(example1):
    est = EllEstimate(center=(0.0, 0.0), h_max=1.0, tol=1e-6,
                      ell_lo=0.25, ell_hi=0.5,
                      probes=(Probe(0.5, "inconclusive", "stiff", None),))
    v = global_center_verdict(example1, est)
    assert v.verdict == "inconclusive"
    assert "stiff" in v.reasons


# spotcheck


def test_spotcheck_clean_on_example1(example1, ex1_region):
    report = injectivity_spotcheck(example1, ex1_region, n=10_000)
    assert report.clean
    assert report.n_sampled == 10_000


def test_spotcheck_clean_on_example3(example3):
    sampler = region(example3, (0.0, 0.0), 0.4999, grid_n=200,
                     box=Box(-3, 3, -3, 3))
    report = injectivity_spotcheck(example3, sampler, n=10_000)
    assert report.clean


def test_spotcheck_catches_even_map(noninjective_map):
    # (x^2, y) region straddling x = 0: mirror points share an image
    sampler = region(noninjective_map, (0.0, 0.0), 2.0, grid_n=100,
                     box=Box(-2, 2, -2, 2))
    report = injectivity_spotcheck(noninjective_map, sampler, n=10_000)
    assert not report.clean
    c = report.collisions[0]
    assert c.image_distance <= 1e-6
    assert abs(c.p[0] + c.q[0]) <= 1e-9    # mirrored in x
    assert abs(c.p[1] - c.q[1]) <= 1e-9    # same y


def test_spotcheck_sample_floor(example1, ex1_region):
    with pytest.raises(ValueError):
        injectivity_spotcheck(example1, ex1_region, n=50)


# orchestrated report


def test_build_annulus_report_example1(example1):
    from planarham.centers import find_zeros

    center = find_zeros(example1, Box(-4, 4, -4, 4), grid_n=16)[0]
    report = build_annulus_report(example1, center, h_max=1.0, tol=1e-6,
                                  grid_n=200, box=Box(-3, 3, -3, 3))
    assert abs(report.estimate.ell_lo - 0.5) <= 1e-5
    assert report.image.kind == "disc"
    assert report.verdict.verdict == "not-global"
    assert report.estimate.certificates
    assert report.spotcheck.clean
    assert report.boundary_polyline == report.estimate.rim
    x0, y0 = report.boundary_polyline[0]
    x1, y1 = report.boundary_polyline[-1]
    assert math.hypot(x1 - x0, y1 - y0) <= 1e-6

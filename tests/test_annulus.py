"""Annulus bracket, region oracle, image shape, globality."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import planarham.annulus as annulus_mod
import planarham.trace as trace_mod
from planarham.annulus import (
    COVER_GRID_N,
    SIGN_UNPROVED,
    AnnulusBelowResolution,
    EllEstimate,
    EllGuess,
    Probe,
    RegionTooCoarse,
    build_annulus_report,
    cell_index,
    classify_certificate,
    default_h_max,
    disc_cover,
    edge_minima,
    estimate_ell,
    global_center_verdict,
    image_shape,
    predict_ell,
    region,
)
from planarham.cli import run_subcommand
from planarham.expr import parse_expr
from planarham.field import PLANE_BOX, Box, PlanarMap, SignProof
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


def test_example2_ell_takes_two_probes(example2):
    # the oval reaches x = +/-20 through a channel ~1e-5 wide that the H
    # grid cannot resolve; the edge minimum at (+-20, -0.0024875) is ell.
    # The estimate never looks at det Df: the predicted pair alone
    est = estimate_ell(example2, (0.0, 0.0), h_max=1.0)
    assert len(est.probes) == 2
    assert est.ell_lo <= 0.4987531172 <= est.ell_hi
    assert est.guess.h == pytest.approx(0.4987531172, abs=1e-10)
    assert abs(est.guess.point[0]) == 20.0
    assert est.guess.point[1] == pytest.approx(-0.0024875, abs=1e-7)


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
    # with tol beyond ell the very first probe sits on an unbounded level;
    # the exception keeps every probe made, the failed bottom one last
    with pytest.raises(AnnulusBelowResolution) as info:
        estimate_ell(example1, (0.0, 0.0), h_max=1.0, tol=0.7)
    assert [(p.h, p.status) for p in info.value.probes] == [(1.0 - 1e-9, "bad"), (0.5, "bad")]


def test_estimate_ell_validates_inputs(example1):
    with pytest.raises(ValueError):
        estimate_ell(example1, (0.0, 0.0), h_max=-1.0)
    with pytest.raises(ValueError):
        estimate_ell(example1, (0.0, 0.0), tol=0.0)


# ell prediction and the predicted bracket


def _affine_map(a, center):
    """f = A (p - center), written out with its constant term."""
    (a11, a12), (a21, a22) = a
    cx, cy = center
    c1, c2 = -(a11 * cx + a12 * cy), -(a21 * cx + a22 * cy)
    return PlanarMap(f1=parse_expr(f"{a11!r}*x + {a12!r}*y + {c1!r}"),
                     f2=parse_expr(f"{a21!r}*x + {a22!r}*y + {c2!r}"),
                     name="affine")


def _affine_window_min(a, center, half=20.0):
    """Least H = |A (p - center)|^2 / 2 on the boundary of [-half, half]^2,
    in closed form: on each edge H is a quadratic in the free coordinate."""
    a = np.asarray(a, dtype=float)
    c = -a @ np.asarray(center, dtype=float)
    best = math.inf
    for fixed_axis in (0, 1):
        free = a[:, 1 - fixed_axis]
        for side in (-half, half):
            base = a[:, fixed_axis] * side + c
            t = min(max(-(free @ base) / (free @ free), -half), half)
            best = min(best, 0.5 * float(np.sum((base + t * free) ** 2)))
    return best


@pytest.mark.parametrize("a,center", [
    (((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0)),
    (((1.2, 0.3), (-0.2, 0.8)), (5.0, -3.0)),
    (((0.6, -0.4), (0.4, 1.6)), (-6.0, 4.5)),
    (((0.8, 0.6), (-0.12, 0.16)), (14.0, 15.0)),    # thin, tilted, near a corner
])
def test_predicted_ell_of_affine_maps(a, center):
    pmap = _affine_map(a, center)
    guess = predict_ell(pmap, center)
    truth = _affine_window_min(a, center)
    assert guess.h == pytest.approx(truth, rel=1e-9)
    minima = edge_minima(pmap)
    assert minima[0].h == pytest.approx(truth, rel=1e-9)
    assert [m.h for m in minima] == sorted(m.h for m in minima)
    x, y = guess.point
    assert max(abs(x), abs(y)) == 20.0


@pytest.mark.parametrize("a,center", [
    (((1.3, 0.3), (-0.2, 0.8)), (4.0, -5.0)),
    (((1.2, 0.3), (-0.2, 0.8)), (5.0, -3.0)),
    (((0.6, -0.4), (0.4, 1.6)), (-6.0, 4.5)),
])
def test_default_h_max_is_the_boundary_minimum(a, center):
    # the 513 samples per edge alone sit up to 2e-5 above it, and the top
    # probe just under h_max would then reach the window edge
    pmap = _affine_map(a, center)
    truth = _affine_window_min(a, center)
    assert truth > 1.0
    assert default_h_max(pmap) == pytest.approx(truth, rel=1e-9)
    est = estimate_ell(pmap, center)
    # the top probe alone
    assert est.budget_exceeded and len(est.probes) == 1


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "identity_map"])
def test_default_h_max_is_the_clipped_least_edge_minimum(name, request):
    pmap = request.getfixturevalue(name)
    assert default_h_max(pmap) == min(max(edge_minima(pmap)[0].h, 1.0), 1e6)


def test_predicted_ell_of_example3_edge_center(example3):
    # the edge y = -20 cuts this annulus: ell = 1/2 sin^2 20, at e^x = cos 20
    guess = predict_ell(example3, (0.0, -3.0 * TWO_PI))
    assert guess.h == pytest.approx(0.5 * math.sin(20.0) ** 2, rel=1e-9)
    assert guess.point[1] == -20.0
    assert guess.point[0] == pytest.approx(math.log(math.cos(20.0)), abs=1e-3)


def test_prediction_stops_at_an_undefined_cell():
    # f is undefined for x < -5: the sublevel set reaches that first
    pmap = PlanarMap(f1=parse_expr("sqrt(x + 5) - 2"), f2=parse_expr("y"),
                     name="sqrt")
    assert predict_ell(pmap, (-1.0, 0.0)) is None


@pytest.mark.parametrize("f1,f2,center", [
    ("sqrt(x + 5) - 2", "y", (-1.0, 0.0)),     # undefined to the left,
    ("2 - sqrt(5 - x)", "y", (1.0, 0.0)),      # right,
    ("x", "sqrt(y + 5) - 2", (0.0, -1.0)),     # below
    ("x", "2 - sqrt(5 - y)", (0.0, 1.0)),      # and above the center
])
def test_prediction_stops_next_to_undefined_cells_on_each_side(f1, f2, center):
    # the sublevel set meets the undefined half-plane across one cell side
    pmap = PlanarMap(f1=parse_expr(f1), f2=parse_expr(f2), name="half-plane")
    assert predict_ell(pmap, center) is None


def test_example1_predicted_bracket_takes_two_probes(example1):
    est = estimate_ell(example1, (0.0, 0.0), h_max=1.0, tol=1e-6)
    assert len(est.probes) == 2
    status = {p.h: p.status for p in est.probes}
    assert status[est.ell_lo] == "good"
    assert status[est.ell_hi] != "good"
    window = 0.5 * (math.exp(-20.0) - 1.0) ** 2
    assert est.ell_lo - est.tol <= window <= est.ell_hi + est.tol
    assert est.ell_hi - est.ell_lo <= est.tol
    assert est.guess.h == pytest.approx(window, rel=1e-12)


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_inner_example3_centers_take_two_probes(example3, k):
    # a pinned work count: the two predicted levels; losing the predicted
    # bracket shows here
    est = estimate_ell(example3, (0.0, k * TWO_PI), h_max=1.0, tol=1e-6)
    assert len(est.probes) == 2
    assert est.ell_lo - est.tol <= 0.5 * (1.0 - math.exp(-20.0)) ** 2 <= est.ell_hi


@pytest.mark.parametrize("offset", [10.0, -10.0])
def test_missed_prediction_falls_back_to_bisection(example1, monkeypatch, offset):
    tol = 1e-6
    true_guess = predict_ell(example1, (0.0, 0.0))
    monkeypatch.setattr(annulus_mod, "predict_ell", lambda pmap, center: None)
    plain = estimate_ell(example1, (0.0, 0.0), h_max=1.0, tol=tol)
    off = EllGuess(true_guess.h + offset * tol, true_guess.point)
    monkeypatch.setattr(annulus_mod, "predict_ell", lambda pmap, center: off)
    missed = estimate_ell(example1, (0.0, 0.0), h_max=1.0, tol=tol)
    assert (missed.ell_lo, missed.ell_hi) == (plain.ell_lo, plain.ell_hi)
    assert len(plain.probes) < len(missed.probes) <= len(plain.probes) + 2
    assert missed.guess == off and plain.guess is None


def _count_steps(monkeypatch):
    """Wrap the certificate that estimate_ell calls: a list, filled with
    (h, DP5 steps taken) per probe."""
    steps, probes = [0], []
    dp5_step, certificate = trace_mod.dp5_step, annulus_mod.winding_certificate

    def counting_step(*args, **kwargs):
        steps[0] += 1
        return dp5_step(*args, **kwargs)

    def counting_certificate(pmap, center, h, **kwargs):
        before = steps[0]
        cert = certificate(pmap, center, h, **kwargs)
        probes.append((h, steps[0] - before))
        return cert

    monkeypatch.setattr(trace_mod, "dp5_step", counting_step)
    monkeypatch.setattr(annulus_mod, "winding_certificate", counting_certificate)
    return probes


@pytest.mark.parametrize("name,center", [("example1", (0.0, 0.0))]
                         + [("example3", (0.0, k * TWO_PI)) for k in range(-3, 4)])
def test_upper_probe_is_settled_by_the_lift_alone(name, center, monkeypatch, request):
    # the lift aimed at the predicted contact leaves the window there:
    # an escaped certificate of its exit point, and no orbit integrated
    pmap = request.getfixturevalue(name)
    probes = _count_steps(monkeypatch)
    est = estimate_ell(pmap, center, h_max=1.0, tol=1e-6)
    upper, lower = est.probes
    assert (upper.h, lower.h) == (est.ell_hi, est.ell_lo)
    assert upper.status == "bad" and upper.reason.startswith("escaped:")
    assert upper.certificate.trace.outcome.kind == "escaped"
    assert len(upper.certificate.trace.points) == 1
    assert probes[0] == (est.ell_hi, 0)
    assert lower.status == "good" and probes[1][1] > 0
    # it leaves through the predicted contact's edge, next to that point
    (exit_point,) = upper.certificate.trace.points
    box = pmap.working_box()
    assert not box.contains(exit_point)
    along = 1 if est.guess.point[0] in (box.xmin, box.xmax) else 0
    assert abs(exit_point[along] - est.guess.point[along]) < 1e-3


def _det_at_least_zero(a):
    """The matrix (a11, a12, a21, a22) with its second row negated when its
    determinant is negative, so that the filter below seldom rejects."""
    a11, a12, a21, a22 = a
    return (a11, a12, -a21, -a22) if a11 * a22 - a12 * a21 < 0 else a


@settings(max_examples=25, deadline=None)
@given(a=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                   st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).map(_det_at_least_zero),
       center=st.tuples(st.floats(-15.0, 15.0), st.floats(-15.0, 15.0)))
def test_affine_maps_take_two_probes(a, center):
    # f = A (p - c) with det A > 0: the predicted pair brackets the closed
    # form of ell, the least H on the window's edge
    a11, a12, a21, a22 = a
    det = a11 * a22 - a12 * a21
    assume(det > 0.2 and det / (a11 ** 2 + a12 ** 2 + a21 ** 2 + a22 ** 2) > 0.1)
    mat = ((a11, a12), (a21, a22))
    truth = _affine_window_min(mat, center)
    assume(truth > 1e-3)
    est = estimate_ell(_affine_map(mat, center), center, h_max=2.0 * truth + 1.0, tol=1e-6)
    assert len(est.probes) == 2
    assert [p.status for p in est.probes] == ["bad", "good"]
    assert est.ell_lo <= truth * (1.0 + 1e-9) and truth * (1.0 - 1e-9) <= est.ell_hi
    assert est.ell_hi - est.ell_lo <= est.tol


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


def test_region_checks_the_center_cell_before_labelling(identity_map, monkeypatch):
    def unexpected(*args):
        raise AssertionError("labelled a grid whose center cell is not below ell_lo")
    monkeypatch.setattr(annulus_mod, "_component_runs", unexpected)
    with pytest.raises(RegionTooCoarse):
        region(identity_map, (0.0, 0.0), 1e-9, grid_n=8, box=Box(-3, 3, -3, 3))


def _component_cases(n: int, m: int, rng):
    """Random n x m masks at several densities, each with a full row, an
    empty row, an isolated cell and runs against either edge; and for
    each some set cells to start from."""
    for density in (0.3, 0.55, 0.6, 0.8, 0.97):
        mask = rng.random((n, m)) < density
        mask[n // 3] = True                     # one run touching both edges
        mask[n // 2] = False
        mask[1:4, 1:4] = False
        mask[2, 2] = True                       # a single cell
        mask[n - 1, m - 3:] = (False, True, True)
        mask[n - 2, :2] = (True, False)
        cells = np.argwhere(mask)
        picks = cells[rng.integers(len(cells), size=6)]
        yield mask, [(2, 2), (n // 3, 0), (n - 1, m - 1), (n - 2, 0),
                     *(tuple(c) for c in picks)]
    yield np.ones((n, m), dtype=bool), [(0, 0), (n - 1, m - 1)]
    lone = np.zeros((n, m), dtype=bool)
    lone[n - 1, m - 1] = True
    yield lone, [(n - 1, m - 1)]


@pytest.mark.parametrize("n,m", [(64, 64), (200, 200), (400, 400), (64, 200)])
def test_component_runs_match_scipy_labels(n, m):
    rng = np.random.default_rng(n * m)
    for mask, seeds in _component_cases(n, m, rng):
        labels, _ = ndimage.label(mask)
        for i, j in seeds:
            runs = annulus_mod._component_runs(mask, i, j)
            np.testing.assert_array_equal(annulus_mod._paint(mask.shape, *runs),
                                          labels == labels[i, j])


# the rim disc's cover


def _inside_polygon(ring, x, y):
    """The even-odd point-in-polygon test along a horizontal ray."""
    inside = False
    for (ax, ay), (bx, by) in zip(ring[:-1], ring[1:]):
        if (ay > y) != (by > y) and x < ax + (y - ay) * (bx - ax) / (by - ay):
            inside = not inside
    return inside


@pytest.mark.parametrize("ring", [
    [(0.13, 0.07), (0.91, 0.42), (0.28, 0.88)],                             # triangle
    [(0.05, 0.1), (0.93, 0.17), (0.41, 0.46), (0.87, 0.81), (0.12, 0.9)],   # concave
])
@pytest.mark.parametrize("n", [7, 40])
def test_fill_runs_match_point_in_polygon(ring, n):
    box = Box(0.0, 1.0, 0.0, 1.0)
    ring = np.array(ring + ring[:1])
    filled = annulus_mod._paint((n, n), *annulus_mod._fill_runs(box, n, ring))
    centres = (np.arange(n) + 0.5) / n
    truth = np.array([[_inside_polygon(ring, x, y) for y in centres] for x in centres])
    assert truth.any() and np.array_equal(filled, truth)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
       st.floats(0.3, 12.0))
def test_disc_cover_holds_the_exact_ellipse(a11, a22, a12, a21, radius):
    # f = A p with det A > 0 (the orbit's lift needs det Df > 0): the
    # orbit at level h is the ellipse |A p|^2 = 2h, whose inside and
    # every cell it passes through must be covered
    a = np.array([[a11, a12], [a21, a22]])
    det = np.linalg.det(a)
    assume(det > 0.2)
    sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
    h = 0.5 * (radius * sigma_min) ** 2     # radius: the ellipse's longer semi-axis
    pmap = PlanarMap(f1=parse_expr(f"{a11!r}*x + {a12!r}*y"),
                     f2=parse_expr(f"{a21!r}*x + {a22!r}*y"), name="linear")
    cert = winding_certificate(pmap, (0.0, 0.0), h)
    assert cert.injective_on_orbit
    cover = disc_cover(pmap, cert.trace)
    box, n = pmap.working_box(), COVER_GRID_N
    centres = box.xmin + (np.arange(n) + 0.5) * (box.xmax - box.xmin) / n
    gx, gy = np.meshgrid(centres, centres, indexing="ij")
    image = np.hypot(a11 * gx + a12 * gy, a21 * gx + a22 * gy)
    assert cover[image ** 2 < 2.0 * h].all()
    t = np.linspace(0.0, 2.0 * math.pi, 20_000)
    on = np.linalg.solve(a, math.sqrt(2.0 * h) * np.stack([np.cos(t), np.sin(t)]))
    assert cover[cell_index(box, n, on[0], on[1])].all()
    # and no cell lies much farther out than the margin
    side = (box.xmax - box.xmin) / n
    sigma_max = np.linalg.svd(a, compute_uv=False)[0]
    assert (image[cover] <= math.sqrt(2.0 * h) + 5.0 * side * sigma_max).all()


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
            i, j = cell_index(sampler.box, sampler.grid_n, x, y)
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


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_unproved_sign_makes_the_verdict_inconclusive(name, request, monkeypatch):
    # with det Df's sign proved neither on the working box nor on the
    # rim's disc, the covering argument has no hypothesis: no level below
    # ell_lo is re-certified to stand in for it
    pmap = dataclasses.replace(request.getfixturevalue(name))

    def undecided(pmap, *args):
        return SignProof(0, None, 0)

    monkeypatch.setattr(annulus_mod, "jacobian_sign_change", undecided)
    monkeypatch.setattr(annulus_mod, "det_sign_on_cells", undecided)
    real = annulus_mod.winding_certificate
    levels = []

    def recording(pmap, center, h, **kwargs):
        levels.append(h)
        return real(pmap, center, h, **kwargs)

    monkeypatch.setattr(annulus_mod, "winding_certificate", recording)
    est = estimate_ell(pmap, (0.0, 0.0), h_max=1.0, tol=1e-6)
    bottom = min(levels)
    assert not [h for h in levels if bottom < h < est.ell_lo]
    verdict = global_center_verdict(pmap, est)
    assert verdict.verdict == "inconclusive"
    assert verdict.reasons[0] == SIGN_UNPROVED


def test_sign_unproved_where_the_rim_meets_undefined_points():
    # f is undefined for x < 19 and the rim at ell runs along x = 19, so
    # det Df's sign is proved neither on the working box nor on the cover
    pmap = PlanarMap(f1=parse_expr("sqrt(x - 19) - 0.5"), f2=parse_expr("y"))
    est = estimate_ell(pmap, (19.25, 0.0))
    verdict = global_center_verdict(pmap, est)
    assert (verdict.verdict, verdict.reasons[0]) == ("inconclusive", SIGN_UNPROVED)


def test_verdict_checks_its_own_box_once(tmp_path, monkeypatch):
    # whatever --box is, det Df's sign is proved on the working box
    # alone: one SignProof per map, of 64 boxes (det Df = e^x)
    checks = []
    real = annulus_mod.jacobian_sign_change

    def check(*args, **kwargs):
        checks.append((args, kwargs, real(*args, **kwargs)))
        return checks[-1][2]

    monkeypatch.setattr(annulus_mod, "jacobian_sign_change", check)
    out = tmp_path / "r.json"
    for box in ((), ("--box=-3,3,-3,3",), ("--box=-21,3,-3,3",)):
        checks.clear()
        assert run_subcommand(["report", "--map", "builtin:example1", *box,
                               "--out", str(out)]) == 0
        assert len({id(proof) for *_, proof in checks}) == 1
        assert json.loads(out.read_text())["timings"]["sign_proof_boxes"] == 64
        args, kwargs, proof = checks[0]
        assert (len(args), kwargs, proof.sign, proof.flip) == (1, {}, 1, None)
        assert args[0].working_box() == PLANE_BOX


def test_jacobian_flip_demotes(noninjective_map):
    est = EllEstimate(center=(0.0, 0.0), h_max=1.0, tol=1e-6,
                      ell_lo=0.25, ell_hi=0.25 + 1e-6,
                      probes=(Probe(0.25, "good", "injective", None),))
    v = global_center_verdict(noninjective_map, est)
    assert v.verdict == "inconclusive"
    assert "jacobian-sign-change" in v.reasons


def test_jacobian_flip_on_a_narrow_strip_demotes():
    # det Df = x^2 - 0.01 is negative only on the strip |x| < 0.1, which
    # the subdivision of the working box proves
    pmap = PlanarMap(f1=parse_expr("x^3/3 - 0.01*x"), f2=parse_expr("y"))
    est = EllEstimate(center=(math.sqrt(0.03), 0.0), h_max=1.0, tol=1e-6,
                      ell_lo=0.25, ell_hi=0.25 + 1e-6,
                      probes=(Probe(0.25, "good", "injective", None),))
    v = global_center_verdict(pmap, est)
    assert v.verdict == "inconclusive"
    assert "jacobian-sign-change" in v.reasons


def test_inconclusive_probes_demote(example1):
    est = EllEstimate(center=(0.0, 0.0), h_max=1.0, tol=1e-6,
                      ell_lo=0.25, ell_hi=0.5,
                      probes=(Probe(0.5, "inconclusive", "stiff", None),))
    v = global_center_verdict(example1, est)
    assert v.verdict == "inconclusive"
    assert "stiff" in v.reasons


# orchestrated report


def test_build_annulus_report_example1(example1):
    from planarham.centers import find_zeros

    center = find_zeros(example1, Box(-4, 4, -4, 4), grid_n=16)[0]
    report = build_annulus_report(example1, center, h_max=1.0, tol=1e-6)
    assert abs(report.estimate.ell_lo - 0.5) <= 1e-5
    assert report.image.kind == "disc"
    assert report.verdict.verdict == "not-global"
    assert report.estimate.certificates
    x0, y0 = report.estimate.rim[0]
    x1, y1 = report.estimate.rim[-1]
    assert math.hypot(x1 - x0, y1 - y0) <= 1e-6

"""Scenes and SVG output: portraits stay in bounds and parse as XML."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from planarham.annulus import estimate_ell
from planarham.centers import find_zeros
from planarham.compactify import (classify_sectors, compactification_for_map,
                                  infinite_singularities)
from planarham.field import Box
from planarham.render import (CircleLayer, DiscRefusal, PointMarker, Polyline,
                              ROLE_COLOR, Scene, TextLabel, disc_portrait,
                              disc_portrait_for_map, marching_squares,
                              plane_portrait, project_to_disc, scene_to_svg)


@pytest.fixture(scope="module")
def ex1_scene(example1):
    box = Box(-3, 3, -3, 3)
    centers = find_zeros(example1, box, grid_n=24)
    est = estimate_ell(example1, centers[0], h_max=1.0, tol=1e-6)
    return plane_portrait(example1, centers, [est.rim],
                          [0.1, 0.3, 0.5, 0.8], box=box)


@pytest.fixture(scope="module")
def ex2_disc_scene(example2):
    cf = compactification_for_map(example2)
    sings = [classify_sectors(cf, s) for s in infinite_singularities(cf)]
    return disc_portrait(cf, sings)


# ===== marching squares ===== #


def test_marching_squares_circle():
    xs = np.linspace(-2.0, 2.0, 81)
    ys = np.linspace(-2.0, 2.0, 81)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    hgrid = 0.5 * (gx * gx + gy * gy)
    chains = marching_squares(hgrid, xs, ys, 0.5)
    assert len(chains) == 1
    pts = chains[0]
    assert len(pts) > 100
    cell = 4.0 / 80
    for x, y in pts:
        assert abs(math.hypot(x, y) - 1.0) <= cell
    # chained around: endpoints meet
    assert math.hypot(pts[0][0] - pts[-1][0],
                      pts[0][1] - pts[-1][1]) <= 2 * cell


def test_marching_squares_skips_nonfinite():
    xs = np.linspace(-1.0, 1.0, 21)
    ys = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    hgrid = gx + gy
    hgrid[:5, :5] = np.nan
    chains = marching_squares(hgrid, xs, ys, 0.1)
    assert chains
    for chain in chains:
        assert all(math.isfinite(x) and math.isfinite(y) for x, y in chain)


def test_marching_squares_empty_when_level_missed():
    xs = np.linspace(-1.0, 1.0, 11)
    ys = np.linspace(-1.0, 1.0, 11)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    assert marching_squares(0.5 * (gx ** 2 + gy ** 2), xs, ys, 10.0) == []


# ===== plane portraits ===== #


def test_identity_level_is_unit_circle(identity_map):
    box = Box(-2, 2, -2, 2)
    centers = find_zeros(identity_map, box, grid_n=16)
    scene = plane_portrait(identity_map, centers, [], [0.5], box=box)
    levels = [l for l in scene.layers if l.role == "level"]
    assert len(levels) == 1
    assert levels[0].closed
    for x, y in levels[0].points:
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-6)
    assert any(l.role == "center" for l in scene.layers)


def test_example1_portrait_layers(ex1_scene):
    roles = {l.role for l in ex1_scene.layers}
    assert {"level", "boundary", "center"} <= roles
    closed = [l for l in ex1_scene.layers
              if l.role == "level" and getattr(l, "closed", False)]
    assert len(closed) >= 2          # 0.1 and 0.3 are traced ovals
    for l in ex1_scene.layers:
        if isinstance(l, Polyline):
            for x, y in l.points:
                assert ex1_scene.viewport.contains((x, y))
    assert all(l.dashed for l in ex1_scene.layers if l.role == "boundary")
    assert ex1_scene.warnings == ()


def test_example3_nested_ovals(example3):
    box = Box(-3, 3, -8, 8)
    centers = find_zeros(example3, box, grid_n=32)
    assert len(centers) == 3
    scene = plane_portrait(example3, centers, [], [0.1, 0.3], box=box)
    closed = [l for l in scene.layers
              if l.role == "level" and getattr(l, "closed", False)]
    # one traced oval per center per level
    assert len(closed) >= 6


def test_unsorted_levels_rejected(identity_map):
    with pytest.raises(ValueError):
        plane_portrait(identity_map, [], [], [0.5, 0.1])


def test_empty_scene_warning(identity_map):
    scene = plane_portrait(identity_map, [], [], [500.0],
                           box=Box(-2, 2, -2, 2))
    assert scene.layers == ()
    assert any("level" in w for w in scene.warnings)


# ===== scene validation ===== #


def test_scene_rejects_nonfinite():
    with pytest.raises(ValueError):
        Scene(viewport=Box(-1, 1, -1, 1),
              layers=(PointMarker((math.nan, 0.0), role="center"),))


def test_disc_scene_rejects_outside_points():
    with pytest.raises(ValueError):
        Scene(viewport=Box(-1.05, 1.05, -1.05, 1.05), disc=True,
              layers=(PointMarker((1.2, 0.0), role="singularity"),))
    with pytest.raises(ValueError):
        Scene(viewport=Box(-1.05, 1.05, -1.05, 1.05), disc=True,
              layers=(CircleLayer((0.5, 0.0), 0.8, role="equator"),))


# ===== disc portrait ===== #


def test_projection_monotone_on_rays():
    for ang in np.linspace(0.0, 2 * math.pi, 17):
        direction = (math.cos(ang), math.sin(ang))
        prev = -1.0
        for r in (0.1, 0.5, 1.0, 2.0, 10.0, 1e6):
            px, py = project_to_disc((r * direction[0], r * direction[1]))
            rho = math.hypot(px, py)
            assert rho < 1.0
            assert rho > prev
            prev = rho


def test_example2_disc_scene(ex2_disc_scene):
    scene = ex2_disc_scene
    assert scene.disc
    assert any(isinstance(l, CircleLayer) and l.role == "equator"
               and l.radius == 1.0 for l in scene.layers)
    markers = [l.at for l in scene.layers if l.role == "singularity"]
    assert len(markers) == 4
    expected = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    got = {(round(x), round(y)) for x, y in markers}
    assert got == expected
    for x, y in markers:
        assert abs(math.hypot(x, y) - 1.0) <= 1e-9
    glyphs = sorted(l.text for l in scene.layers
                    if isinstance(l, TextLabel))
    assert glyphs == ["H", "H", "N", "N"]
    assert sum(1 for l in scene.layers if l.role == "trajectory") >= 8


def test_disc_refusal_for_nonpolynomial(example3):
    cf = compactification_for_map(example3)
    assert cf is None
    out = disc_portrait_for_map(example3, cf, [])
    assert isinstance(out, DiscRefusal)
    assert "polynomial" in out.reason


def test_disc_for_map_passthrough(identity_map):
    cf = compactification_for_map(identity_map)
    out = disc_portrait_for_map(identity_map, cf, [])
    assert isinstance(out, Scene)
    assert out.disc


# ===== SVG ===== #


def _parse_viewbox(root) -> tuple[float, float, float, float]:
    x0, y0, w, h = (float(v) for v in root.get("viewBox").split())
    return x0, y0, w, h


def _assert_svg_in_bounds(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    x0, y0, w, h = _parse_viewbox(root)
    slack = 1e-3
    ns = "{http://www.w3.org/2000/svg}"
    for el in root.iter():
        tag = el.tag.removeprefix(ns)
        if tag == "polyline":
            for pair in el.get("points").split():
                x, y = (float(v) for v in pair.split(","))
                assert x0 - slack <= x <= x0 + w + slack
                assert y0 - slack <= y <= y0 + h + slack
        elif tag == "circle":
            assert x0 - slack <= float(el.get("cx")) <= x0 + w + slack
            assert y0 - slack <= float(el.get("cy")) <= y0 + h + slack
        if tag in ("polyline", "circle", "text"):
            assert el.get("class") in ROLE_COLOR
    return root


def test_svg_plane_scene(ex1_scene):
    svg = scene_to_svg(ex1_scene)
    root = _assert_svg_in_bounds(svg)
    ns = "{http://www.w3.org/2000/svg}"
    n_poly = len(root.findall(f"{ns}polyline"))
    n_circ = len(root.findall(f"{ns}circle"))
    n_layers_poly = sum(isinstance(l, Polyline) for l in ex1_scene.layers)
    n_layers_circ = sum(isinstance(l, (CircleLayer, PointMarker))
                        for l in ex1_scene.layers)
    assert n_poly == n_layers_poly
    assert n_circ == n_layers_circ
    # dashed annulus boundary
    dashed = [el for el in root.findall(f"{ns}polyline")
              if el.get("stroke-dasharray")]
    assert dashed
    assert all(el.get("class") == "boundary" for el in dashed)


def test_svg_disc_scene(ex2_disc_scene):
    svg = scene_to_svg(ex2_disc_scene)
    _assert_svg_in_bounds(svg)


def test_svg_deterministic(example1, identity_map):
    box = Box(-2, 2, -2, 2)
    centers = find_zeros(identity_map, box, grid_n=16)

    def build() -> str:
        scene = plane_portrait(identity_map, centers, [], [0.3, 0.5],
                               box=box)
        return scene_to_svg(scene)

    assert build() == build()

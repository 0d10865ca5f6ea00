"""Scenes and SVG output: portraits stay in bounds and parse as XML."""

import math
import tracemalloc
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarham import corpus
from planarham.annulus import estimate_ell
from planarham.centers import find_zeros
from planarham.compactify import (classify_sectors, compactification_for_map,
                                  infinite_singularities)
from planarham.expr import eval_grid, parse_expr
from planarham.field import Box, PlanarMap, effective_hamiltonian_poly
from planarham.rk import flow_kernel
from planarham.render import (PORTRAIT_GRID_N, CircleLayer, DiscRefusal, PointMarker,
                              Polyline, ROLE_COLOR, Scene, TextLabel, disc_portrait,
                              disc_portrait_for_map, marching_squares,
                              plane_portrait, project_to_disc, scene_to_svg)
from planarham.render import (_ESCAPE_RADIUS, _FAN_ANGLES, _FAN_RADII, _MS_TABLE,
                              _flow_polyline)


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
    sings = [classify_sectors(example2, cf, s) for s in infinite_singularities(cf)]
    return disc_portrait(example2, sings)


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


# the scalar marching squares that render.marching_squares replaced, kept
# as the reference its array passes must equal float for float

def _edge_point(edge: int, x0: float, y0: float, x1: float, y1: float,
                vals: tuple[float, float, float, float],
                level: float) -> tuple[float, float]:
    v0, v1, v2, v3 = vals
    if edge == 0:
        t = (level - v0) / (v1 - v0)
        return (x0 + t * (x1 - x0), y0)
    if edge == 1:
        t = (level - v1) / (v2 - v1)
        return (x1, y0 + t * (y1 - y0))
    if edge == 2:
        t = (level - v2) / (v3 - v2)
        return (x1 - t * (x1 - x0), y1)
    t = (level - v3) / (v0 - v3)
    return (x0, y1 - t * (y1 - y0))


def _chain_segments(segments, quantum: float):
    """Merge segments into polylines by matching quantized endpoints."""
    def key(p: tuple[float, float]) -> tuple[int, int]:
        return (round(p[0] / quantum), round(p[1] / quantum))

    by_end: dict[tuple[int, int], list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        by_end.setdefault(key(a), []).append(idx)
        by_end.setdefault(key(b), []).append(idx)

    used = [False] * len(segments)
    chains: list[tuple[tuple[float, float], ...]] = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        # grow forward from the tail, then backward from the head
        for flip in (False, True):
            while True:
                tip = chain[0] if flip else chain[-1]
                nxt = None
                for idx in by_end.get(key(tip), ()):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                pa, pb = segments[nxt]
                other = pb if key(pa) == key(tip) else pa
                if flip:
                    chain.insert(0, other)
                else:
                    chain.append(other)
        chains.append(tuple(chain))
    return chains


def reference_marching_squares(hgrid, xs, ys, level):
    """The all-cells scan: every cell in i-then-j order, one at a time."""
    nx, ny = hgrid.shape
    eps = 1e-12 * max(1.0, abs(level))
    hgrid = np.where(hgrid == level, level + eps, hgrid)
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    quantum = 1e-9 * max(xs[-1] - xs[0], ys[-1] - ys[0], 1.0)
    segments = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            vals = (float(hgrid[i, j]), float(hgrid[i + 1, j]),
                    float(hgrid[i + 1, j + 1]), float(hgrid[i, j + 1]))
            if not all(math.isfinite(v) for v in vals):
                continue
            case = sum(1 << k for k, v in enumerate(vals) if v > level)
            if case in (0, 15):
                continue
            x0, y0, x1, y1 = xs[i], ys[j], xs[i + 1], ys[j + 1]
            if case in (5, 10):
                center_above = sum(vals) > 4.0 * level
                if (case == 5) == center_above:
                    pairs = ((3, 0), (1, 2))
                else:
                    pairs = ((0, 1), (2, 3))
            else:
                pairs = _MS_TABLE[case]
            for ea, eb in pairs:
                pa = _edge_point(ea, x0, y0, x1, y1, vals, level)
                pb = _edge_point(eb, x0, y0, x1, y1, vals, level)
                if math.hypot(pb[0] - pa[0], pb[1] - pa[1]) > quantum:
                    segments.append((pa, pb))
    return _chain_segments(segments, quantum)


def _nodes(draw, n):
    start = draw(st.floats(-5.0, 5.0))
    steps = draw(st.lists(st.floats(0.01, 2.0), min_size=n - 1,
                          max_size=n - 1))
    return np.cumsum([start, *steps])


@st.composite
def contour_grids(draw):
    """Non-uniform grids with smooth, non-finite, on-level and saddle cells."""
    nx, ny = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    xs, ys = _nodes(draw, nx), _nodes(draw, ny)
    level = draw(st.floats(-2.0, 2.0))
    a, b, c, k = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3,
                                st.floats(0.0, 4.0)))
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    h = a * gx * gx + b * gx * gy + c * gy * gy + np.sin(k * gx) * np.cos(gy)
    specials = st.sampled_from([math.nan, math.inf, -math.inf, level])
    for _ in range(draw(st.integers(0, 12))):
        h[draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))] = (
            draw(specials))
    if draw(st.booleans()):
        # alternating corners: every cell is case 5 or 10, and hi > lo or
        # hi < lo decides which way its saddle resolves
        i0, j0 = draw(st.integers(0, nx - 2)), draw(st.integers(0, ny - 2))
        size = draw(st.integers(2, 8))
        hi, lo = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
        for i in range(i0, min(nx, i0 + size)):
            for j in range(j0, min(ny, j0 + size)):
                h[i, j] = level + hi if (i + j) % 2 else level - lo
    return h, xs, ys, level


@settings(max_examples=300, deadline=None)
@given(contour_grids())
def test_marching_squares_matches_all_cells_scan(grid):
    h, xs, ys, level = grid
    assert (marching_squares(h, xs, ys, level)
            == reference_marching_squares(h, xs, ys, level))


# one map of each small-maps family, in the benchmark's parameter ranges:
# affine with diag in [0.6, 1.6], off-diagonal in [-0.4, 0.4]; triangular
# (alpha u, beta v + q(u)) with deg q = 2
PORTRAIT_GRID_MAPS = {
    "affine": ("1.31*x + -0.27*y + 4.1", "0.35*x + 0.72*y + -2.6"),
    "triangular2": ("1.04*(x - 0.81)",
                    "0.93*(y - -1.37) + 0.061*(x - 0.81)^1 + -0.127*(x - 0.81)^2"),
}


def _portrait_grid(name):
    """H on the grid plane_portrait contours: 161 x 161 nodes over the
    working box."""
    if name in PORTRAIT_GRID_MAPS:
        f1, f2 = PORTRAIT_GRID_MAPS[name]
        pmap = PlanarMap(f1=parse_expr(f1), f2=parse_expr(f2))
    else:
        pmap = corpus.builtin(name)
    box = pmap.working_box()
    xs = np.linspace(box.xmin, box.xmax, PORTRAIT_GRID_N + 1)
    ys = np.linspace(box.ymin, box.ymax, PORTRAIT_GRID_N + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    with np.errstate(all="ignore"):
        h = 0.5 * (eval_grid(pmap.f1, gx, gy) ** 2 + eval_grid(pmap.f2, gx, gy) ** 2)
    return h, xs, ys


@pytest.mark.parametrize("name", [*sorted(PORTRAIT_GRID_MAPS), "example1", "example2",
                                  "example3", "identity", "control_noninjective"])
def test_marching_squares_matches_all_cells_scan_on_portrait_grids(name):
    h, xs, ys = _portrait_grid(name)
    finite = h[np.isfinite(h)]
    # short and long contours, and a level that some nodes sit on exactly
    levels = [*np.quantile(finite, [0.001, 0.05, 0.3, 0.7]).tolist(), float(finite[17])]
    for level in levels:
        got = marching_squares(h, xs, ys, level)
        assert got, level
        assert repr(got) == repr(reference_marching_squares(h, xs, ys, level)), level


def test_marching_squares_memory_stays_small():
    # a guard for the peak RSS of a portrait: one level of the affine map's
    # grid (170 points) peaks at 136 KB in tracemalloc, where the scalar
    # scan took 371 KB (its nudged copy of the grid alone is 207 KB); the
    # bound is twice that
    h, xs, ys = _portrait_grid("affine")
    level = float(np.quantile(h, 0.05))
    marching_squares(h, xs, ys, level)
    tracemalloc.start()
    try:
        marching_squares(h, xs, ys, level)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 272_000


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


def _disc_trajectories(pmap):
    scene = disc_portrait(pmap, [])
    return [l for l in scene.layers if l.role == "trajectory"]


def _from_disc(w):
    """Inverse of project_to_disc: w -> w/(1 - |w|)."""
    s = 1.0 / (1.0 - math.hypot(*w))
    return (w[0] * s, w[1] * s)


def _fan_starts():
    return [(r * math.cos(2.0 * math.pi * k / _FAN_ANGLES + 0.2),
             r * math.sin(2.0 * math.pi * k / _FAN_ANGLES + 0.2))
            for k in range(_FAN_ANGLES) for r in _FAN_RADII]


def test_linear_center_closes_after_one_loop():
    # f = (x, y) has the field (-y, x): circles about the origin, one
    # turn in time 2 pi
    pmap = PlanarMap(f1=parse_expr("x"), f2=parse_expr("y"))
    start = (1.0, 0.0)
    pts, closed = _flow_polyline(pmap.jet, flow_kernel(pmap.f1, pmap.f2), start, 1.0)
    assert closed
    loop = [start, *pts, start]
    turned = sum(math.remainder(math.atan2(b[1], b[0]) - math.atan2(a[1], a[0]),
                                2.0 * math.pi) for a, b in zip(loop, loop[1:]))
    assert turned == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert all(abs(math.hypot(*pt) - 1.0) <= 1e-6 for pt in pts)


def test_identity_disc_draws_each_orbit_once(identity_map):
    trajs = _disc_trajectories(identity_map)
    assert len(trajs) == 2 * _FAN_ANGLES
    assert all(t.closed and t.points[0] == t.points[-1] for t in trajs)
    assert sum(len(t.points) for t in trajs) <= 2000


@pytest.mark.parametrize("f1, f2", [
    ("x", "y + x^2"),
    ("1.05*(x - 0.7)",
     "0.95*(y + 1.3) + 0.06*(x - 0.7) - 0.12*(x - 0.7)^2 + 0.013*(x - 0.7)^3"),
])
def test_disc_trajectories_stay_on_their_level(f1, f2):
    pmap = PlanarMap(f1=parse_expr(f1), f2=parse_expr(f2), domain=None)
    hpoly = effective_hamiltonian_poly(pmap)
    trajs = _disc_trajectories(pmap)
    assert len(trajs) == 2 * _FAN_ANGLES
    for traj, start in zip(trajs, _fan_starts()):
        assert project_to_disc(start) in traj.points
        level = hpoly.eval(*start)
        for w in traj.points:
            assert abs(hpoly.eval(*_from_disc(w)) - level) <= 1e-6 * (1.0 + abs(level))


def test_example2_open_trajectories_escape_both_ways(ex2_disc_scene):
    trajs = [l for l in ex2_disc_scene.layers if l.role == "trajectory"]
    escaped = [t for t in trajs if not t.closed
               and all(math.hypot(*_from_disc(t.points[i])) >= _ESCAPE_RADIUS * (1 - 1e-9)
                       for i in (0, -1))]
    assert escaped
    assert all(t.points[0] != t.points[-1] for t in escaped)


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


def test_svg_label_text_is_escaped():
    scene = Scene(viewport=Box(-1.05, 1.05, -1.05, 1.05),
                  layers=(TextLabel((0.0, 0.0), "a<&>b", role="label"),), disc=True)
    svg = scene_to_svg(scene)
    assert f">{escape('a<&>b')}</text>" in svg
    assert ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text").text == "a<&>b"


def test_svg_deterministic(example1, identity_map):
    box = Box(-2, 2, -2, 2)
    centers = find_zeros(identity_map, box, grid_n=16)

    def build() -> str:
        scene = plane_portrait(identity_map, centers, [], [0.3, 0.5],
                               box=box)
        return scene_to_svg(scene)

    assert build() == build()

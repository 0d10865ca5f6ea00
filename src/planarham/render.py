"""SVG phase portraits: level sets in the plane, flow on the Poincare disc.

Scenes are plain layer lists (polylines, markers, circles, labels) over
either a plane viewport or the unit disc.  Closed orbits come from the
tracer; level-set pieces the tracer cannot reach (unbounded components,
levels above every center's bracket) come from a marching-squares pass.
The disc portrait runs the Hamiltonian field, read off the jet of f,
and projects the plane by z -> z/(1 + |z|), which keeps the inverse
simple; the equator is the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compactify import CompactifiedField
from .expr import JET_ERRORS, eval_grid
from .field import Box, PlanarMap
from .rk import dp5_step, flow_kernel, step_factor
from .trace import (AngleBudget, LevelUnreachable, center_point, integrate_orbit,
                    level_start_point)

# fixed five-color palette keyed by layer role
_C_FLOW = "#2a6f97"
_C_BOUNDARY = "#c1121f"
_C_CENTER = "#2d6a4f"
_C_SINGULAR = "#e36414"
_C_NEUTRAL = "#5c677d"

ROLE_COLOR = {
    "level": _C_FLOW,
    "trajectory": _C_FLOW,
    "boundary": _C_BOUNDARY,
    "center": _C_CENTER,
    "singularity": _C_SINGULAR,
    "equator": _C_NEUTRAL,
    "label": _C_NEUTRAL,
}

GLYPH = {
    "has-nondegenerate-sector": "N",
    "two-degenerate-hyperbolic": "H",
    "unclassified": "?",
}


@dataclass(frozen=True)
class Polyline:
    points: tuple[tuple[float, float], ...]
    role: str
    closed: bool = False
    dashed: bool = False


@dataclass(frozen=True)
class PointMarker:
    at: tuple[float, float]
    role: str


@dataclass(frozen=True)
class CircleLayer:
    center: tuple[float, float]
    radius: float
    role: str
    dashed: bool = False


@dataclass(frozen=True)
class TextLabel:
    at: tuple[float, float]
    text: str
    role: str


Layer = Polyline | PointMarker | CircleLayer | TextLabel


def _layer_points(layer: Layer):
    if isinstance(layer, Polyline):
        return layer.points
    if isinstance(layer, CircleLayer):
        return (layer.center,)
    return (layer.at,)


@dataclass(frozen=True)
class Scene:
    viewport: Box
    layers: tuple[Layer, ...]
    disc: bool = False
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for layer in self.layers:
            for x, y in _layer_points(layer):
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(f"non-finite coordinate in {layer.role}")
                if self.disc and math.hypot(x, y) > 1.0 + 1e-9:
                    raise ValueError(
                        f"{layer.role} layer leaves the unit disc")
            if self.disc and isinstance(layer, CircleLayer):
                reach = math.hypot(*layer.center) + layer.radius
                if reach > 1.0 + 1e-9:
                    raise ValueError("circle leaves the unit disc")


@dataclass(frozen=True)
class DiscRefusal:
    """Why a disc portrait cannot be produced for this map."""
    reason: str


# ===== marching squares ===== #

# per-case crossed-edge pairs; corners v0..v3 counterclockwise from the
# lower-left, bit i set when H(vi) > level, edges 0..3 = bottom, right,
# top, left.  Cases 5 and 10 are ambiguous and resolved by the cell
# center's side.
_MS_TABLE: dict[int, tuple[tuple[int, int], ...]] = {
    0: (), 15: (),
    1: ((3, 0),), 14: ((3, 0),),
    2: ((0, 1),), 13: ((0, 1),),
    3: ((3, 1),), 12: ((3, 1),),
    4: ((1, 2),), 11: ((1, 2),),
    6: ((0, 2),), 9: ((0, 2),),
    7: ((2, 3),), 8: ((2, 3),),
}


# the pairs as one table: rows 0..15 by case, padded with (0, 0) to two
# pairs; rows 16 and 17 a saddle whose center is on the side of v0 and v2
# (case 5 above, case 10 below) or not
_MS_EDGES = np.array([(*_MS_TABLE.get(case, ()), (0, 0), (0, 0))[:2] for case in range(16)]
                     + [((3, 0), (1, 2)), ((0, 1), (2, 3))])
# corner k of cell (i, j) is node (i + _CORNER_DI[k], j + _CORNER_DJ[k]);
# edge e runs from corner e to corner e + 1 (mod 4)
_CORNER_DI = np.array([0, 1, 1, 0])
_CORNER_DJ = np.array([0, 0, 1, 1])
_CASE_BITS = np.array([1, 2, 4, 8])


def marching_squares(hgrid: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     level: float) -> list[tuple[tuple[float, float], ...]]:
    """Contour polylines of hgrid == level, segments chained by endpoint.

    ``hgrid[i, j]`` is the value at ``(xs[i], ys[j])``.  The segments
    come from :func:`_segments`, in row-major (i, then j) order, a
    saddle's two in turn, which fixes the chains and SVG bytes.  One no
    longer than the endpoint quantum (by :func:`math.hypot`) is dropped;
    :func:`_chain_ends` joins the others.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    quantum = 1e-9 * max(float(xs[-1] - xs[0]), float(ys[-1] - ys[0]), 1.0)
    px, py = _segments(np.asarray(hgrid, dtype=float), xs, ys, level)
    # degenerate stubs appear when the contour grazes a grid node; they
    # are shorter than the endpoint quantum and would survive as isolated
    # two-point chains.  math.hypot per segment: numpy's may round apart
    length = np.fromiter(map(math.hypot, (px[:, 1] - px[:, 0]).tolist(),
                             (py[:, 1] - py[:, 0]).tolist()), float, len(px))
    keep = length > quantum
    px, py = px[keep].ravel(), py[keep].ravel()
    # np.rint and round() both round half to even; the keys stay floats,
    # which compare as the exact integers round() gives, past 2**63 too
    with np.errstate(all="ignore"):
        chains = _chain_ends(np.rint(px / quantum), np.rint(py / quantum))
    points = list(zip(px.tolist(), py.tolist()))
    return [tuple(map(points.__getitem__, chain)) for chain in chains]


def _segments(h: np.ndarray, xs: np.ndarray, ys: np.ndarray,
              level: float) -> tuple[np.ndarray, np.ndarray]:
    """The x and y of each contour segment's two ends, one row a segment.

    Array passes find the crossed cells with four finite corners, resolve
    each saddle by the left-to-right sum of its corners against
    ``4 * level``, and put the crossing of an edge from corner value va to
    vb at the fraction ``t = (level - va) / (vb - va)`` of its length.
    """
    ny = h.shape[1]
    # the cells by their lower-left node p = i * ny + j, one per node but
    # the last row and column: those with one to three corners on or
    # above the level (p % ny == ny - 1 wraps across a row)
    nodes = h.ravel()
    up = (nodes >= level).view(np.uint8)
    above = up[:-ny - 1] + up[ny:-1] + up[ny + 1:] + up[1:-ny]
    cell = np.flatnonzero((above != 0) & (above != 4))
    cell = cell[cell % ny != ny - 1]
    # a corner exactly on the level would put crossings at grid nodes and
    # break segment chaining; nudge such values by an invisible amount
    corners = nodes[cell[:, None] + _CORNER_DI * ny + _CORNER_DJ]
    corners = np.where(corners == level, level + 1e-12 * max(1.0, abs(level)), corners)
    finite = np.isfinite(corners).all(axis=1)
    ii, jj = np.divmod(cell[finite], ny)
    corners = corners[finite]
    case = (corners > level) @ _CASE_BITS
    with np.errstate(all="ignore"):
        center_above = ((corners[:, 0] + corners[:, 1]) + corners[:, 2]
                        + corners[:, 3]) > 4.0 * level
        saddle = (case == 5) | (case == 10)
        row = np.where(saddle, np.where((case == 5) == center_above, 16, 17), case)
        # one segment per cell and two per saddle, each as its two ends
        slots = np.stack((np.ones_like(saddle), saddle), axis=1)
        owner = np.repeat(np.nonzero(slots)[0], 2)
        edge = _MS_EDGES[row][slots].ravel()
        i, j = ii[owner], jj[owner]
        va = corners[owner, edge]
        t = (level - va) / (corners[owner, (edge + 1) & 3] - va)
        step = np.where(edge < 2, t, -t)        # edges 2 and 3 run backwards
        cx, cy = xs[i + _CORNER_DI[edge]], ys[j + _CORNER_DJ[edge]]
        along_x = (edge & 1) == 0
        px = np.where(along_x, cx + step * (xs[i + 1] - xs[i]), cx)
        py = np.where(along_x, cy, cy + step * (ys[j + 1] - ys[j]))
    return px.reshape(-1, 2), py.reshape(-1, 2)


def _chain_ends(kx: np.ndarray, ky: np.ndarray) -> list[list[int]]:
    """Segments joined into chains by endpoint key, as lists of ends.

    Segment s has ends 2s and 2s + 1, the latter its tail; two ends meet
    when their keys (kx, ky) are equal.  Each chain starts at the first
    segment not yet used, grows from its tail, then from its head, each
    time onto the first unused segment, in index order, with an end at
    the tip's key (a segment with both ends there counts once per end).
    """
    order = np.lexsort((ky, kx))            # stable: by end within a key
    sx, sy = kx[order], ky[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(fresh) - 1
    starts = np.flatnonzero(fresh).tolist()
    group, members = group.tolist(), order.tolist()
    # per key: where its members start, and its first member not known used
    first, stop = starts, [*starts[1:], len(members)]
    used = [False] * (len(members) // 2)

    def grow(tip: int) -> list[int]:
        out = []
        while True:
            g = group[tip]
            k, end = first[g], stop[g]
            while k < end and used[members[k] >> 1]:
                k += 1
            first[g] = k
            if k == end:
                return out
            s = members[k] >> 1
            used[s] = True
            tip = 2 * s + (group[2 * s] == g)       # the segment's other end
            out.append(tip)

    chains = []
    for s in range(len(used)):
        if not used[s]:
            used[s] = True
            tail = grow(2 * s + 1)
            chains.append([*reversed(grow(2 * s)), 2 * s, 2 * s + 1, *tail])
    return chains


# ===== plane portrait ===== #


def _clip_runs(points, box: Box):
    """Consecutive in-box runs of a point sequence, each a polyline."""
    runs = []
    current: list[tuple[float, float]] = []
    for p in points:
        if box.contains(p):
            current.append(p)
        elif current:
            runs.append(tuple(current))
            current = []
    if current:
        runs.append(tuple(current))
    return [r for r in runs if len(r) >= 2]


def _near_fraction(candidate, anchor: np.ndarray, tol: float) -> float:
    """Fraction of sampled candidate points within tol of the anchor set."""
    pts = list(candidate)
    stride = max(1, len(pts) // 32)
    sampled = np.asarray(pts[::stride], dtype=float)
    d = sampled[:, None, :] - anchor[None, :, :]
    dist = np.sqrt((d * d).sum(axis=2)).min(axis=1)
    return float((dist < tol).mean())


PORTRAIT_GRID_N = 160   # side of the portrait's marching-squares grid


def plane_portrait(pmap: PlanarMap, centers, rims, levels,
                   box: Box | None = None, grid_n: int = PORTRAIT_GRID_N,
                   budget: AngleBudget | None = None) -> Scene:
    """Level sets of H over the box, annulus rims dashed.

    Each level is traced from each center when reachable; closed orbits
    are kept as smooth polylines.  A marching-squares pass supplies the
    remaining components, dropping pieces already covered by a traced
    orbit (sampled proximity within one grid cell).  Each of ``rims``
    (:attr:`planarham.annulus.EllEstimate.rim`) is drawn dashed.
    """
    levels = [float(h) for h in levels]
    if levels != sorted(levels):
        raise ValueError("levels must be sorted ascending")
    box = box if box is not None else pmap.working_box()
    budget = budget if budget is not None else AngleBudget()
    cell = max(box.xmax - box.xmin, box.ymax - box.ymin) / grid_n

    xs = np.linspace(box.xmin, box.xmax, grid_n + 1)
    ys = np.linspace(box.ymin, box.ymax, grid_n + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    with np.errstate(all="ignore"):
        f1, f2 = eval_grid(pmap.grid, gx, gy)
        hgrid = 0.5 * (f1 * f1 + f2 * f2)

    layers: list[Layer] = []
    warnings: list[str] = []
    drew_any = False
    for level in levels:
        traced: list[tuple[tuple[float, float], ...]] = []
        for center in centers:
            loc = center_point(center)
            try:
                start = level_start_point(pmap, loc, level)
            except (LevelUnreachable, ValueError):
                continue
            trace = integrate_orbit(pmap, start, budget=budget, center=loc)
            if trace.closed():
                traced.append(trace.points)
        anchor = (np.asarray([p for t in traced for p in t], dtype=float)
                  if traced else None)
        for pts in traced:
            for run in _clip_runs(pts, box):
                layers.append(Polyline(run, role="level",
                                       closed=len(run) == len(pts)))
                drew_any = True
        for chain in marching_squares(hgrid, xs, ys, level):
            if anchor is not None and _near_fraction(chain, anchor,
                                                     2.0 * cell) >= 0.5:
                continue
            layers.append(Polyline(chain, role="level"))
            drew_any = True
    if not drew_any:
        warnings.append("no requested level intersects the box")

    for rim in rims:
        for run in _clip_runs(rim, box):
            layers.append(Polyline(run, role="boundary", dashed=True,
                                   closed=len(run) == len(rim)))
    for center in centers:
        loc = center_point(center)
        if box.contains(loc):
            layers.append(PointMarker(loc, role="center"))

    return Scene(viewport=box, layers=tuple(layers),
                 warnings=tuple(warnings))


# ===== disc portrait ===== #


def project_to_disc(p: tuple[float, float]) -> tuple[float, float]:
    """z -> z/(1 + |z|): plane onto the open unit disc, rays preserved."""
    r = math.hypot(*p)
    s = 1.0 / (1.0 + r)
    return (p[0] * s, p[1] * s)


_FAN_RADII = (0.7, 2.0)
_FAN_ANGLES = 8
_ESCAPE_RADIUS = 60.0
_FLOW_MAX_STEPS = 400


def _flow_polyline(jet, kernel, start: tuple[float, float],
                   direction: float) -> tuple[list[tuple[float, float]], bool]:
    """Integrate the Hamiltonian field one way, collecting points until
    escape or the orbit's first return to its start.

    ``jet`` is the map's compiled jet (:attr:`PlanarMap.jet`) and
    ``kernel`` the field's DP5 step from :func:`planarham.rk.flow_kernel`.
    The return is the first accepted point, within one step cap of the
    start, where (p - start) . v0 goes from negative to >= 0 (v0 the
    start's velocity): the orbit has crossed the start's transversal
    section again, and the flag in the result says so.  That point is
    not kept: the caller closes the loop at the start itself.
    """
    x, y = start
    out: list[tuple[float, float]] = []
    try:
        v1, dx1, dy1, v2, dx2, dy2 = jet(x, y)
    except JET_ERRORS:
        return out, False
    f1x = direction * -(v1 * dy1 + v2 * dy2)
    f1y = direction * (v1 * dx1 + v2 * dx2)
    speed = math.hypot(f1x, f1y)
    if speed == 0.0:
        return out, False
    v0x, v0y = f1x, f1y
    near = 0.05 * (1.0 + math.hypot(x, y))
    behind = False
    h = 0.05 / speed
    for _ in range(_FLOW_MAX_STEPS):
        try:
            x5, y5, enorm, k7x, k7y = dp5_step(kernel, x, y, f1x, f1y, h,
                                               1e-6, 1e-9, direction)
        except JET_ERRORS:
            break
        if not (math.isfinite(x5) and math.isfinite(y5)):
            break
        jump = math.hypot(x5 - x, y5 - y)
        cap = 0.05 * (1.0 + math.hypot(x, y))
        if enorm > 1.0 or jump > cap:
            h *= 0.5 if jump > cap else step_factor(enorm)
            if h < 1e-14:
                break
            continue
        x, y, f1x, f1y = x5, y5, k7x, k7y
        ahead = (x - start[0]) * v0x + (y - start[1]) * v0y >= 0.0
        if behind and ahead and math.hypot(x - start[0], y - start[1]) <= near:
            return out, True
        behind = not ahead
        speed = math.hypot(f1x, f1y)
        if speed == 0.0:
            break
        # aim under the cap so that few trial steps overshoot it
        h = min(h * step_factor(enorm), 0.9 * cap / speed)
        out.append((x, y))
        if math.hypot(x, y) >= _ESCAPE_RADIUS:
            break
    return out, False


def disc_portrait(pmap: PlanarMap, singularities) -> Scene:
    """Poincare-disc portrait: equator, singularity glyphs, flow fan.

    Each fan start is run forward; an orbit that returns to its start is
    drawn as one closed loop, any other is also run backward.  The flow
    stops where f is undefined.
    """
    jet = pmap.jet
    kernel = flow_kernel(pmap.f1, pmap.f2)
    layers: list[Layer] = [CircleLayer((0.0, 0.0), 1.0, role="equator")]

    for k in range(_FAN_ANGLES):
        ang = 2.0 * math.pi * k / _FAN_ANGLES + 0.2
        for radius in _FAN_RADII:
            start = (radius * math.cos(ang), radius * math.sin(ang))
            fore, closed = _flow_polyline(jet, kernel, start, 1.0)
            if closed:
                pts = [start, *fore, start]
            else:
                back, _ = _flow_polyline(jet, kernel, start, -1.0)
                pts = [*reversed(back), start, *fore]
            proj = tuple(project_to_disc(p) for p in pts)
            if len(proj) >= 2:
                layers.append(Polyline(proj, role="trajectory", closed=closed))

    for sing in singularities:
        c, s = math.cos(sing.theta), math.sin(sing.theta)
        glyph = GLYPH.get(sing.classification, "?")
        for ux, uy in ((c, s), (-c, -s)):
            layers.append(PointMarker((ux, uy), role="singularity"))
            layers.append(TextLabel((0.88 * ux, 0.88 * uy), glyph,
                                    role="label"))

    return Scene(viewport=Box(-1.05, 1.05, -1.05, 1.05),
                 layers=tuple(layers), disc=True)


def disc_portrait_for_map(pmap: PlanarMap, cf: CompactifiedField | None,
                          singularities) -> Scene | DiscRefusal:
    """Disc portrait, or a structured refusal for non-polynomial H."""
    if cf is None:
        return DiscRefusal(
            "Hamiltonian is not polynomial: the field does not extend to "
            "the Poincare disc by the degree-rescaling construction")
    return disc_portrait(pmap, singularities)


# ===== SVG emission ===== #


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def scene_to_svg(scene: Scene, width: int = 640) -> str:
    """Deterministic SVG 1.1 text for a scene (y axis flipped to math)."""
    box = scene.viewport
    w = box.xmax - box.xmin
    h = box.ymax - box.ymin
    size = max(w, h)
    height = max(1, round(width * h / w))
    sw = 0.0035 * size
    sw_accent = 0.005 * size
    marker_r = 0.010 * size
    font = 0.045 * size
    dash = f"{0.02 * size:.3f},{0.012 * size:.3f}"

    style = (
        f".level,.trajectory{{stroke:{_C_FLOW};fill:none;"
        f"stroke-width:{_fmt(sw)}}}"
        f".boundary{{stroke:{_C_BOUNDARY};fill:none;"
        f"stroke-width:{_fmt(sw_accent)}}}"
        f".center{{stroke:none;fill:{_C_CENTER}}}"
        f".singularity{{stroke:none;fill:{_C_SINGULAR}}}"
        f".equator{{stroke:{_C_NEUTRAL};fill:none;"
        f"stroke-width:{_fmt(sw)}}}"
        f".label{{fill:{_C_NEUTRAL};font-family:sans-serif;"
        f"font-size:{_fmt(font)}px}}"
    )

    parts = [
        (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'width="{width}" height="{height}" '
         f'viewBox="{_fmt(box.xmin)} {_fmt(-box.ymax)} '
         f'{_fmt(w)} {_fmt(h)}">'),
        f"<style>{style}</style>",
    ]
    for layer in scene.layers:
        dashed = getattr(layer, "dashed", False)
        dash_attr = f' stroke-dasharray="{dash}"' if dashed else ""
        if isinstance(layer, Polyline):
            pts = list(layer.points)
            if layer.closed and pts and pts[0] != pts[-1]:
                pts.append(pts[0])
            body = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
            parts.append(f'<polyline points="{body}" '
                         f'class="{layer.role}"{dash_attr}/>')
        elif isinstance(layer, CircleLayer):
            cx, cy = layer.center
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" '
                         f'r="{_fmt(layer.radius)}" '
                         f'class="{layer.role}"{dash_attr}/>')
        elif isinstance(layer, PointMarker):
            cx, cy = layer.at
            parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(-cy)}" '
                         f'r="{_fmt(marker_r)}" class="{layer.role}"/>')
        elif isinstance(layer, TextLabel):
            cx, cy = layer.at
            text = layer.text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            parts.append(f'<text x="{_fmt(cx)}" y="{_fmt(-cy)}" '
                         f'text-anchor="middle" class="{layer.role}">'
                         f"{text}</text>")
    parts.append("</svg>")
    return "\n".join(parts)

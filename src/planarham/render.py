"""SVG phase portraits: level sets in the plane, flow on the Poincare disc.

Scenes are plain layer lists (polylines, markers, circles, labels) over
either a plane viewport or the unit disc.  Closed orbits come from the
tracer; level-set pieces the tracer cannot reach (unbounded components,
levels above every center's bracket) come from a marching-squares pass.
The disc portrait projects the plane by z -> z/(1 + |z|), which keeps
the inverse simple; the equator is the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compactify import CompactifiedField
from .expr import compile_polys, eval_grid
from .field import Box, PlanarMap
from .rk import dp5_step, poly_kernel, step_factor
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


def marching_squares(hgrid: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     level: float) -> list[tuple[tuple[float, float], ...]]:
    """Contour polylines of hgrid == level, segments chained by endpoint.

    ``hgrid[i, j]`` is the value at ``(xs[i], ys[j])``.  One numpy pass
    finds the crossed cells with four finite corners; their segments come
    in row-major (i, then j) order, which fixes the chains and SVG bytes.
    """
    # a corner exactly on the level would put crossings at grid nodes and
    # break segment chaining; nudge such values by an invisible amount
    eps = 1e-12 * max(1.0, abs(level))
    h = np.where(hgrid == level, level + eps, hgrid)
    xs, ys = [float(v) for v in xs], [float(v) for v in ys]
    quantum = 1e-9 * max(xs[-1] - xs[0], ys[-1] - ys[0], 1.0)
    up = (h > level).view(np.uint8)
    ok = np.isfinite(h)
    cases = (up[:-1, :-1] | up[1:, :-1] << 1 | up[1:, 1:] << 2
             | up[:-1, 1:] << 3)
    active = ((cases != 0) & (cases != 15) & ok[:-1, :-1] & ok[1:, :-1]
              & ok[1:, 1:] & ok[:-1, 1:])
    segments: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for (i, j), case in zip(np.argwhere(active).tolist(),
                            cases[active].tolist()):
        vals = (float(h[i, j]), float(h[i + 1, j]),
                float(h[i + 1, j + 1]), float(h[i, j + 1]))
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
            # degenerate stubs appear when the contour grazes a grid
            # node; they are shorter than the endpoint quantum and
            # would survive as isolated two-point chains
            if math.hypot(pb[0] - pa[0], pb[1] - pa[1]) > quantum:
                segments.append((pa, pb))
    return _chain_segments(segments, quantum)


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
        f1 = eval_grid(pmap.f1, gx, gy)
        f2 = eval_grid(pmap.f2, gx, gy)
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


def _flow_polyline(pair, kernel, start: tuple[float, float],
                   direction: float) -> tuple[list[tuple[float, float]], bool]:
    """Integrate the plane field one way, collecting points until escape
    or the orbit's first return to its start.

    ``pair`` is the field compiled by :func:`compile_polys` and ``kernel``
    its DP5 step from :func:`planarham.rk.poly_kernel`.  The return is
    the first accepted point, within one step cap of the start, where
    (p - start) . v0 goes from negative to >= 0 (v0 the start's
    velocity): the orbit has crossed the start's transversal section
    again, and the flag in the result says so.  That point is not kept:
    the caller closes the loop at the start itself.
    """
    x, y = start
    out: list[tuple[float, float]] = []
    try:
        fx, fy = pair(x, y)
    except (OverflowError, ValueError, ZeroDivisionError):
        return out, False
    f1x, f1y = direction * fx, direction * fy
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
        except (OverflowError, ValueError, ZeroDivisionError):
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


def disc_portrait(cf: CompactifiedField, singularities) -> Scene:
    """Poincare-disc portrait: equator, singularity glyphs, flow fan.

    Each fan start is run forward; an orbit that returns to its start is
    drawn as one closed loop, any other is also run backward.
    """
    pair = compile_polys(cf.p, cf.q)
    kernel = poly_kernel(cf.p, cf.q)
    layers: list[Layer] = [CircleLayer((0.0, 0.0), 1.0, role="equator")]

    for k in range(_FAN_ANGLES):
        ang = 2.0 * math.pi * k / _FAN_ANGLES + 0.2
        for radius in _FAN_RADII:
            start = (radius * math.cos(ang), radius * math.sin(ang))
            fore, closed = _flow_polyline(pair, kernel, start, 1.0)
            if closed:
                pts = [start, *fore, start]
            else:
                back, _ = _flow_polyline(pair, kernel, start, -1.0)
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
    return disc_portrait(cf, singularities)


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

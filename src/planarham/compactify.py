"""Poincare compactification of polynomial Hamiltonian pair fields.

For polynomial H of degree m the field (-H_y, H_x) extends to the
sphere, and its infinite singular points sit on the equator at the
angles where G(theta) = g(cos theta, sin theta) vanishes.  By Euler's
identity g = c Q_d - s P_d, with P_d, Q_d the top-degree forms of the
field, is m H_m, so g is read straight off H's top-degree terms.  For H
a sum of squares G >= 0, so roots come in even multiplicity and are
found as touching minima.

Orbits are level curves of H, so an infinite singular point has a
nondegenerate sector exactly when H stays bounded along a curve to
infinity in its cone, and two degenerate hyperbolic sectors when H is
coercive in the cone on both sides of the equator (the point's direction
and its antipode's).  A point in direction theta is read in chart U1
(x = 1/v, y = u/v) when |cos theta| >= |sin theta|, else in U2
(x = u/v, y = 1/v).  Along a curve to infinity a polynomial H tends to
a value or grows like |v|^-q with rational q >= 1/deg H (Bajbar-Stein,
SIAM J. Optim. 25, 2015; Dumortier-Llibre-Artes, *Qualitative Theory of
Planar Differential Systems*, ch. 3 and 5).  H is read as |f|^2 / 2
through f: its expanded polynomial cancels far out.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .annulus import SIGN_CHANGE
from .brent import brent_root
from .expr import (Poly2, _interval_add, _interval_pow, compile_array_polys, compile_polys,
                   eval_grid)
from .field import JET_ERRORS, PlanarMap, effective_hamiltonian_poly
from .rk import dp5_step  # noqa: F401  (perfbench/tracer.py reads it by name)

SCAN_N = 2048
ROOT_RESIDUAL = 1e-9

# H's valleys: the cone's half-width in u, samples per segment (odd: u0 is one)
FAN_R = 0.05
VALLEY_N = 257
VALLEY_DEPTHS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
VALLEY_MINIMA = 8
CERT_HALVINGS = 24
CERT_BOXES = 4096


class EquatorDegenerate(Exception):
    """The equator scan cannot decide: G vanishes identically (the whole
    equator is singular), or g overflows."""


@dataclass(frozen=True)
class CompactifiedField:
    degree: int                   # the field's: deg H - 1
    equator_poly: Poly2           # g(c, s) with G(theta) = g(cos, sin)
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class InfinitySingularity:
    theta: float                  # direction angle in [0, pi)
    chart: str                    # "U1" or "U2"
    u: float                      # chart abscissa; the point is (u, 0)
    classification: str = "unclassified"
    confidence: float = 0.0
    evidence: tuple[str, ...] = ()           # per side, v > 0 first
    valley: tuple[tuple[float, ...], ...] = ()   # per side, H's bound at each floor


def build_compactification(hpoly: Poly2) -> CompactifiedField:
    """The equator polynomial g = m H_m of H of degree m: each term
    c x^i y^j of H_m gives g the coefficient ``c * i + c * j``, the float
    sum that c Q_d - s P_d computes from the field (-H_y, H_x).

    Rejects H of degree <= 1 (the field is constant).  Flags a vanishing
    field component (every term of H free of y, or every one free of x):
    the field is then singular along a curve, which the det Df != 0
    pipeline never feeds us.
    """
    m = hpoly.degree()
    if m <= 1:
        raise ValueError("field degree below 1: nothing to compactify")
    warnings = []
    if all(j == 0 for _, _, j in hpoly.terms) or all(i == 0 for _, i, _ in hpoly.terms):
        warnings.append("a field component vanishes identically; "
                        "the field is singular along a curve")
    g = Poly2.from_dict({(i, j): c * i + c * j for c, i, j in hpoly.terms if i + j == m})
    return CompactifiedField(degree=m - 1, equator_poly=g, warnings=tuple(warnings))


def _g_funcs(g: Poly2, gx: Poly2, gy: Poly2):
    g0_at = compile_polys(g)
    g1_at = compile_polys(gx, gy)

    def G(t: float) -> float:
        return g0_at(math.cos(t), math.sin(t))[0]

    def G1(t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        vx, vy = g1_at(c, s)
        return -s * vx + c * vy

    return G, G1


def _chart_for(theta: float) -> tuple[str, float]:
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) >= abs(s):
        return "U1", s / c
    return "U2", c / s


@cache
def _scan_angles(scan_n: int) -> tuple[tuple[float, ...], np.ndarray, np.ndarray]:
    """The scan's angles ``k * (pi / scan_n)``, and math.cos and math.sin
    of each (numpy's may round apart)."""
    step = math.pi / scan_n
    thetas = tuple(k * step for k in range(scan_n))
    tables = np.array([[math.cos(t) for t in thetas], [math.sin(t) for t in thetas]])
    tables.setflags(write=False)
    return thetas, tables[0], tables[1]


def infinite_singularities(cf: CompactifiedField,
                           scan_n: int = SCAN_N) -> list[InfinitySingularity]:
    """Roots of G on [0, pi): scan, bracket, polish.

    G is sampled at the angles k pi / ``scan_n`` in one array pass, and
    masks over the samples (wrapped at k = -1 and k = ``scan_n`` by
    G(theta + pi) = (-1)^(d+1) G(theta)) flag where a root may sit.
    Odd-multiplicity roots show up as zero samples or sign changes; even
    ones (the generic case for sum-of-squares Hamiltonians, where
    G >= 0) as touching minima, located by a sign change of G'.  The
    flagged samples are visited in order, and :func:`brent_root`
    polishes each bracket on the scalar G or G'.  Raises
    :class:`EquatorDegenerate` when G vanishes identically, or when g,
    one of its partials or a sample of G is not finite.
    """
    g = cf.equator_poly
    partials = (g.dx(), g.dy())
    if not all(math.isfinite(c) for p in (g, *partials) for c, _, _ in p.terms):
        raise EquatorDegenerate("equator polynomial has a non-finite coefficient")
    step = math.pi / scan_n
    thetas, cos_t, sin_t = _scan_angles(scan_n)
    (vals,), _ = compile_array_polys(g)(cos_t, sin_t)     # |cos|, |sin| <= 1: ** never raises
    if not np.isfinite(vals).all():
        raise EquatorDegenerate("equator polynomial overflows on the scan")
    scale = max(1.0, float(np.abs(vals).max()))
    if (np.abs(vals) <= 1e-12 * scale).all():
        raise EquatorDegenerate("equator polynomial vanishes identically")

    # G(theta + pi) = (-1)^(d+1) G(theta); wrap sample lookups accordingly
    wrap_sign = 1.0 if (cf.degree + 1) % 2 == 0 else -1.0
    before = np.concatenate(([vals[-1] * wrap_sign], vals[:-1]))
    after = np.concatenate((vals[1:], [vals[0] * wrap_sign]))
    zero = vals == 0.0
    with np.errstate(over="ignore"):        # an overflowing product keeps its sign
        change = vals * after < 0.0
    # a touching minimum inside (a - step, b + step), a and b as below
    touch = ((np.abs(vals) <= 1e-3 * scale) & (vals <= np.abs(before))
             & (vals <= np.abs(after)))
    flagged = np.flatnonzero(zero | change | touch).tolist()
    if not flagged:
        return []
    G, G1 = _g_funcs(g, *partials)
    roots: list[float] = []

    def push(t: float) -> None:
        t = t % math.pi
        for r in roots:
            if abs(t - r) <= 1e-8 or abs(abs(t - r) - math.pi) <= 1e-8:
                return
        if abs(G(t)) <= ROOT_RESIDUAL * scale:
            roots.append(t)

    for k in flagged:
        a, b = thetas[k], thetas[k] + step
        if zero[k]:
            push(a)
        elif change[k]:
            push(brent_root(G, a, b, xtol=1e-15, maxiter=200))
        if touch[k]:
            lo, hi = a - step, a + step
            if G1(lo) < 0.0 < G1(hi):
                push(brent_root(G1, lo, hi, xtol=1e-15, maxiter=200))

    return [InfinitySingularity(t, *_chart_for(t)) for t in sorted(roots)]


def _to_plane(chart: str, u, v):
    """(x, y) of the chart point (u, v): (1/v, u/v) in U1, (u/v, 1/v) in U2."""
    return (1.0 / v, u / v) if chart == "U1" else (u / v, 1.0 / v)


def _h_bounds(pmap: PlanarMap, chart: str, ulo, uhi, v) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) of H on the plane images of the chart segments
    [ulo, uhi] x {v}, from the map's compiled enclosures of f1 and f2
    (:attr:`~planarham.field.PlanarMap.interval_values`); (0, inf) where
    f is not enclosed."""
    (xa, ya), (xb, yb) = _to_plane(chart, ulo, v), _to_plane(chart, uhi, v)
    box = (np.minimum(xa, xb), np.maximum(xa, xb), np.minimum(ya, yb), np.maximum(ya, yb))
    (lo1, lo2), (hi1, hi2), und = pmap.interval_values(*box)
    with np.errstate(all="ignore"):
        lo, hi = _interval_add(_interval_pow((lo1, hi1), 2), _interval_pow((lo2, hi2), 2))
    undefined = und | np.isnan(hi)
    return np.where(undefined, 0.0, 0.5 * lo), np.where(undefined, math.inf, 0.5 * hi)


def _valley_floor(pmap: PlanarMap, chart: str, us: np.ndarray, fs: np.ndarray,
                  v: float, prev: float | None) -> float:
    """The abscissa of the least H found at depth v among the lowest discrete
    minima of H at the samples ``us`` (``fs`` holds f there), the zeros of a
    component between samples (a valley narrower than their spacing) and the
    last depth's ``prev``, each refined by :func:`brent_root` on dH/du downhill."""
    d = 2 if chart == "U1" else 1       # u moves y in U1 and x in U2

    def reading(u: float) -> tuple[tuple, float, float]:    # f's jet, H and dH/du at u
        try:
            j = pmap.jet(*_to_plane(chart, u, v))
        except JET_ERRORS:
            return (math.nan,) * 6, math.inf, math.nan
        h = 0.5 * (j[0] * j[0] + j[3] * j[3])
        return j, h if h == h else math.inf, (j[0] * j[d] + j[3] * j[d + 3]) / v

    def refine(g, a: float, b: float) -> None:
        with contextlib.suppress(ValueError, RuntimeError):
            cands.append(brent_root(g, a, b, xtol=1e-300, maxiter=100))

    with np.errstate(all="ignore"):
        row = np.nan_to_num(0.5 * (fs[0] * fs[0] + fs[1] * fs[1]), nan=math.inf)
    padded = np.concatenate(([math.inf], row, [math.inf]))
    idx = np.flatnonzero((row < math.inf) & (row <= padded[:-2]) & (row <= padded[2:]))
    cands = [float(u) for u in us[idx[np.argsort(row[idx], kind="stable")][:VALLEY_MINIMA]]]
    cands += [] if prev is None else [prev]
    for c in (0, 1):
        for i in np.flatnonzero(np.sign(fs[c, :-1]) * np.sign(fs[c, 1:]) < 0.0)[:VALLEY_MINIMA]:
            refine(lambda u: reading(u)[0][3 * c], float(us[i]), float(us[i + 1]))
    for a in list(cands):
        slope = reading(a)[2]
        k = np.searchsorted(us, a, side="right" if slope < 0.0 else "left") - (slope > 0.0)
        b = float(us[min(max(k, 0), len(us) - 1)])
        if slope * reading(b)[2] < 0.0:
            refine(lambda u: reading(u)[2], a, b)
    return min(cands, key=lambda u: reading(u)[1], default=float(us[0]))


def _floor_certified(pmap: PlanarMap, chart: str, us, vs, targets) -> np.ndarray:
    """Whether H >= target on each whole segment: a sample cell whose lower bound
    falls short is halved (at most :data:`CERT_HALVINGS` times, to
    :data:`CERT_BOXES` boxes), one whose upper bound does refutes."""
    ok = np.isfinite(targets)
    seg = np.repeat(np.flatnonzero(ok), len(us) - 1)
    ulo, uhi = np.resize(us[:-1], len(seg)), np.resize(us[1:], len(seg))
    for _ in range(CERT_HALVINGS + 1):
        if not len(seg) or len(seg) > CERT_BOXES:
            break
        lo, hi = _h_bounds(pmap, chart, ulo, uhi, vs[seg])
        ok[seg[hi < targets[seg]]] = False
        short = (lo < targets[seg]) & ok[seg]
        ulo, uhi, mid = ulo[short], uhi[short], 0.5 * (ulo[short] + uhi[short])
        seg, ulo, uhi = np.tile(seg[short], 2), np.append(ulo, mid), np.append(mid, uhi)
    ok[seg] = False         # boxes still short when the rounds ran out
    return ok


def classify_sectors(pmap: PlanarMap, cf: CompactifiedField,
                     sing: InfinitySingularity) -> InfinitySingularity:
    """Sector taxonomy of ``sing`` from the valleys of H = |f|^2 / 2.

    Per side of the equator (v > 0 first) and depth |v|, the cone
    |u - u0| <= :data:`FAN_R` meets the plane in a segment, all sampled by
    one :func:`eval_grid` pass per component of f.  Over the last three
    depths a side is "bounded" when the interval upper bounds of H at the
    floors (``valley``) grow less than 10^(1/deg H) per decade, "coercive"
    when a certified lower bound of H on each whole segment is that much
    above the bound a decade up, else "unsettled"; a missed valley reads high.
    """
    growth = 10.0 ** (1.0 / (cf.degree + 1))    # deg H is the field degree + 1
    us = sing.u + FAN_R * np.linspace(-1.0, 1.0, VALLEY_N)
    vs = np.multiply.outer((1.0, -1.0), VALLEY_DEPTHS)
    xs, ys = _to_plane(sing.chart, us, vs[..., None])
    fs = np.stack([eval_grid(pmap.f1, xs, ys), eval_grid(pmap.f2, xs, ys)])
    floors = np.empty(vs.shape)
    for (side, k), v in np.ndenumerate(vs):
        floors[side, k] = _valley_floor(pmap, sing.chart, us, fs[:, side, k], float(v),
                                        float(floors[side, k - 1]) if k else None)
    upper = _h_bounds(pmap, sing.chart, floors, floors, vs)[1]

    last = upper[:, -3:]
    bounded = np.isfinite(last).all(1) & (last[:, 1:] <= growth * last[:, :-1]).all(1)
    targets = growth * last[:, :-1]
    targets[~(last[:, 1:] >= targets).all(1)] = math.nan     # not rising at the floors
    coercive = _floor_certified(pmap, sing.chart, us, vs[:, -2:].ravel(), targets.ravel())
    evidence = tuple("bounded" if b else "coercive" if c else "unsettled"
                     for b, c in zip(bounded, coercive.reshape(2, 2).all(1)))
    settled = 2 - evidence.count("unsettled")
    return replace(sing, evidence=evidence, confidence=settled / 2,
                   classification=("has-nondegenerate-sector" if "bounded" in evidence
                                   else "two-degenerate-hyperbolic" if settled == 2
                                   else "unclassified"),
                   valley=tuple(map(tuple, upper.tolist())))


@dataclass(frozen=True)
class CriterionEntry:
    name: str
    statement: str
    outcome: str                 # "holds" | "fails" | "undetermined"
    source: str


@dataclass(frozen=True)
class ContiVerdict:
    conti_type: str              # "A" | "B" | "not-applicable" | "undetermined"
    criteria: tuple[CriterionEntry, ...]
    routes_agree: bool
    notes: tuple[str, ...]


def conti_verdict(pmap: PlanarMap, annulus_reports, singularities) -> ContiVerdict:
    """Type A/B from the singularity route, cross-checked with annuli.

    The deciding criterion is (d): no infinite singular points, or all
    of them formed by two degenerate hyperbolic sectors.  The annulus
    route (global center <=> type A) must agree; an observed
    disagreement is flagged, not resolved.  Non-polynomial H, or a sign
    change of det Df that voided the annulus verdicts, makes the whole
    classification inapplicable; with neither route decided the type is
    "undetermined".
    """
    if effective_hamiltonian_poly(pmap) is None:
        return ContiVerdict(
            conti_type="not-applicable",
            criteria=(CriterionEntry(
                "hypothesis", "H is a polynomial", "fails",
                "hamiltonian validation"),),
            routes_agree=True,
            notes=("Hamiltonian is not polynomial; the type classification "
                   "does not apply",))
    if not annulus_reports:
        raise ValueError("need at least one center's annulus report")
    if any(SIGN_CHANGE in r.verdict.reasons for r in annulus_reports):
        return ContiVerdict(
            conti_type="not-applicable",
            criteria=(CriterionEntry(
                "hypothesis", "det Df does not change sign", "fails",
                "annulus global_center_verdict"),),
            routes_agree=True,
            notes=("det Df changes sign; the type classification does not "
                   "apply",))

    notes: list[str] = []
    verdicts = {r.verdict.verdict for r in annulus_reports}
    if "global" in verdicts and "not-global" in verdicts:
        annulus_type = None
        notes.append("annulus verdicts disagree across centers")
    elif "global" in verdicts:
        annulus_type = "A"
    elif "not-global" in verdicts:
        annulus_type = "B"
    else:
        annulus_type = None
        notes.append("annulus route inconclusive")

    classes = {s.classification for s in singularities}
    if "has-nondegenerate-sector" in classes:
        d_outcome, d_type = "fails", "B"
    elif "unclassified" in classes:
        d_outcome, d_type = "undetermined", None
        notes.append("unclassified infinite singularities")
    else:
        d_outcome, d_type = "holds", "A"

    if d_type is not None:
        conti = d_type
    elif annulus_type is not None:
        conti = annulus_type
        notes.append("type taken from the annulus route; sector "
                     "classification incomplete")
    else:
        conti = "undetermined"
        notes.append("both routes undetermined")

    routes_agree = True
    if d_type is not None and annulus_type is not None:
        routes_agree = d_type == annulus_type
        if not routes_agree:
            notes.append("numerical inconsistency: singularity route says "
                         f"type {d_type}, annulus route says type "
                         f"{annulus_type}; inspect the portrait")

    ab_outcome = ({"A": "holds", "B": "fails"}[annulus_type]
                  if annulus_type is not None else "undetermined")
    criteria = (
        CriterionEntry("a", "f injective with image the plane or an open "
                            "disc about the origin", ab_outcome,
                       "annulus global_center_verdict"),
        CriterionEntry("b", "the center is of type A", ab_outcome,
                       "equivalent to (a)"),
        CriterionEntry("c", "the center is not of type B", ab_outcome,
                       "types C and D cannot occur for pair fields"),
        CriterionEntry("d", "no infinite singular points, or all formed by "
                            "two degenerate hyperbolic sectors", d_outcome,
                       "compactified-field sector classifier"),
    )
    return ContiVerdict(conti_type=conti, criteria=criteria,
                        routes_agree=routes_agree, notes=tuple(notes))


def compactification_for_map(pmap: PlanarMap) -> CompactifiedField | None:
    """Build the compactification from the map's polynomial Hamiltonian,
    or None when H is not polynomial."""
    hpoly = effective_hamiltonian_poly(pmap)
    return None if hpoly is None else build_compactification(hpoly)

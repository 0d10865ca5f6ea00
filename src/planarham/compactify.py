"""Poincare compactification of polynomial Hamiltonian pair fields.

For polynomial H the field (P, Q) = (-H_y, H_x) extends to the sphere.
Chart U1 covers the x > 0 hemisphere via x = 1/v, y = u/v and carries
the rescaled field u' = v^d (Q - u P), v' = -v^(d+1) P; chart U2 covers
y > 0 via x = u/v, y = 1/v with u' = v^d (P - u Q), v' = -v^(d+1) Q.
The antipodal charts differ by the factor (-1)^(d-1).  Infinite
singular points sit on the equator v = 0 at angles where
G(theta) = cos(theta) Q_d - sin(theta) P_d vanishes (P_d, Q_d the
top-degree forms).  For H a sum of squares G >= 0, so roots come in
even multiplicity and are found as touching minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .annulus import SIGN_CHANGE
from .brent import brent_root
from .expr import Poly2, compile_polys
from .field import PlanarMap, effective_hamiltonian_poly
from .rk import dp5_step, poly_kernel, step_factor

SCAN_N = 2048
ROOT_RESIDUAL = 1e-9
MULTIPLE_ROOT_TOL = 1e-6

FAN_N = 16
FAN_R = 0.05
FATE_MAX_STEPS = 4000
# seed fate thresholds, calibrated on the worked examples.  The
# converge pins must sit far below any flyover's closest approach: an
# orbit in a hyperbolic sector can pass within ~1e-3 of the singular
# point in chart coordinates before leaving again.
EXIT_ELEVATION_MAX = math.radians(75.0)
CONVERGE_PIN = 1e-7
CONVERGE_PIN_AT_BUDGET = 1e-5
NONDEGENERATE_FRACTION = 0.05
SWEEP_FRACTION = 0.75


# a chart field (u', v') compiled to (u, v) -> (u', v')
ChartField = Callable[[float, float], tuple[float, float]]


class EquatorDegenerate(Exception):
    """G vanishes identically: the whole equator is singular."""


@dataclass(frozen=True)
class CompactifiedField:
    degree: int
    p: Poly2
    q: Poly2
    u1: tuple[Poly2, Poly2]       # (u', v') in chart U1
    u2: tuple[Poly2, Poly2]
    v1: tuple[Poly2, Poly2]       # antipodal charts
    v2: tuple[Poly2, Poly2]
    equator_poly: Poly2           # g(c, s) with G(theta) = g(cos, sin)
    warnings: tuple[str, ...]

    def chart(self, name: str) -> tuple[Poly2, Poly2]:
        return {"U1": self.u1, "U2": self.u2,
                "V1": self.v1, "V2": self.v2}[name]


@dataclass(frozen=True)
class InfinitySingularity:
    theta: float                  # direction angle in [0, pi)
    chart: str                    # "U1" or "U2"
    u: float                      # chart abscissa; the point is (u, 0)
    residual: float               # |G(theta)|
    degenerate_root: bool         # multiplicity beyond the generic double root
    classification: str = "unclassified"
    confidence: float = 0.0
    evidence: tuple[str, ...] = ()


def _substitute(poly: Poly2, d: int, chart: int) -> Poly2:
    """v^d * poly at the chart point: monomial x^i y^j -> u^a v^(d-i-j)."""
    terms = {}
    for coeff, i, j in poly.terms:
        a = j if chart == 1 else i
        key = (a, d - i - j)
        terms[key] = terms.get(key, 0.0) + coeff
    return Poly2.from_dict(terms)


def build_compactification(hpoly: Poly2) -> CompactifiedField:
    """Chart fields and equator polynomial of the compactified pair field.

    Rejects Hamiltonians of degree <= 1 (the field is constant).  A
    vanishing P or Q component is flagged: it means the field is
    singular along a curve, which the det Df != 0 pipeline never feeds
    us.
    """
    p = -hpoly.dy()
    q = hpoly.dx()
    d = max(p.degree(), q.degree())
    if d < 1:
        raise ValueError("field degree below 1: nothing to compactify")
    warnings = []
    if p.is_zero() or q.is_zero():
        warnings.append("a field component vanishes identically; "
                        "the field is singular along a curve")

    u = Poly2.from_dict({(1, 0): 1.0})
    v = Poly2.from_dict({(0, 1): 1.0})
    p1 = _substitute(p, d, chart=1)
    q1 = _substitute(q, d, chart=1)
    u1 = (q1 - u * p1, -(v * p1))
    p2 = _substitute(p, d, chart=2)
    q2 = _substitute(q, d, chart=2)
    u2 = (p2 - u * q2, -(v * q2))
    sign = 1.0 if (d - 1) % 2 == 0 else -1.0
    v1 = (u1[0].scale(sign), u1[1].scale(sign))
    v2 = (u2[0].scale(sign), u2[1].scale(sign))

    # top forms taken at the field degree d: a component of lower degree
    # contributes nothing
    pd = Poly2.from_dict({(i, j): c for c, i, j in p.terms if i + j == d})
    qd = Poly2.from_dict({(i, j): c for c, i, j in q.terms if i + j == d})
    # g(c, s) = c * Q_d(c, s) - s * P_d(c, s)
    g = u * qd - v * pd
    return CompactifiedField(degree=d, p=p, q=q,
                             u1=u1, u2=u2, v1=v1, v2=v2,
                             equator_poly=g, warnings=tuple(warnings))


def _g_funcs(cf: CompactifiedField):
    g = cf.equator_poly
    gx, gy = g.dx(), g.dy()
    gxx, gxy, gyy = gx.dx(), gx.dy(), gy.dy()
    g0_at = compile_polys(g)
    g1_at = compile_polys(gx, gy)
    g2_at = compile_polys(gxx, gxy, gyy, gx, gy)

    def G(t: float) -> float:
        return g0_at(math.cos(t), math.sin(t))[0]

    def G1(t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        vx, vy = g1_at(c, s)
        return -s * vx + c * vy

    def G2(t: float) -> float:
        c, s = math.cos(t), math.sin(t)
        vxx, vxy, vyy, vx, vy = g2_at(c, s)
        return (s * s * vxx - 2 * s * c * vxy + c * c * vyy
                - c * vx - s * vy)

    return G, G1, G2


def _chart_for(theta: float) -> tuple[str, float]:
    c, s = math.cos(theta), math.sin(theta)
    if abs(c) >= abs(s):
        return "U1", s / c
    return "U2", c / s


def infinite_singularities(cf: CompactifiedField,
                           scan_n: int = SCAN_N) -> list[InfinitySingularity]:
    """Roots of G on [0, pi): scan, bracket, polish.

    Odd-multiplicity roots show up as sign changes; even ones (the
    generic case for sum-of-squares Hamiltonians, where G >= 0) as
    touching minima, located by a sign change of G'; :func:`brent_root`
    polishes each bracket.  Raises
    :class:`EquatorDegenerate` when G vanishes identically.
    """
    G, G1, G2 = _g_funcs(cf)
    step = math.pi / scan_n
    thetas = [k * step for k in range(scan_n)]
    vals = [G(t) for t in thetas]
    scale = max(1.0, max(abs(x) for x in vals))
    if all(abs(x) <= 1e-12 * scale for x in vals):
        raise EquatorDegenerate("equator polynomial vanishes identically")

    # G(theta + pi) = (-1)^(d+1) G(theta); wrap sample lookups accordingly
    wrap_sign = 1.0 if (cf.degree + 1) % 2 == 0 else -1.0

    def val(k: int) -> float:
        q, r = divmod(k, scan_n)
        return vals[r] * (wrap_sign ** q)

    roots: list[float] = []

    def push(t: float) -> None:
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
            push(brent_root(G, a, b, xtol=1e-15, maxiter=200))
        # touching minimum inside (a - step, b + step)
        if abs(va) <= 1e-3 * scale and va <= abs(val(k - 1)) and va <= abs(vb):
            lo, hi = a - step, a + step
            if G1(lo) < 0.0 < G1(hi):
                push(brent_root(G1, lo, hi, xtol=1e-15, maxiter=200))

    out = []
    for t in sorted(roots):
        chart, uu = _chart_for(t)
        # multiplicity above two needs G' and G'' both to vanish; a
        # simple root can have an incidental inflection (G'' = 0)
        degenerate = (abs(G1(t)) <= MULTIPLE_ROOT_TOL * scale
                      and abs(G2(t)) <= MULTIPLE_ROOT_TOL * scale)
        out.append(InfinitySingularity(
            theta=t, chart=chart, u=uu, residual=abs(G(t)),
            degenerate_root=degenerate))
    return out


def _integrate_fate(field: ChartField, kernel, seed: tuple[float, float],
                    u0: float, r: float, direction: float) -> tuple[str, float]:
    """One time direction: ("exit", elevation) | ("converge"|"stall"|"overflow", 0).

    ``field`` is the chart field compiled by :func:`compile_polys` and
    ``kernel`` its DP5 step from :func:`planarham.rk.poly_kernel`.
    Convergence is only declared at a strict pin: orbits in a
    hyperbolic sector fly past the singular point and must be allowed
    to leave again, so a loose distance threshold would mistake the
    passage for a separatrix.
    """
    x, y = seed
    dist = math.hypot(x - u0, y)
    try:
        fu, fv = field(x, y)
    except (OverflowError, ValueError):
        return "overflow", 0.0
    f1x, f1y = direction * fu, direction * fv
    # steps are sized by displacement, not time: near a degenerate
    # singular point the chart field is polynomially flat and time steps
    # must grow without bound for anything to move
    h = 0.01 * r / max(math.hypot(f1x, f1y), 1e-300)
    for _ in range(FATE_MAX_STEPS):
        try:
            x5, y5, enorm, k7x, k7y = dp5_step(kernel, x, y, f1x, f1y, h,
                                               1e-6, 1e-12, direction)
        except (OverflowError, ValueError, ZeroDivisionError):
            return "overflow", 0.0
        if not (math.isfinite(x5) and math.isfinite(y5)):
            return "overflow", 0.0
        jump = math.hypot(x5 - x, y5 - y)
        if enorm > 1.0 or jump > 0.2 * r:
            h *= 0.5 if jump > 0.2 * r else step_factor(enorm)
            if h < 1e-16 or not math.isfinite(h):
                return "stall", 0.0
            continue
        x, y, f1x, f1y = x5, y5, k7x, k7y
        # aim under the jump cap so that few trial steps overshoot it
        h = min(h * step_factor(enorm),
                0.9 * 0.2 * r / max(math.hypot(f1x, f1y), 1e-300))
        if not math.isfinite(h):
            return "stall", 0.0
        dist = math.hypot(x - u0, y)
        if dist >= 2.0 * r:
            return "exit", math.atan2(abs(y), abs(x - u0))
        if dist <= CONVERGE_PIN * r:
            return "converge", 0.0
    if dist <= CONVERGE_PIN_AT_BUDGET * r:
        return "converge", 0.0
    return "stall", 0.0


def _seed_fate(field: ChartField, kernel, seed: tuple[float, float], u0: float, r: float) -> str:
    outcomes = []
    for direction in (1.0, -1.0):
        outcomes.append(_integrate_fate(field, kernel, seed, u0, r, direction))
        # one converging direction decides the fate: skip the other
        if outcomes[-1][0] == "converge":
            return "converge"
    kinds = [k for k, _ in outcomes]
    if "overflow" in kinds:
        return "overflow"
    exits = [elev for k, elev in outcomes if k == "exit"]
    if any(elev > EXIT_ELEVATION_MAX for elev in exits):
        return "offaxis"
    if len(exits) == 2:
        return "sweep"
    return "stall"


def classify_sectors(cf: CompactifiedField, sing: InfinitySingularity) -> InfinitySingularity:
    """Heuristic sector taxonomy from the fates of a fan of seeds.

    Seeds on half-circles above and below the equator integrate both
    time directions until they leave the 2r-ball.  A trajectory that
    converges to the singular point witnesses a separatrix entering the
    finite plane (a non-degenerate sector); trajectories that sweep in
    and out near the equator are what two degenerate hyperbolic sectors
    look like.  Confidence is the fraction of conclusive seeds backing
    the verdict.
    """
    chart = cf.chart(sing.chart)
    field = compile_polys(*chart)
    kernel = poly_kernel(*chart)
    fates: list[str] = []
    for side in (1.0, -1.0):
        for k in range(FAN_N):
            ang = math.radians(10.0 + 160.0 * k / (FAN_N - 1))
            seed = (sing.u + FAN_R * math.cos(ang), side * FAN_R * math.sin(ang))
            fates.append(_seed_fate(field, kernel, seed, sing.u, FAN_R))

    n_conv = fates.count("converge")
    n_sweep = fates.count("sweep")
    n_offaxis = fates.count("offaxis")
    n_valid = n_conv + n_sweep + n_offaxis
    if n_valid == 0:
        return replace(sing, classification="unclassified", confidence=0.0,
                       evidence=tuple(fates))
    if n_conv >= max(1, math.ceil(NONDEGENERATE_FRACTION * n_valid)):
        conf = (n_conv + n_offaxis) / n_valid
        return replace(sing, classification="has-nondegenerate-sector",
                       confidence=conf, evidence=tuple(fates))
    if n_conv == 0 and n_sweep / n_valid >= SWEEP_FRACTION:
        return replace(sing, classification="two-degenerate-hyperbolic",
                       confidence=n_sweep / n_valid, evidence=tuple(fates))
    return replace(sing, classification="unclassified",
                   confidence=max(n_sweep, n_offaxis) / n_valid,
                   evidence=tuple(fates))


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

    n_nondeg = sum(1 for s in singularities
                   if s.classification == "has-nondegenerate-sector")
    n_unclass = sum(1 for s in singularities
                    if s.classification == "unclassified")
    if n_nondeg > 0:
        d_outcome, d_type = "fails", "B"
    elif n_unclass > 0:
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
    if hpoly is None:
        return None
    return build_compactification(hpoly)

"""Period annulus estimation and the disc-or-plane verdict for one center.

The annulus around a center is probed level by level: a level h is GOOD
when the traced orbit closes with winding one and keeps to its level
(an injectivity certificate for f restricted to that orbit).
Nesting of orbits makes GOOD downward-closed in h, so a bracket of one
uncertified and one certified level holds the supremum ell of certified
levels.  While det Df != 0, the only critical points of H are the zeros
of f, so ell is where the center's sublevel component first reaches the
window edge: at a local minimum of H along an edge, or a corner.  The
map's :func:`edge_minima` list those once (their least, clipped, is
:func:`default_h_max`); :func:`predict_ell` walks them least first and
takes the first whose grid cell the center's sublevel component holds,
labelled by its row runs (:func:`_component_runs`, which also give the
:func:`region` mask).  Two probes either side of that guess usually give
the bracket; a bisection finds it otherwise.  Certificates decide every
probed level.  The levels below ell_lo close by one argument, the
covering one: where det Df has a proved sign on the closed disc D inside
the rim, f is a homeomorphism of D's inside onto a round disc, so every
lower level is a closed orbit.  :func:`global_center_verdict` alone
checks that hypothesis.  It proves the sign by interval subdivision
(:func:`~planarham.field.det_sign_on_cells`) on the working box, where
every orbit runs, or else on :func:`disc_cover`: the cells of a fine
grid inside the rim polygon, and a margin round it that bounds the
traced orbit's distance from its chords.  Without that proof, or with a
sign change on the working box, the verdict is inconclusive.  The rest
(region mask, image shape, verdict) reads the :class:`EllEstimate`.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .brent import brent_root
from .centers import CenterRecord
from .expr import eval_grid
from .field import JET_ERRORS, Box, PlanarMap, det_sign_on_cells, jacobian_sign_change
from .trace import (AngleBudget, LevelUnreachable, OrbitTrace, WindingCertificate,
                    center_point, winding_certificate)

# bracket width below which a level is "budget", i.e. all good up to h_max
BUDGET = math.inf

GOOD = "good"
BAD = "bad"
INCONCLUSIVE = "inconclusive"

# the verdict reasons that void the standing hypothesis det Df != 0: a
# sign change, or no proved sign on a set holding the rim's disc
SIGN_CHANGE = "jacobian-sign-change"
SIGN_UNPROVED = "jacobian-sign-unproved"


class AnnulusBelowResolution(Exception):
    """Even the smallest probed level failed its certificate; ``probes``
    are every probe the estimate made, that one last."""

    def __init__(self, center, h: float, probes: tuple["Probe", ...]):
        super().__init__(
            f"annulus below resolution: level h={h:.3g} around "
            f"{center_point(center)} already fails ({probes[-1].reason})")
        self.center = center
        self.h = h
        self.probes = probes


class RegionTooCoarse(ValueError):
    """The region grid is too coarse to put the center's cell below ell_lo."""


class BoundaryUnevaluable(ValueError):
    """f cannot be evaluated anywhere on the working-box boundary, so there
    is no default h_max."""


@dataclass(frozen=True)
class Probe:
    """One certificate attempt at a level, with its GOOD/BAD/inconclusive call."""
    h: float
    status: str
    reason: str
    certificate: WindingCertificate | None


def classify_certificate(cert: WindingCertificate) -> tuple[str, str]:
    """Map a certificate to (status, reason).

    BAD must be clean evidence that the level is outside the annulus:
    the orbit left the working box, or wound past the budget without
    closing.  Stiffness and domain errors prove nothing either way.
    """
    if cert.injective_on_orbit:
        return GOOD, "injective"
    out = cert.trace.outcome
    if out.kind == "escaped":
        return BAD, f"escaped:{out.side}"
    if out.kind == "budget_exhausted":
        if out.stiff:
            return INCONCLUSIVE, "stiff"
        return BAD, "winding-budget"
    if out.kind == "domain_error":
        return INCONCLUSIVE, "domain-error"
    # closed but failed certification: off its level, or round the
    # center the wrong way
    if cert.winding != 1:
        return BAD, f"winding={cert.winding}"
    return INCONCLUSIVE, "invariant-violation"


@dataclass(frozen=True)
class EllGuess:
    """A local minimum h of H along the working box's edge, at point; as
    a prediction, where the center's sublevel component first reaches
    that edge."""
    h: float
    point: tuple[float, float]


@dataclass(frozen=True)
class EllEstimate:
    center: tuple[float, float]
    h_max: float
    tol: float
    ell_lo: float
    ell_hi: float               # BUDGET (= inf) when all levels were good
    probes: tuple[Probe, ...]
    guess: EllGuess | None = None   # None in the budget case or with no prediction

    @property
    def budget_exceeded(self) -> bool:
        return math.isinf(self.ell_hi)

    @property
    def certificates(self) -> tuple[WindingCertificate, ...]:
        return tuple(p.certificate for p in self.probes
                     if p.certificate is not None)

    @property
    def has_inconclusive(self) -> bool:
        return any(p.status == INCONCLUSIVE for p in self.probes)

    @property
    def inconclusive_reasons(self) -> tuple[str, ...]:
        seen: list[str] = []
        for p in self.probes:
            if p.status == INCONCLUSIVE and p.reason not in seen:
                seen.append(p.reason)
        return tuple(seen)

    def first_bad_level(self) -> float | None:
        bad = [p.h for p in self.probes if p.status == BAD]
        return min(bad) if bad else None

    @property
    def rim(self) -> tuple[tuple[float, float], ...]:
        """The orbit of the GOOD probe at ell_lo; ``()`` in the budget case."""
        return next((p.certificate.trace.points for p in self.probes
                     if p.h == self.ell_lo and p.status == GOOD), ())


def default_h_max(pmap: PlanarMap) -> float:
    """The least of :func:`edge_minima`, the Hamiltonian's minimum on the
    working-box boundary, clipped to [1, 1e6].

    Below the true boundary minimum every level set is trapped inside
    the box; above it, escape through the boundary stops being
    informative.  The clip keeps the bisection range sane when the
    boundary minimum is tiny or enormous.  Raises
    :class:`BoundaryUnevaluable` when f is undefined all round the edge.
    """
    minima = edge_minima(pmap)
    if not minima:
        raise BoundaryUnevaluable("could not evaluate f anywhere on the box boundary")
    return min(max(minima[0].h, 1.0), 1e6)


def edge_minima(pmap: PlanarMap) -> tuple[EllGuess, ...]:
    """Every local minimum of H along the working box's edges, least first.

    Each edge is sampled at 513 points, the four edges by one
    :func:`eval_grid` pass, H being inf where f is undefined.  A finite
    sample no greater than its neighbours, and below the one before it
    so that a plateau counts once, is refined on H's slope by
    :func:`_edge_minimum` between those neighbours: a minimum narrower
    than the samples' spacing is found too.  A candidate's H is the
    compiled jet's.  Corners are edge ends, so a corner minimum is
    listed.  While det Df != 0 these are the only levels at which a
    center's sublevel component can first meet the edge
    (Goresky-MacPherson, *Stratified Morse Theory*, 1988).  Once per map.
    """
    def compute() -> tuple[EllGuess, ...]:
        box, n, found = pmap.working_box(), 512, []
        edges = (((box.xmin, box.ymin), (box.xmin, box.ymax)),
                 ((box.xmax, box.ymin), (box.xmax, box.ymax)),
                 ((box.xmin, box.ymin), (box.xmax, box.ymin)),
                 ((box.xmin, box.ymax), (box.xmax, box.ymax)))
        s = np.arange(n + 1) / n
        xs, ys = (np.concatenate([a[i] + s * (b[i] - a[i]) for a, b in edges])
                  for i in (0, 1))
        with np.errstate(all="ignore"):
            f1, f2 = eval_grid(pmap.grid, xs, ys)
            ham = 0.5 * (f1 * f1 + f2 * f2)
        ham[np.isnan(ham)] = math.inf
        for (a, b), row in zip(edges, ham.reshape(len(edges), n + 1)):
            h = [math.inf, *row.tolist(), math.inf]
            for k in range(n + 1):
                if h[k + 1] < h[k] and h[k + 1] <= h[k + 2]:
                    near = _edge_minimum(pmap.jet, _lerp(a, b, max(k - 1, 0) / n),
                                         _lerp(a, b, min(k + 1, n) / n))
                    here = (_h_on(pmap.jet, a, b, k / n), _lerp(a, b, k / n))
                    found.append(min(here, near, key=lambda c: c[0]))
        return tuple(EllGuess(*c) for c in sorted(dict.fromkeys(found), key=lambda c: c[0]))

    return pmap.fact("edge-minima", compute)


def _lerp(a: tuple[float, float], b: tuple[float, float], s: float) -> tuple[float, float]:
    return (a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1]))


def _h_on(jet, a: tuple[float, float], b: tuple[float, float], s: float) -> float:
    """H at a + s (b - a), inf where f cannot be evaluated."""
    try:
        v1, _, _, v2, _, _ = jet(*_lerp(a, b, s))
    except JET_ERRORS:
        return math.inf
    h = 0.5 * (v1 * v1 + v2 * v2)
    return math.inf if math.isnan(h) else h


def _edge_minimum(jet, a: tuple[float, float], b: tuple[float, float]):
    """``(h, point)``: the least H on the segment from a to b, at an end
    or where :func:`~planarham.brent.brent_root` finds H's slope dH/ds =
    v1 (grad f1 . (b - a)) + v2 (grad f2 . (b - a)) zero between them,
    if it does (the slope changes sign and is never nan)."""
    dx, dy = b[0] - a[0], b[1] - a[1]

    def slope(s: float) -> float:
        try:
            v1, dx1, dy1, v2, dx2, dy2 = jet(*_lerp(a, b, s))
        except JET_ERRORS:
            return math.nan
        return v1 * (dx1 * dx + dy1 * dy) + v2 * (dx2 * dx + dy2 * dy)

    stops = [0.0, 1.0]
    with contextlib.suppress(ValueError, RuntimeError):
        stops.append(brent_root(slope, 0.0, 1.0))
    return min(((_h_on(jet, a, b, s), _lerp(a, b, s)) for s in stops), key=lambda c: c[0])


REGION_GRID_N = 200     # the region's H grid, which predict_ell shares


def predict_ell(pmap: PlanarMap, center) -> EllGuess | None:
    """Predict the window-relative ell: the least of :func:`edge_minima`
    that the center's sublevel component reaches.

    While det Df != 0 the only critical points of H are the zeros of f,
    so the center's sublevel component grows without merging until it
    first meets the box edge, at one of the edge minima.  Those are
    walked least first.  At each, the 4-connected component of the
    center's cell in {H <= level} of the working box's H grid is labelled
    by its :func:`_component_runs`, the level being the larger of the
    candidate's h and the H of the grid cell holding its point; the
    first candidate whose cell is in the component is the guess.
    ``None`` when the component reaches a cell next to an undefined one
    first, or no candidate's cell.
    """
    box = pmap.working_box()
    cpt = center_point(center)
    if not box.contains(cpt):
        return None
    n = REGION_GRID_N
    ham = _h_grid(pmap, box, n)
    ci, cj = cell_index(box, n, *cpt)
    h0 = ham[ci, cj]
    if math.isnan(h0):
        return None
    undefined = np.pad(np.isnan(ham), 1)        # with their 4-neighbours:
    near_undefined = (undefined[1:-1, 1:-1] | undefined[:-2, 1:-1] | undefined[2:, 1:-1]
                      | undefined[1:-1, :-2] | undefined[1:-1, 2:])
    for guess in edge_minima(pmap):
        i, j = cell_index(box, n, *guess.point)
        level = max(guess.h, ham[i, j])         # guess.h where the cell is undefined
        if level < h0:
            continue
        comp = _paint(ham.shape, *_component_runs(ham <= level, ci, cj))
        if (comp & near_undefined).any():
            return None
        if comp[i, j]:
            return guess
    return None


def estimate_ell(pmap: PlanarMap, center, h_max: float | None = None, tol: float = 1e-6,
                 budget: AngleBudget | None = None) -> EllEstimate:
    """Bracket ell = sup of certified levels over (0, h_max]: the
    predicted pair, else bisection.

    Returns (ell_lo, ell_hi) with ell_hi - ell_lo <= tol, or ell_hi =
    inf ("budget") when the top level h_pre just under h_max is GOOD.
    When the levels hi and lo 0.45*tol above and below
    :func:`predict_ell`'s guess lie strictly between the smallest level
    h_first and h_pre, they are probed first, hi first; an uncertified
    hi and a certified lo are the bracket.  hi's probe lifts the image
    ray at arg f(guess.point), so that just above ell the lift leaves
    the window at the predicted contact: a BAD certificate with no orbit
    traced.  lo's probe, the rim, keeps the default ray.  The top and
    bottom probes are implied then: nesting makes GOOD downward-closed,
    so h_pre is BAD with hi, and the covering argument that
    :func:`global_center_verdict` proves closes every level below lo,
    h_first among them.  Any other outcome probes h_pre, then h_first,
    and bisects between them exactly as without a guess, the pair's one
    or two probes being extra.  The guess is one of :func:`edge_minima`,
    so predict_ell (and its H grid) runs only when one of those could
    give such a pair.

    Only probes decide: det Df is not looked at here.  Raises
    :class:`AnnulusBelowResolution` when the smallest probe fails.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if h_max is None:
        h_max = default_h_max(pmap)
    if h_max <= 0:
        raise ValueError("h_max must be positive")
    budget = budget if budget is not None else AngleBudget()
    cpt = center_point(center)
    probes: list[Probe] = []

    def probe(h: float, angle: float | None = None) -> Probe:
        try:
            winding = winding_certificate(pmap, cpt, h, budget=budget, angle=angle)
        except LevelUnreachable:
            p = Probe(h, INCONCLUSIVE, "level-unreachable", None)
        else:
            status, reason = classify_certificate(winding)
            p = Probe(h, status, reason, winding)
        probes.append(p)
        return p

    h_pre = h_max * (1.0 - 1e-9)
    h_first = min(tol, 0.5 * h_max)

    def pair(h: float) -> tuple[float, float] | None:
        lo, hi = h - 0.45 * tol, h + 0.45 * tol
        return (lo, hi) if h_first < lo and hi < h_pre else None

    guess = None
    if any(pair(g.h) for g in edge_minima(pmap)):
        guess = predict_ell(pmap, cpt)
    if guess is not None and (levels := pair(guess.h)) is not None:
        lo, hi = levels
        v1, _, _, v2, _, _ = pmap.jet(*guess.point)
        if probe(hi, math.atan2(v2, v1)).status != GOOD and probe(lo).status == GOOD:
            return EllEstimate(cpt, h_max, tol, lo, hi, tuple(probes), guess)

    top = probe(h_pre)
    if top.status == GOOD:
        return EllEstimate(cpt, h_max, tol, h_max, BUDGET, tuple(probes))
    bottom = probe(h_first)
    if bottom.status != GOOD:
        raise AnnulusBelowResolution(center, h_first, tuple(probes))

    lo, hi = h_first, h_pre
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if probe(mid).status == GOOD:
            lo = mid
        else:
            hi = mid
    return EllEstimate(cpt, h_max, tol, lo, hi, tuple(probes), guess)


@dataclass(frozen=True)
class ImageShape:
    kind: str                    # "disc" | "plane" | "unknown"
    radius: float | None = None  # disc only; lower bound from ell_lo
    bracket: float | None = None  # disc only; ell_hi - ell_lo


def image_shape(estimate: EllEstimate) -> ImageShape:
    """Disc of radius sqrt(2*ell_lo), plane up to budget, or unknown."""
    if estimate.has_inconclusive:
        return ImageShape("unknown")
    if estimate.budget_exceeded:
        return ImageShape("plane")
    return ImageShape("disc", radius=math.sqrt(2.0 * estimate.ell_lo),
                      bracket=estimate.ell_hi - estimate.ell_lo)


class RegionSampler:
    """Membership oracle for the period annulus: a flood-fill mask plus H.

    Immutable after construction.  A point is "inside" when its cell
    belongs to the center's connected component of {H < ell_lo} and its
    own Hamiltonian value is strictly below ell_lo; points that fail
    exactly one of the two sit on the resolution boundary.
    """

    def __init__(self, pmap: PlanarMap, box: Box, grid_n: int,
                 ell_lo: float, component: np.ndarray):
        self._jet = pmap.jet
        self.box = box
        self.grid_n = grid_n
        self.ell_lo = ell_lo
        self._component = component

    @property
    def mask(self) -> np.ndarray:
        return self._component.copy()

    def _touches_component(self, i: int, j: int) -> bool:
        return bool(self._component[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2].any())

    def classify(self, p: tuple[float, float]) -> str:
        """One of "inside", "outside", "boundary" (= within mask resolution)."""
        if not self.box.contains(p):
            return "outside"
        i, j = cell_index(self.box, self.grid_n, *p)
        try:
            v1, _, _, v2, _, _ = self._jet(p[0], p[1])
        except JET_ERRORS:
            v1 = v2 = math.nan
        below = 0.5 * (v1 * v1 + v2 * v2) < self.ell_lo     # false on inf and nan
        if self._component[i, j]:
            return "inside" if below else "boundary"
        if below and self._touches_component(i, j):
            return "boundary"
        return "outside"


def region(pmap: PlanarMap, center, ell_lo: float, grid_n: int = REGION_GRID_N,
           box: Box | None = None) -> RegionSampler:
    """Flood-fill the {H < ell_lo} component of the center (its rim is
    :attr:`EllEstimate.rim`) by its :func:`_component_runs`.  Raises
    :class:`RegionTooCoarse` when the grid is too coarse to put the
    center cell strictly below the level.
    """
    if ell_lo <= 0:
        raise ValueError("ell_lo must be positive")
    box = box if box is not None else pmap.working_box()
    cx, cy = center_point(center)
    if not box.contains((cx, cy)):
        raise ValueError("center lies outside the region box")

    mask = _h_grid(pmap, box, grid_n) < ell_lo      # NaN compares false
    ci, cj = cell_index(box, grid_n, cx, cy)
    if not mask[ci, cj]:
        raise RegionTooCoarse(
            f"grid too coarse: the cell holding {(cx, cy)} is not strictly "
            f"below ell_lo={ell_lo:.6g}")
    component = _paint(mask.shape, *_component_runs(mask, ci, cj))
    return RegionSampler(pmap, box, grid_n, ell_lo, component)


def _component_runs(mask: np.ndarray, i, j) -> tuple[np.ndarray, np.ndarray]:
    """``(start, end)``: the row runs ``start <= row * (m + 1) + column <
    end`` of the 4-connected component of the set cell (i, j) in the
    n x m boolean grid ``mask``.  Runs in neighbouring rows that share a
    column are linked, and labelled by min-label propagation with
    pointer jumping."""
    w = mask.shape[1] + 1
    edges = np.diff(mask, prepend=False, append=False, axis=1)
    start, end = np.flatnonzero(edges).reshape(-1, 2).T
    # runs of the next row that share a column with each run
    first = np.searchsorted(end, start + w, side="right")
    links = np.maximum(np.searchsorted(start, end + w) - first, 0)
    a = np.repeat(np.arange(len(start)), links)
    b = np.arange(len(a)) - np.repeat(np.cumsum(links) - links - first, links)
    label, la, lb = np.arange(len(start)), a, b
    while not np.array_equal(la, lb):
        low = np.minimum(la, lb)
        np.minimum.at(label, la, low)           # hook each root to the least
        np.minimum.at(label, lb, low)
        while not np.array_equal(label[label], label):
            label = label[label]
        la, lb = label[a], label[b]
    seed = label[np.searchsorted(start, i * w + j, side="right") - 1]
    return start[label == seed], end[label == seed]


def _paint(shape: tuple[int, int], start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The boolean grid of ``shape`` whose set cells are the runs
    ``(start, end)`` of :func:`_component_runs` or :func:`_fill_runs`."""
    length = end - start
    cells = np.arange(length.sum()) + np.repeat(start - np.cumsum(length) + length, length)
    grid = np.zeros(shape[0] * (shape[1] + 1), dtype=bool)
    grid[cells] = True
    return grid.reshape(shape[0], -1)[:, :-1]


@dataclass(frozen=True)
class GlobalVerdict:
    verdict: str                 # "global" | "not-global" | "inconclusive"
    reasons: tuple[str, ...]


def global_center_verdict(pmap: PlanarMap, estimate: EllEstimate) -> GlobalVerdict:
    """Center globality from the certificate record, and the one owner
    of the hypothesis det Df != 0.

    A sign change of det Df on the working box, the ``flip`` of its
    :func:`~planarham.field.jacobian_sign_change`, demotes everything to
    inconclusive.  Let D be the closed disc inside the rim (the top
    probe's orbit in the budget case).  Where det Df has a proved sign on
    D, f maps D's inside properly and locally homeomorphically onto the
    open disc of radius sqrt(2 ell_lo), hence homeomorphically (Plastock,
    Trans. AMS 200, 1974), so every lower level is a closed orbit.  The
    sign is proved on the working box, which holds D, or else on
    :func:`disc_cover`; with neither the verdict is inconclusive.  All
    levels good up to h_max are "global" up-to-budget, else the center
    is not-global: with no probe inconclusive, :func:`estimate_ell` then
    holds a BAD top or hi probe, so ``first_bad_level()`` is not None.
    Its orbit runs above ell_lo in the working box, or its lift left the
    box, which it does only at H >= ell_lo once the sign is proved.
    """
    proof = jacobian_sign_change(pmap)
    if proof.flip is not None:
        pos, neg = proof.flip
        return GlobalVerdict("inconclusive", (
            SIGN_CHANGE,
            f"det Df > 0 at {pos} but < 0 at {neg}",
        ))
    if estimate.has_inconclusive:
        return GlobalVerdict("inconclusive", estimate.inconclusive_reasons)
    if not (proof.sign or _sign_on_cover(pmap, estimate)):
        return GlobalVerdict("inconclusive", (
            SIGN_UNPROVED,
            "det Df's sign is proved neither on the working box nor on the "
            "disc inside the rim",
        ))
    if estimate.budget_exceeded:
        return GlobalVerdict("global", ("up-to-budget",))
    return GlobalVerdict("not-global", (
        f"certificate fails at h={estimate.first_bad_level():.6g}",
        "working domain has points above ell_lo",
    ))


COVER_GRID_N = 800      # the grid on the working box whose cells cover D


def _sign_on_cover(pmap: PlanarMap, estimate: EllEstimate) -> int:
    """det Df's sign on the :func:`disc_cover` of the highest GOOD
    probe's orbit, whose disc holds the rim's; 0 unless proved."""
    orbit = max((p for p in estimate.probes if p.status == GOOD),
                key=lambda p: p.h).certificate.trace
    return pmap.fact(("det-sign-cover", orbit.points), lambda: det_sign_on_cells(
        pmap, pmap.working_box(), COVER_GRID_N, *np.nonzero(disc_cover(pmap, orbit)))).sign


def disc_cover(pmap: PlanarMap, orbit: OrbitTrace) -> np.ndarray:
    """The cells of the :data:`COVER_GRID_N`-square grid on the working
    box that cover the closed disc D inside the closed ``orbit``: those
    whose centres lie in the polygon P of its points (:func:`_fill_runs`)
    and those within a margin r of P's boundary pi.  Any other cell
    meeting P meets pi, so they cover P and its r-neighbourhood.

    That holds D once r bounds the orbit's distance from pi.  Each step is
    traced as the Hermite cubic in theta that
    :func:`~planarham.trace.integrate_orbit` tests for window exits: ends
    a, b and slopes m_a, m_b, the theta step times Df^-1 J f there.  Less
    the chord's own parametrisation it is the Bezier cubic with control
    points 0, (m_a - (b - a))/3, (b - a - m_b)/3 and 0, so it stays in
    their hull, within delta, the longest of them over the steps.  The
    straight-line homotopy from the orbit to pi moves no point farther
    than delta, so a point farther than delta from pi has the same
    winding number about both: D lies in P and pi's delta-neighbourhood.
    r is delta, but at least one cell side: that takes in the cubic's own
    error (the step's local error) and the closing gap (RETURN_TOL), both
    far smaller.  The margin holds the cells of the bounding boxes, grown
    by r, of pi's pieces at most a cell long.  D stays in the working
    box, as its orbit does.
    """
    box, n = pmap.working_box(), COVER_GRID_N
    side = min(box.xmax - box.xmin, box.ymax - box.ymin) / n
    points = np.array(orbit.points)
    chord, step = np.diff(points, axis=0), np.diff(orbit.thetas)[:, None]
    (v1, dx1, dy1, v2, dx2, dy2), _ = pmap.array_jet(*points.T.copy())
    idet = 1.0 / (dx1 * dy2 - dx2 * dy1)    # the orbit has det Df of one sign
    velocity = np.stack([-(v1 * dy1 + v2 * dy2) * idet, (v1 * dx1 + v2 * dx2) * idet], axis=1)
    r = max(side, np.hypot(*(step * velocity[:-1] - chord).T).max() / 3.0,
            np.hypot(*(chord - step * velocity[1:]).T).max() / 3.0)
    ring = np.vstack([points, points[:1]])
    seg = np.diff(ring, axis=0)
    count = (np.hypot(*seg.T) // side).astype(int) + 1
    k = np.repeat(np.arange(len(seg)), count)
    t = (np.arange(len(k)) - np.repeat(np.cumsum(count) - count, count)) / count[k]
    a, b = (ring[k] + u[:, None] * seg[k] for u in (t, t + 1.0 / count[k]))
    (i0, j0), (i1, j1) = (cell_index(box, n, *(edge(a, b) + d).T)
                          for edge, d in ((np.minimum, -r), (np.maximum, r)))
    rows = i1 - i0 + 1
    i = (np.repeat(i0 - np.cumsum(rows) + rows, rows) + np.arange(rows.sum())) * (n + 1)
    start, end = _fill_runs(box, n, ring)
    return _paint((n, n), np.concatenate([i + np.repeat(j0, rows), start]),
                  np.concatenate([i + np.repeat(j1 + 1, rows), end]))


def _fill_runs(box: Box, n: int, ring: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row runs (as :func:`_component_runs` gives them) of the n x n
    grid's cells on box whose centres lie in the closed polygon ``ring``,
    by the even-odd rule: row i's scanline crosses the edges with one end
    at or left of it and the other not, an even number, and each pair
    [y0, y1) of crossings sorted by y runs over the centres y0 <= y < y1."""
    xc, yc = ((lo + (np.arange(n) + 0.5) * (hi - lo) / n)
              for lo, hi in ((box.xmin, box.xmax), (box.ymin, box.ymax)))
    a, b = ring[:-1], ring[1:]
    first = np.searchsorted(xc, np.minimum(a[:, 0], b[:, 0]))
    count = np.searchsorted(xc, np.maximum(a[:, 0], b[:, 0])) - first
    e = np.repeat(np.arange(len(a)), count)
    i = np.arange(len(e)) - np.repeat(np.cumsum(count) - count - first, count)
    y = a[e, 1] + (xc[i] - a[e, 0]) * (b[e, 1] - a[e, 1]) / (b[e, 0] - a[e, 0])
    order = np.lexsort((y, i))
    i, j = i[order], np.searchsorted(yc, y[order])
    return i[::2] * (n + 1) + j[::2], i[1::2] * (n + 1) + j[1::2]


def cell_index(box: Box, grid_n: int, x, y):
    """The (i, j) cells of the grid_n x grid_n grid of box that hold the
    points (x, y), clamped to the grid at both ends; scalars or arrays."""
    def index(v, lo, hi):
        return np.clip(np.floor((v - lo) / (hi - lo) * grid_n), 0, grid_n - 1).astype(int)

    return index(x, box.xmin, box.xmax), index(y, box.ymin, box.ymax)


def _h_grid(pmap: PlanarMap, box: Box, grid_n: int) -> np.ndarray:
    """H at the centres of the grid_n x grid_n cells of box, ``nan``
    where f is undefined; read-only, computed once per map, box and
    grid_n."""
    def compute() -> np.ndarray:
        xs = box.xmin + (np.arange(grid_n) + 0.5) * (box.xmax - box.xmin) / grid_n
        ys = box.ymin + (np.arange(grid_n) + 0.5) * (box.ymax - box.ymin) / grid_n
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        with np.errstate(all="ignore"):
            f1, f2 = eval_grid(pmap.grid, gx, gy)
            ham = 0.5 * (f1 * f1 + f2 * f2)
        ham.flags.writeable = False
        return ham

    return pmap.fact(("h-grid", box, grid_n), compute)


# nothing calls it: perfbench/tracer.py reads the name when it installs
injectivity_spotcheck = None


@dataclass(frozen=True)
class AnnulusReport:
    estimate: EllEstimate
    image: ImageShape
    verdict: GlobalVerdict


def build_annulus_report(pmap: PlanarMap, center: CenterRecord,
                         h_max: float | None = None, tol: float = 1e-6,
                         budget: AngleBudget | None = None) -> AnnulusReport:
    """Full annulus pipeline for one center: ell, image shape and the
    verdict, whose proof of det Df's sign guards injectivity."""
    est = estimate_ell(pmap, center, h_max=h_max, tol=tol, budget=budget)
    return AnnulusReport(estimate=est, image=image_shape(est),
                         verdict=global_center_verdict(pmap, est))

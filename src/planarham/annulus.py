"""Period annulus estimation and the disc-or-plane verdict for one center.

The annulus around a center is probed level by level: a level h is GOOD
when the traced orbit closes with winding one and the invariant checks
hold (an injectivity certificate for f restricted to that orbit).
Nesting of orbits makes GOOD downward-closed in h, so a bisection
brackets the supremum ell of certified levels.  Everything downstream
(region mask, image shape, globality verdict, traced rim) reads the
:class:`EllEstimate`, whose rim is its GOOD probe's orbit at ell_lo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .centers import CenterRecord
from .expr import DomainError, eval_grid
from .field import Box, OverflowEvent, PlanarMap, jacobian_sign_change
from .trace import (AngleBudget, LevelUnreachable, WindingCertificate,
                    center_point, winding_certificate)

_EVAL_ERRORS = (ValueError, ZeroDivisionError, OverflowError,
                DomainError, OverflowEvent)

# bracket width below which a level is "budget", i.e. all good up to h_max
BUDGET = math.inf
SPOTCHECK_N = 2000          # spot-check sample points per center report

GOOD = "good"
BAD = "bad"
INCONCLUSIVE = "inconclusive"


class AnnulusBelowResolution(Exception):
    """Even the smallest probed level failed its certificate."""

    def __init__(self, center, h: float, probe: "Probe"):
        super().__init__(
            f"annulus below resolution: level h={h:.3g} around "
            f"{center_point(center)} already fails ({probe.reason})")
        self.center = center
        self.h = h
        self.probe = probe


class RegionTooCoarse(ValueError):
    """The region grid is too coarse to put the center's cell below ell_lo."""


class DownwardClosureError(RuntimeError):
    """A level below a certified one failed: integrator fluke or worse."""

    def __init__(self, failing: "Probe", probes: tuple["Probe", ...]):
        lines = [f"level below ell_lo failed its certificate: "
                 f"h={failing.h:.9g} ({failing.reason})", "probe history:"]
        for p in probes:
            lines.append(f"  h={p.h:.9g}  {p.status:12s} {p.reason}")
        super().__init__("\n".join(lines))
        self.failing = failing
        self.probes = probes


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
    # closed but failed certification
    if cert.winding != 1:
        return BAD, f"winding={cert.winding}"
    return INCONCLUSIVE, "invariant-violation"


@dataclass(frozen=True)
class EllEstimate:
    center: tuple[float, float]
    h_max: float
    tol: float
    ell_lo: float
    ell_hi: float               # BUDGET (= inf) when all levels were good
    probes: tuple[Probe, ...]

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
    """Least Hamiltonian value on the working-box boundary, clipped to [1, 1e6].

    Below the true boundary minimum every level set is trapped inside
    the box; above it, escape through the boundary stops being
    informative.  The clip keeps the bisection range sane when the
    boundary minimum is tiny or enormous.
    """
    box = pmap.working_box()
    jet = pmap.jet
    best = math.inf
    n = 512
    for k in range(n + 1):
        t = k / n
        edge_pts = (
            (box.xmin, box.ymin + t * (box.ymax - box.ymin)),
            (box.xmax, box.ymin + t * (box.ymax - box.ymin)),
            (box.xmin + t * (box.xmax - box.xmin), box.ymin),
            (box.xmin + t * (box.xmax - box.xmin), box.ymax),
        )
        for (x, y) in edge_pts:
            try:
                v1, _, _, v2, _, _ = jet(x, y)
            except _EVAL_ERRORS:
                continue
            h = 0.5 * (v1 * v1 + v2 * v2)
            if math.isfinite(h) and h < best:
                best = h
    if not math.isfinite(best):
        raise ValueError("could not evaluate f anywhere on the box boundary")
    return min(max(best, 1.0), 1e6)


def estimate_ell(pmap: PlanarMap, center, h_max: float | None = None, tol: float = 1e-6,
                 budget: AngleBudget | None = None) -> EllEstimate:
    """Bracket ell = sup of certified levels by bisection over (0, h_max].

    Returns (ell_lo, ell_hi) with ell_hi - ell_lo <= tol, or ell_hi =
    inf ("budget") when the level just under h_max is already GOOD.  A
    post-pass re-certifies 8 levels below ell_lo; a failure there
    contradicts orbit nesting and raises :class:`DownwardClosureError`.
    Raises :class:`AnnulusBelowResolution` when the smallest probe
    fails.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if h_max is None:
        h_max = pmap.fact("default-h-max", lambda: default_h_max(pmap))
    if h_max <= 0:
        raise ValueError("h_max must be positive")
    budget = budget if budget is not None else AngleBudget()
    cpt = center_point(center)
    probes: list[Probe] = []

    def probe(h: float) -> Probe:
        try:
            winding = winding_certificate(pmap, cpt, h, budget=budget)
        except LevelUnreachable:
            p = Probe(h, INCONCLUSIVE, "level-unreachable", None)
        else:
            status, reason = classify_certificate(winding)
            p = Probe(h, status, reason, winding)
        probes.append(p)
        return p

    def post_pass(ell_lo: float) -> None:
        for k in range(1, 9):
            p = probe(ell_lo * k / 9.0)
            if p.status != GOOD:
                raise DownwardClosureError(p, tuple(probes))

    h_pre = h_max * (1.0 - 1e-9)
    top = probe(h_pre)
    if top.status == GOOD:
        post_pass(h_max)
        return EllEstimate(cpt, h_max, tol, h_max, BUDGET, tuple(probes))

    h_first = min(tol, 0.5 * h_max)
    bottom = probe(h_first)
    if bottom.status != GOOD:
        raise AnnulusBelowResolution(center, h_first, bottom)

    lo, hi = h_first, h_pre
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if probe(mid).status == GOOD:
            lo = mid
        else:
            hi = mid
    post_pass(lo)
    return EllEstimate(cpt, h_max, tol, lo, hi, tuple(probes))


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
        self._dx = (box.xmax - box.xmin) / grid_n
        self._dy = (box.ymax - box.ymin) / grid_n

    @property
    def mask(self) -> np.ndarray:
        return self._component.copy()

    def cell_of(self, p: tuple[float, float]) -> tuple[int, int]:
        i = int((p[0] - self.box.xmin) / self._dx)
        j = int((p[1] - self.box.ymin) / self._dy)
        return (min(max(i, 0), self.grid_n - 1),
                min(max(j, 0), self.grid_n - 1))

    def component_bbox(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) spanned by the component's cell centers."""
        idx = np.argwhere(self._component)
        xs = self.box.xmin + (idx[:, 0] + 0.5) * self._dx
        ys = self.box.ymin + (idx[:, 1] + 0.5) * self._dy
        return (float(xs.min()), float(xs.max()),
                float(ys.min()), float(ys.max()))

    def _hamiltonian(self, p: tuple[float, float]) -> float:
        try:
            v1, _, _, v2, _, _ = self._jet(p[0], p[1])
        except _EVAL_ERRORS:
            return math.inf
        h = 0.5 * (v1 * v1 + v2 * v2)
        return h if math.isfinite(h) else math.inf

    def _touches_component(self, i: int, j: int) -> bool:
        n = self.grid_n
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n and self._component[ii, jj]:
                    return True
        return False

    def classify(self, p: tuple[float, float]) -> str:
        """One of "inside", "outside", "boundary" (= within mask resolution)."""
        if not self.box.contains(p):
            return "outside"
        i, j = self.cell_of(p)
        below = self._hamiltonian(p) < self.ell_lo
        if self._component[i, j]:
            return "inside" if below else "boundary"
        if below and self._touches_component(i, j):
            return "boundary"
        return "outside"

    def sample_inside(self, n: int, seed: int = 42) -> list[tuple[float, float]]:
        """n points classified inside, by rejection over component cells."""
        rng = np.random.default_rng(seed)
        cells = np.argwhere(self._component)
        if len(cells) == 0:
            raise RuntimeError("empty region component")
        out: list[tuple[float, float]] = []
        attempts = 0
        while len(out) < n:
            attempts += 1
            if attempts > 200 * n:
                raise RuntimeError("rejection sampling stalled; region too thin")
            i, j = cells[rng.integers(len(cells))]
            x = self.box.xmin + (i + rng.random()) * self._dx
            y = self.box.ymin + (j + rng.random()) * self._dy
            if self.classify((x, y)) == "inside":
                out.append((x, y))
        return out


def region(pmap: PlanarMap, center, ell_lo: float, grid_n: int = 200,
           box: Box | None = None) -> RegionSampler:
    """Flood-fill the {H < ell_lo} component of the center (its rim is
    :attr:`EllEstimate.rim`).  Raises :class:`RegionTooCoarse` when the
    grid is too coarse to put the center cell strictly below the level.
    """
    if ell_lo <= 0:
        raise ValueError("ell_lo must be positive")
    box = box if box is not None else pmap.working_box()
    cx, cy = center_point(center)
    if not box.contains((cx, cy)):
        raise ValueError("center lies outside the region box")

    mask = _h_grid(pmap, box, grid_n) < ell_lo      # NaN compares false

    labels, _ = ndimage.label(mask)
    ci = min(int((cx - box.xmin) / (box.xmax - box.xmin) * grid_n), grid_n - 1)
    cj = min(int((cy - box.ymin) / (box.ymax - box.ymin) * grid_n), grid_n - 1)
    if not mask[ci, cj]:
        raise RegionTooCoarse(
            f"grid too coarse: the cell holding {(cx, cy)} is not strictly "
            f"below ell_lo={ell_lo:.6g}")
    return RegionSampler(pmap, box, grid_n, ell_lo, labels == labels[ci, cj])


@dataclass(frozen=True)
class GlobalVerdict:
    verdict: str                 # "global" | "not-global" | "inconclusive"
    reasons: tuple[str, ...]


def global_center_verdict(pmap: PlanarMap, estimate: EllEstimate,
                          box: Box | None = None) -> GlobalVerdict:
    """Center globality from the certificate record.

    A failed certificate at a level that still has points of the
    working domain above it means the annulus boundary is interior:
    not-global.  All levels good up to h_max is "global" qualified
    up-to-budget.  A sign change of det Df anywhere in the box voids
    the standing hypothesis and demotes everything to inconclusive.
    The box is scanned once per map, for all its centers.
    """
    box = box if box is not None else pmap.working_box()
    flip = pmap.fact(("sign-change", box),
                     lambda: jacobian_sign_change(pmap, box))
    if flip is not None:
        pos, neg = flip
        return GlobalVerdict("inconclusive", (
            "jacobian-sign-change",
            f"det Df > 0 at {pos} but < 0 at {neg}",
        ))
    if estimate.has_inconclusive:
        return GlobalVerdict("inconclusive", estimate.inconclusive_reasons)
    if estimate.budget_exceeded:
        return GlobalVerdict("global", ("up-to-budget",))
    first_bad = estimate.first_bad_level()
    if first_bad is not None and _levels_above(pmap, box, estimate.ell_lo):
        return GlobalVerdict("not-global", (
            f"certificate fails at h={first_bad:.6g}",
            "working domain has points above ell_lo",
        ))
    return GlobalVerdict("inconclusive", ("no evidence above ell_lo",))


def _levels_above(pmap: PlanarMap, box: Box, ell_lo: float) -> bool:
    ham = _h_grid(pmap, box, 64)
    return bool(np.any(np.isfinite(ham) & (ham > ell_lo)))


def _h_grid(pmap: PlanarMap, box: Box, grid_n: int) -> np.ndarray:
    """H at the centres of the grid_n x grid_n cells of box, ``nan``
    where f is undefined; read-only, computed once per map, box and
    grid_n."""
    def compute() -> np.ndarray:
        xs = box.xmin + (np.arange(grid_n) + 0.5) * (box.xmax - box.xmin) / grid_n
        ys = box.ymin + (np.arange(grid_n) + 0.5) * (box.ymax - box.ymin) / grid_n
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        with np.errstate(all="ignore"):
            f1 = eval_grid(pmap.f1, gx, gy)
            f2 = eval_grid(pmap.f2, gx, gy)
            ham = 0.5 * (f1 * f1 + f2 * f2)
        ham.flags.writeable = False
        return ham

    return pmap.fact(("h-grid", box, grid_n), compute)


@dataclass(frozen=True)
class Collision:
    p: tuple[float, float]
    q: tuple[float, float]
    image_distance: float


@dataclass(frozen=True)
class SpotcheckReport:
    n_sampled: int
    collisions: tuple[Collision, ...]
    truncated: bool

    @property
    def clean(self) -> bool:
        return not self.collisions


_HASH_CELL = 1e-4
_IMAGE_TOL = 1e-6
_POINT_SEP = 1e-3
_MAX_COLLISIONS = 50


def injectivity_spotcheck(pmap: PlanarMap, sampler: RegionSampler,
                          n: int = 10_000, rng_seed: int = 42,
                          ) -> SpotcheckReport:
    """Search the region for distinct points with nearly equal images.

    Points come from a symmetric grid over the component's bounding box
    (so mirror-image collisions of an even map are actually hit), topped
    up with rejection samples to reach n.  Images are bucketed on a
    1e-4 hash grid; points in the same or adjacent buckets collide when
    the images agree to 1e-6 while the points are at least 1e-3 apart.
    An empty report means "no collision found", not "injective".
    """
    if n < 100:
        raise ValueError("need at least 100 sample points")
    bx0, bx1, by0, by1 = sampler.component_bbox()
    m = math.isqrt(n - 1) + 1
    pts: list[tuple[float, float]] = []
    for j in range(m):
        y = by0 + (by1 - by0) * (j + 0.5) / m
        for i in range(m):
            x = bx0 + (bx1 - bx0) * (i + 0.5) / m
            if sampler.classify((x, y)) == "inside":
                pts.append((x, y))
            if len(pts) == n:
                break
        if len(pts) == n:
            break
    if len(pts) < n:
        pts.extend(sampler.sample_inside(n - len(pts), seed=rng_seed))

    jet = pmap.jet
    buckets: dict[tuple[int, int], list[int]] = {}
    images: list[tuple[float, float]] = []
    collisions: list[Collision] = []
    truncated = False
    for idx, (x, y) in enumerate(pts):
        try:
            v1, _, _, v2, _, _ = jet(x, y)
        except _EVAL_ERRORS:
            images.append((math.nan, math.nan))
            continue
        images.append((v1, v2))
        key = (math.floor(v1 / _HASH_CELL), math.floor(v2 / _HASH_CELL))
        if not truncated:
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    for other in buckets.get((key[0] + di, key[1] + dj), ()):
                        ou, ov = images[other]
                        d_img = math.hypot(v1 - ou, v2 - ov)
                        ox, oy = pts[other]
                        if (d_img <= _IMAGE_TOL
                                and math.hypot(x - ox, y - oy) >= _POINT_SEP):
                            collisions.append(
                                Collision((x, y), (ox, oy), d_img))
                            if len(collisions) >= _MAX_COLLISIONS:
                                truncated = True
        buckets.setdefault(key, []).append(idx)
    return SpotcheckReport(len(pts), tuple(collisions), truncated)


@dataclass(frozen=True)
class AnnulusReport:
    estimate: EllEstimate
    image: ImageShape
    boundary_polyline: tuple[tuple[float, float], ...]
    verdict: GlobalVerdict
    spotcheck: SpotcheckReport


def build_annulus_report(pmap: PlanarMap, center: CenterRecord,
                         h_max: float | None = None, tol: float = 1e-6,
                         grid_n: int = 200, box: Box | None = None,
                         rng_seed: int = 42, budget: AngleBudget | None = None
                         ) -> AnnulusReport:
    """Full annulus pipeline for one center; the boundary polyline is the
    estimate's rim when the image is a disc, else empty."""
    est = estimate_ell(pmap, center, h_max=h_max, tol=tol, budget=budget)
    shape = image_shape(est)
    sampler = region(pmap, center, est.ell_lo, grid_n=grid_n, box=box)
    spot = injectivity_spotcheck(pmap, sampler, n=SPOTCHECK_N, rng_seed=rng_seed)
    return AnnulusReport(
        estimate=est, image=shape,
        boundary_polyline=est.rim if shape.kind == "disc" else (),
        verdict=global_center_verdict(pmap, est, box=box), spotcheck=spot)

"""Zeros of the map and their classification as non-degenerate centers.

Newton runs on f itself, not on the Hamiltonian field: their zeros
coincide wherever det Df is nonzero, and f needs only first derivatives.
Completeness is never guaranteed; the result is "found n zeros from an
N x N grid of seeds".  The seeds run in lockstep on numpy arrays, one
array evaluation of the jet per iteration.  That is exact, not an
approximation of one Newton run per seed: the array jet gives the
scalar jet's values bit for bit and marks where it would raise
(:func:`~planarham.expr.compile_array_jet`), and each seed keeps its own
iterate, best point and outcome under the one-seed rules.  :func:`fiber`
solves f = w for a polynomial map by elimination instead; it needs
sympy, so only the tests call it yet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import Poly2, to_poly
from .field import (
    Box,
    DEGENERATE_TOL,
    JET_ERRORS,
    PlanarMap,
    ZERO_TOL,
)

MAX_NEWTON_ITERS = 50
SEED_GRID_N = 32        # side of the Newton seed grid
# det Df samples behind isochronous_hint: cell centres of an ISO_N x ISO_N grid
ISO_N = 8


@dataclass(frozen=True)
class CenterRecord:
    location: tuple[float, float]
    det_df: float
    eigenvalues: tuple[complex, complex]
    isochronous_hint: bool
    residual: float


@dataclass(frozen=True)
class SearchStats:
    grid_n: int
    n_seeds: int
    n_converged: int
    n_singular: int
    n_diverged: int
    degenerate_points: tuple[tuple[float, float], ...]

    def summary(self) -> str:
        return (f"found {self.n_converged} candidate zeros on a "
                f"{self.grid_n}x{self.grid_n} grid "
                f"({self.n_singular} seeds hit a singular Jacobian, "
                f"{self.n_diverged} diverged)")


def _newton_seeds(jet, x: np.ndarray, y: np.ndarray, box: Box
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Newton for f = 0 from every seed (x[k], y[k]) at once.

    Each iteration evaluates the array jet once and applies, per seed
    and in this order, the rules of one-seed Newton: a raised or
    non-finite evaluation stops the seed; so does a residual no smaller
    than its best; a residual within ZERO_TOL becomes its best, and an
    exact zero stops it; a singular or non-finite det Df stops it;
    otherwise it takes the Newton step, and stops when that leaves the
    box by more than a box-width.  Once the residual drops below
    ZERO_TOL a seed keeps polishing while the residual strictly
    improves.  That costs a couple of extra steps at a simple zero but
    matters at a degenerate one: stopping at the first sub-tolerance
    iterate would leave the point far enough out that det Df there
    looks comfortably non-degenerate.

    A stopped seed's slot stays in the arrays, ignored, until half the
    slots have stopped; then the arrays are halved.

    Returns the rows x, y and residual of each seed's best iterate (nan
    where it has none) and the seeds stopped by a singular det Df
    without a best.
    """
    # allow iterates to wander one box-width outside before giving up
    margin_x = box.xmax - box.xmin
    margin_y = box.ymax - box.ymin
    best = np.full((3, len(x)), math.nan)
    singular = np.zeros(len(x), dtype=bool)
    seed = np.arange(len(x))                # the seed in each slot
    live = np.ones(len(x), dtype=bool)      # the slots still iterating
    for _ in range(MAX_NEWTON_ITERS):
        (v1, dx1, dy1, v2, dx2, dy2), stop = jet(x, y)
        stop |= ~live
        best_res = best[2, seed]
        with np.errstate(all="ignore"):
            res = np.hypot(v1, v2)
            # numpy's hypot may differ from math.hypot in the last bit:
            # take math's wherever more than "above ZERO_TOL" is read
            exact = np.flatnonzero(live & (~np.isnan(best_res) | ~(res > 4 * ZERO_TOL)
                                           | ~(res < 1e300)))
            res[exact] = np.fromiter(map(math.hypot, memoryview(v1[exact]),
                                         memoryview(v2[exact])), float, exact.size)
            stop |= ~np.isfinite(res) | (res >= best_res)
            hit = ~stop & (res <= ZERO_TOL)
            best[:, seed[hit]] = x[hit], y[hit], res[hit]
            stop |= hit & (res == 0.0)
            det = dx1 * dy2 - dx2 * dy1
            flat = ~stop & ((det == 0.0) | ~np.isfinite(det))
            singular[seed[flat & np.isnan(best[2, seed])]] = True
            stop |= flat
            x = x - (v1 * dy2 - v2 * dy1) / det
            y = y - (v2 * dx1 - v1 * dx2) / det
        # not held through the next evaluation: they would raise its peak
        del v1, dx1, dy1, v2, dx2, dy2, best_res, res, det
        stop |= ((x < box.xmin - margin_x) | (x > box.xmax + margin_x)
                 | (y < box.ymin - margin_y) | (y > box.ymax + margin_y))
        live = ~stop
        n_live = int(live.sum())
        if not n_live:
            break
        # a stopped slot follows a live seed, so it raises only where one does
        first = np.argmax(live)
        x[stop], y[stop] = x[first], y[first]
        # Halve the arrays once half the slots have stopped, never to another
        # length: arrays of ever new lengths, one set per iteration,
        # fragment the heap, and a run's peak RSS grew by 2 MB over 100
        # rounds of small maps.
        if 2 * n_live <= live.size:
            keep = np.argsort(stop, kind="stable")[:live.size // 2]
            seed, live, x, y = seed[keep], live[keep], x[keep], y[keep]
    return best, singular


def _cell_centres(box: Box, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The centres of the n x n cells of ``box``, column by column, as
    the arrays of their x and y."""
    offsets = np.arange(n) + 0.5
    return (np.repeat(box.xmin + (box.xmax - box.xmin) * offsets / n, n),
            np.tile(box.ymin + (box.ymax - box.ymin) * offsets / n, n))


def search_zeros(pmap: PlanarMap, box: Box | None = None, grid_n: int = SEED_GRID_N,
                 ) -> tuple[list[CenterRecord], SearchStats]:
    """Multistart Newton over a seed grid; returns records and statistics.

    All seeds run together (:func:`_newton_seeds`) on the array jet,
    whose values equal the scalar jet's bit for bit, so each seed ends
    where one-seed Newton would.  Converged points are deduplicated at
    radius 1e-6 * diam(box) keeping
    the representative with the smallest residual, given the eigenvalues
    +-i|det Df| of the trace-zero linearization (see
    :func:`~planarham.field.linearization_at`), and sorted
    lexicographically.  Zeros
    with |det Df| below the degeneracy threshold are excluded from the
    center list and surface only in the stats.
    """
    if grid_n < 8:
        raise ValueError("grid_n must be at least 8")
    box = box if box is not None else pmap.working_box()

    best, singular = _newton_seeds(pmap.array_jet, *_cell_centres(box, grid_n), box)
    bx, by, bres = best
    found = ((bx >= box.xmin) & (bx <= box.xmax) & (by >= box.ymin) & (by <= box.ymax))
    n_singular = int(singular.sum())
    # a seed without a zero, or with one outside the box, diverged
    n_diverged = grid_n * grid_n - n_singular - int(found.sum())

    # smallest residual first, then x, then y; stable, so ties keep seed order
    order = np.lexsort((by[found], bx[found], bres[found]))
    candidates = best[:, np.flatnonzero(found)[order]]
    cx, cy, _ = candidates
    # greedy: the first candidate left is a zero, and it absorbs those
    # within dedup_r of it
    dedup_r = 1e-6 * box.diameter()
    kept = []
    pending = np.arange(cx.size)
    while pending.size:
        a, rest = pending[0], pending[1:]
        kept.append(a)
        dist = map(math.hypot, memoryview(cx[rest] - cx[a]), memoryview(cy[rest] - cy[a]))
        pending = rest[np.fromiter(dist, float, rest.size) > dedup_r]
    accepted = [tuple(c) for c in candidates[:, kept].T.tolist()]

    jet = pmap.jet
    iso = isochronous_hint(pmap)
    records = []
    degenerate = []
    for (x, y, res) in accepted:
        v1, dx1, dy1, v2, dx2, dy2 = jet(x, y)
        det = dx1 * dy2 - dx2 * dy1
        if abs(det) <= DEGENERATE_TOL:
            degenerate.append((x, y))
            continue
        records.append(CenterRecord(
            location=(x, y),
            det_df=det,
            eigenvalues=(complex(0.0, abs(det)), complex(0.0, -abs(det))),
            isochronous_hint=iso,
            residual=res,
        ))
    records = _sorted_by_location(records, dedup_r)
    stats = SearchStats(
        grid_n=grid_n,
        n_seeds=grid_n * grid_n,
        n_converged=len(accepted),
        n_singular=n_singular,
        n_diverged=n_diverged,
        degenerate_points=tuple(degenerate),
    )
    return records, stats


def _sorted_by_location(records: list[CenterRecord], eps: float) -> list[CenterRecord]:
    """Sort by x then y, treating x values within eps as ties.

    Raw lexicographic order would let machine noise in x (a zero found
    at x = -5e-17 instead of 0) scramble the y order of a vertical
    family of centers.
    """
    records = sorted(records, key=lambda r: r.location[0])
    out: list[CenterRecord] = []
    group: list[CenterRecord] = []
    for rec in records:
        if group and rec.location[0] - group[-1].location[0] > eps:
            group.sort(key=lambda r: r.location[1])
            out.extend(group)
            group = []
        group.append(rec)
    group.sort(key=lambda r: r.location[1])
    out.extend(group)
    return out


def find_zeros(pmap: PlanarMap, box: Box | None = None,
               grid_n: int = SEED_GRID_N) -> list[CenterRecord]:
    records, _ = search_zeros(pmap, box, grid_n)
    return records


def isochronous_hint(pmap: PlanarMap) -> bool:
    """True when det Df looks numerically constant over the working box.

    A constant non-zero Jacobian determinant makes every center of the
    field isochronous with period 2*pi/|det|.  det Df is sampled at the
    cell centres of an ISO_N x ISO_N grid on the box, skipping points
    where it cannot be evaluated; with fewer than two samples left there
    is nothing to compare, and the hint is False.
    """
    dets = []
    xs, ys = _cell_centres(pmap.working_box(), ISO_N)
    for x, y in zip(xs.tolist(), ys.tolist()):
        try:
            v1, dx1, dy1, v2, dx2, dy2 = pmap.jet(x, y)
        except JET_ERRORS:
            continue
        det = dx1 * dy2 - dx2 * dy1
        if math.isfinite(det):
            dets.append(det)
    if len(dets) < 2:
        return False
    mean = sum(dets) / len(dets)
    return max(dets) - min(dets) <= 1e-8 * (1.0 + abs(mean))


def fiber_resultant(pmap: PlanarMap, w: tuple[float, float]) -> list[Fraction]:
    """Ascending coefficients of R(x) = Res_y(f1 - w1, f2 - w2), exact up to a
    nonzero factor: each component is scaled to integer coefficients, ten
    times faster to eliminate over.  The x of every preimage of w is a real
    zero of R (Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 3).  Needs sympy, which only this call imports."""
    import sympy as sp

    polys = to_poly(pmap.f1), to_poly(pmap.f2)
    if None in polys:
        raise ValueError(f"map {pmap.name!r} is not polynomial")
    if not any(j for p in polys for _, _, j in p.terms):
        raise ValueError(f"neither component of map {pmap.name!r} involves y")
    p1, p2 = (sp.Poly.from_dict({(j, i): Fraction(c) for c, i, j in poly.terms},
                                *sp.symbols("y x"), domain=sp.QQ)
              .sub(Fraction(wk)).clear_denoms(convert=True)[1]
              for poly, wk in zip(polys, w))
    return [Fraction(int(c.p), int(c.q)) for c in reversed(p1.resultant(p2).all_coeffs())]


def _y_roots(poly: Poly2, x0: float, wk: float) -> list[float]:
    """Real parts of the roots of poly(x0, y) = wk in double range, solved
    at balanced scale."""
    cs = [0.0] * (1 + max(j for _, _, j in poly.terms))
    try:
        for c, i, j in poly.terms:
            cs[j] += c * x0**i
        cs[0] -= wk
        while cs and cs[-1] == 0.0:
            cs.pop()
        n = len(cs) - 1
        lam = (abs(cs[0]) / abs(cs[n])) ** (1.0 / n) if n > 0 and cs[0] != 0.0 else 1.0
        if n > 0 and cs[n] * lam**n == 0.0:     # the scale underflowed: solve unscaled
            lam = 1.0
        cs = [c * lam**k / (cs[n] * lam**n) for k, c in enumerate(cs)]
    except OverflowError:
        return []
    if n < 1 or not all(math.isfinite(c) for c in cs):
        return []
    return [float(r.real) * lam for r in np.roots(cs[::-1]) if math.isfinite(r.real)]


def _polish(pmap: PlanarMap, polys: tuple[Poly2, Poly2], x: float, y: float,
            w1: float, w2: float) -> tuple[float, float] | None:
    """Newton on f = w until the step settles (or det Df = 0 exactly); None
    unless |f - w| passes a finite gate that scales with the largest
    monomial, so deep preimages, evaluated through intermediates of 1e10
    and more, pass while junk near the origin does not."""
    try:
        for _ in range(60):
            v1, ax, ay, v2, bx, by = pmap.jet(x, y)
            det = ax * by - ay * bx
            if det == 0.0:
                break
            dx = ((v1 - w1) * by - (v2 - w2) * ay) / det
            dy = ((v2 - w2) * ax - (v1 - w1) * bx) / det
            x, y = x - dx, y - dy
            if not (math.isfinite(x) and math.isfinite(y)):
                return None
            if math.hypot(dx, dy) <= 1e-13 * (1.0 + math.hypot(x, y)):
                break
        else:
            return None
        v1, _, _, v2, _, _ = pmap.jet(x, y)
        scale = max(sum(abs(c) * abs(x)**i * abs(y)**j for c, i, j in p.terms)
                    for p in polys)
    except JET_ERRORS:
        return None
    tol = 1e-7 * (1.0 + math.hypot(w1, w2)) + 1e-11 * scale
    return (x, y) if math.hypot(v1 - w1, v2 - w2) <= tol < math.inf else None


def fiber(pmap: PlanarMap, w: tuple[float, float]) -> tuple[tuple[float, float], ...]:
    """Every real preimage of ``w`` under a polynomial map, sorted and
    deduplicated: the real zeros of :func:`fiber_resultant`, isolated
    exactly, are the candidate x, the real roots in y of both components
    there the candidate y, and :func:`_polish` keeps the pairs that settle
    onto w.  A preimage too deep for double precision is missed.  Raises
    ValueError where the resultant does, or vanishes identically (a curve
    of preimages)."""
    import sympy as sp

    w1, w2 = float(w[0]), float(w[1])
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise ValueError("target must be finite")
    coeffs = fiber_resultant(pmap, (w1, w2))
    if not any(coeffs):
        raise ValueError(f"the resultant of map {pmap.name!r} at {w} vanishes identically")
    polys = to_poly(pmap.f1), to_poly(pmap.f2)
    xs = [float((a + b) / 2) for (a, b), _ in
          sp.Poly(coeffs[::-1], sp.Symbol("x")).intervals(eps=sp.Rational(1, 10**18))]
    found = []
    for x0 in xs:
        for poly, wk in zip(polys, (w1, w2)):
            for y0 in _y_roots(poly, x0, wk):
                p = _polish(pmap, polys, x0, y0, w1, w2)
                if p is not None:
                    found.append(p)
    uniq: list[tuple[float, float]] = []
    for x, y in sorted(found):
        if all(math.hypot(x - u, y - v) > 1e-6 * (1.0 + math.hypot(x, y)) for u, v in uniq):
            uniq.append((x, y))
    return tuple(uniq)

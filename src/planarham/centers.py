"""Zeros of the map and their classification as non-degenerate centers.

Newton runs on f itself, not on the Hamiltonian field: their zeros
coincide wherever det Df is nonzero, and f needs only first derivatives.
Completeness is never guaranteed; the result is "found n zeros from an
N x N grid of seeds".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    Box,
    DEGENERATE_TOL,
    PlanarMap,
    ZERO_TOL,
)

MAX_NEWTON_ITERS = 50
# random det Df samples behind isochronous_hint, and their seed
ISO_SAMPLES = 64
ISO_SEED = 42


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


def _newton(jet, x: float, y: float, box: Box) -> tuple[float, float, float] | str:
    """Newton for f = 0 from one seed; the abandonment reason otherwise.

    Once the residual drops below ZERO_TOL the iteration keeps polishing
    while the residual strictly improves.  That costs a couple of extra
    steps at a simple zero but matters at a degenerate one: stopping at
    the first sub-tolerance iterate would leave the point far enough out
    that det Df there looks comfortably non-degenerate.
    """
    # allow iterates to wander one box-width outside before giving up
    margin_x = box.xmax - box.xmin
    margin_y = box.ymax - box.ymin
    best: tuple[float, float, float] | None = None
    for _ in range(MAX_NEWTON_ITERS):
        try:
            v1, dx1, dy1, v2, dx2, dy2 = jet(x, y)
        except (ValueError, ZeroDivisionError, OverflowError):
            return best if best is not None else "error"
        res = math.hypot(v1, v2)
        if not math.isfinite(res):
            return best if best is not None else "error"
        if best is not None and res >= best[2]:
            return best
        if res <= ZERO_TOL:
            best = (x, y, res)
            if res == 0.0:
                return best
        det = dx1 * dy2 - dx2 * dy1
        if det == 0.0 or not math.isfinite(det):
            return best if best is not None else "singular"
        x -= (v1 * dy2 - v2 * dy1) / det
        y -= (v2 * dx1 - v1 * dx2) / det
        if (x < box.xmin - margin_x or x > box.xmax + margin_x
                or y < box.ymin - margin_y or y > box.ymax + margin_y):
            return best if best is not None else "diverged"
    return best if best is not None else "diverged"


def search_zeros(pmap: PlanarMap, box: Box | None = None, grid_n: int = 32,
                 ) -> tuple[list[CenterRecord], SearchStats]:
    """Multistart Newton over a seed grid; returns records and statistics.

    Converged points are deduplicated at radius 1e-6 * diam(box) keeping
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
    jet = pmap.jet

    candidates: list[tuple[float, float, float]] = []
    n_singular = n_diverged = 0
    wx = box.xmax - box.xmin
    wy = box.ymax - box.ymin
    for i in range(grid_n):
        x0 = box.xmin + wx * (i + 0.5) / grid_n
        for j in range(grid_n):
            y0 = box.ymin + wy * (j + 0.5) / grid_n
            hit = _newton(jet, x0, y0, box)
            if hit == "singular":
                n_singular += 1
                continue
            if isinstance(hit, str):
                n_diverged += 1
                continue
            if not box.contains((hit[0], hit[1])):
                n_diverged += 1  # converged, but to a zero outside the box
                continue
            candidates.append(hit)

    dedup_r = 1e-6 * box.diameter()
    candidates.sort(key=lambda c: (c[2], c[0], c[1]))
    accepted: list[tuple[float, float, float]] = []
    for c in candidates:
        if all(math.hypot(c[0] - a[0], c[1] - a[1]) > dedup_r for a in accepted):
            accepted.append(c)

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
               grid_n: int = 32) -> list[CenterRecord]:
    records, _ = search_zeros(pmap, box, grid_n)
    return records


def isochronous_hint(pmap: PlanarMap) -> bool:
    """True when det Df looks numerically constant over random samples.

    A constant non-zero Jacobian determinant makes every center of the
    field isochronous with period 2*pi/|det|.  A sample that finds no
    finite det Df in ten draws is left out; with fewer than two left
    there is nothing to compare, and the hint is False.
    """
    box = pmap.working_box()
    jet = pmap.jet
    rng = np.random.default_rng(ISO_SEED)
    dets = []
    for _ in range(ISO_SAMPLES):
        for _retry in range(10):
            x = rng.uniform(box.xmin, box.xmax)
            y = rng.uniform(box.ymin, box.ymax)
            try:
                v1, dx1, dy1, v2, dx2, dy2 = jet(x, y)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            det = dx1 * dy2 - dx2 * dy1
            if math.isfinite(det):
                dets.append(det)
                break
    if len(dets) < 2:
        return False
    mean = sum(dets) / len(dets)
    return max(dets) - min(dets) <= 1e-8 * (1.0 + abs(mean))

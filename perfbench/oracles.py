"""Closed-form truths for the benchmark's map families.

Nothing here imports ``planarham``: every value is derived by hand from
the family's formula, so the benchmark checks the program against
mathematics, never against a stored copy of an earlier output.
``test_oracles.py`` checks each closed form against a brute-force numpy
computation.

The program analyses a whole-plane map inside the working window
[-20, 20]^2 (``WINDOW``).  Two values of ell are therefore correct for a
center: the window-relative one (the lowest level at which the center's
sublevel component reaches the window boundary) and the plane one (the
same for the unbounded plane).  A bracket is accepted when it contains
either, within the run's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WINDOW = 20.0          # half-width of the working window for "domain = plane"
TOL = 1e-6             # the CLI's default --tol, which the workloads keep
INF = math.inf


@dataclass(frozen=True)
class CenterTruth:
    """What is known about one zero of f, in closed form."""
    location: tuple[float, float]
    det_df: float
    ell_window: float            # lowest level reaching the window boundary
    ell_plane: float             # same in the plane; INF when unbounded
    verdict: str                 # "global" | "not-global"
    injective_on_region: bool    # the spot check must come back clean


@dataclass(frozen=True)
class MapTruth:
    centers: tuple[CenterTruth, ...]
    polynomial_h: bool
    infinite_singularities: int | None   # None when H is not polynomial
    field_degree: int | None
    conti_type: str | None               # "A" | "B" | None (no center)
    plane_image: bool                    # f injective with image the plane


# ---------------------------------------------------------------------------
# small helpers

def _quad_min_on_segment(q, lo: float, hi: float) -> float:
    """Minimum of the quadratic t -> q[0]*t^2 + q[1]*t + q[2] on [lo, hi]."""
    a, b, c = q
    cands = [lo, hi]
    if a > 0:
        t = -b / (2.0 * a)
        if lo < t < hi:
            cands.append(t)
    return min(a * t * t + b * t + c for t in cands)


def affine_window_ell(a: np.ndarray, p0: tuple[float, float]) -> float:
    """min of H = |A (p - p0)|^2 / 2 over the window boundary."""
    m = a.T @ a
    x0, y0 = p0
    best = INF
    for fixed in (-WINDOW, WINDOW):
        # x = fixed: H(y) = (m00 u^2 + 2 m01 u v + m11 v^2)/2, u fixed, v = y - y0
        u = fixed - x0
        q = (0.5 * m[1, 1], m[0, 1] * u - m[1, 1] * y0,
             0.5 * (m[0, 0] * u * u - 2 * m[0, 1] * u * y0 + m[1, 1] * y0 * y0))
        best = min(best, _quad_min_on_segment(q, -WINDOW, WINDOW))
        v = fixed - y0
        q = (0.5 * m[0, 0], m[0, 1] * v - m[0, 0] * x0,
             0.5 * (m[1, 1] * v * v - 2 * m[0, 1] * v * x0 + m[0, 0] * x0 * x0))
        best = min(best, _quad_min_on_segment(q, -WINDOW, WINDOW))
    return float(best)


# ---------------------------------------------------------------------------
# families

def affine_truth(a: np.ndarray, c: np.ndarray) -> MapTruth:
    """f(p) = A p + c with det A > 0: one center, injective onto the plane."""
    p0 = np.linalg.solve(a, -c)
    loc = (float(p0[0]), float(p0[1]))
    center = CenterTruth(loc, float(np.linalg.det(a)),
                         affine_window_ell(a, loc), INF, "global", True)
    # H top form |A p|^2 / 2 is positive definite: no point at infinity
    return MapTruth((center,), True, 0, 1, "A", True)


def triangular_window_ell(alpha: float, beta: float, q: tuple[float, ...],
                          p0: tuple[float, float]) -> float:
    """min over the window boundary of H for f = (alpha u, beta v + q(u)).

    u = x - x0, v = y - y0 and q(u) = sum q[k] u^(k+1).  On the edges
    x = const H is a quadratic in y (minimised exactly); on the edges
    y = const it is a polynomial in x, minimised at the real critical
    points plus the corners.
    """
    x0, y0 = p0

    def qv(u):
        return sum(ck * u ** (k + 1) for k, ck in enumerate(q))

    best = INF
    for fixed in (-WINDOW, WINDOW):
        u = fixed - x0
        s = qv(u) - beta * y0
        # H(y) = (alpha^2 u^2 + (beta y + s)^2) / 2
        quad = (0.5 * beta * beta, beta * s, 0.5 * (alpha * alpha * u * u + s * s))
        best = min(best, _quad_min_on_segment(quad, -WINDOW, WINDOW))
        v = fixed - y0
        # H(u) = (alpha^2 u^2 + (beta v + q(u))^2) / 2, a polynomial in u
        qpoly = np.polynomial.Polynomial([0.0, *q])
        hpoly = 0.5 * (np.polynomial.Polynomial([0.0, 0.0, alpha * alpha])
                       + (qpoly + beta * v) ** 2)
        lo, hi = -WINDOW - x0, WINDOW - x0
        cands = [lo, hi]
        for r in hpoly.deriv().roots():
            if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)) and lo < r.real < hi:
                cands.append(float(r.real))
        best = min(best, min(float(hpoly(u)) for u in cands))
    return float(best)


def triangular_truth(alpha: float, beta: float, q: tuple[float, ...],
                     p0: tuple[float, float]) -> MapTruth:
    """f = (alpha (x - x0), beta (y - y0) + q(x - x0)), q(0) = 0, deg q = n.

    A bijection of the plane (solve for x, then y).  H's top form is
    q_n^2 u^(2n) / 2, which vanishes only on the direction x = 0: one
    point at infinity for n >= 2.  The field has degree 2n - 1.
    """
    n = len(q)
    center = CenterTruth(p0, alpha * beta,
                         triangular_window_ell(alpha, beta, q, p0), INF,
                         "global", True)
    if n >= 2:
        return MapTruth((center,), True, 1, 2 * n - 1, "A", True)
    return MapTruth((center,), True, 0, 1, "A", True)


def exp_rotation_window_ell(a: float, b: float, k: int) -> float:
    """Window ell of the center (0, 2 pi k / b) of (e^{ax} cos by - 1, e^{ax} sin by).

    With w = e^{ax + iby}, H = |w - 1|^2 / 2.  Below the level 1/2 the
    center's component is {|w - 1| < sqrt(2c), |by - 2 pi k| < pi/2}, so
    it first meets the window where H is least on the part of the
    boundary inside that band: the edge x = -20 at y = 2 pi k / b, or an
    edge y = +-20 that cuts the band.  It is capped at the plane value 1/2.
    """
    r_min, r_max = math.exp(-a * WINDOW), math.exp(a * WINDOW)
    best = 0.5 * (1.0 - r_min) ** 2
    for edge in (-WINDOW, WINDOW):
        phi = b * edge - 2.0 * math.pi * k
        if abs(phi) >= 0.5 * math.pi:
            continue
        # min over r in [r_min, r_max] of |r e^{i phi} - 1|^2 / 2
        r = min(max(math.cos(phi), r_min), r_max)
        best = min(best, 0.5 * (r * r - 2.0 * r * math.cos(phi) + 1.0))
    return min(best, 0.5)


def exp_rotation_centers(b: float) -> list[int]:
    """k with the center (0, 2 pi k / b) strictly inside the window."""
    kmax = int(WINDOW * b / (2.0 * math.pi))
    return [k for k in range(-kmax, kmax + 1)
            if abs(2.0 * math.pi * k / b) < WINDOW]


def exp_rotation_truth(a: float, b: float) -> MapTruth:
    """f = (e^{ax} cos by - 1, e^{ax} sin by), a, b > 0.

    Zeros at (0, 2 pi k / b) with det Df = a b.  f is 2 pi / b periodic
    in y, so no center is global; each center's component below 1/2 is
    mapped one-to-one onto a disc about 0, so the spot check must be
    clean.
    """
    centers = tuple(
        CenterTruth((0.0, 2.0 * math.pi * k / b), a * b,
                    exp_rotation_window_ell(a, b, k), 0.5, "not-global", True)
        for k in exp_rotation_centers(b))
    return MapTruth(centers, False, None, None, None, False)


def exp_strip_truth(a: float, b: float) -> MapTruth:
    """f = (e^{ax} - 1, b y): injective onto the half plane u > -1.

    One center at the origin with det Df = a b.  Its annulus is bounded
    by H = 1/2 (the image's edge u = -1); in the window the edge x = -20
    comes first at (1 - e^{-20a})^2 / 2, the edges y = +-20 at 200 b^2
    and x = 20 at (e^{20a} - 1)^2 / 2.
    """
    window = min(0.5 * (1.0 - math.exp(-a * WINDOW)) ** 2,
                 0.5 * (b * WINDOW) ** 2,
                 0.5 * (math.exp(a * WINDOW) - 1.0) ** 2)
    center = CenterTruth((0.0, 0.0), a * b, window, 0.5, "not-global", True)
    return MapTruth((center,), False, None, None, None, False)


def strip_scaled_window_ell(alpha: float, beta: float) -> float:
    """Window ell of example 2 composed with (alpha x, beta y).

    u = alpha x / sqrt(1 + alpha^2 x^2) fills (-1, 1) and v is increasing
    in y, so f maps the plane one-to-one onto the strip |u| < 1.  On the
    edges x = +-20, H is least where v = 0, at u^2 / 2 with u = u(20).
    On the edges y = +-20, |v| >= 20 beta - 1/4 (as alpha^2 x^2 <=
    (1 + alpha^2 x^2)^2 / 4), which keeps H far above 1/2 for the
    family's beta >= 0.8.
    """
    s = alpha * alpha * WINDOW * WINDOW
    return 0.5 * s / (1.0 + s)


def strip_scaled_truth(alpha: float, beta: float) -> MapTruth:
    """example 2 composed with the diagonal scaling (alpha x, beta y).

    Center at the origin, det Df = alpha beta.  The image is the strip
    |u| < 1, which holds the disc of radius 1 about 0 and no larger one:
    plane ell 1/2, not global, Conti type B.  H's top form is
    alpha^6 beta^2 x^6 y^2 / 2: two points at infinity (the axes); the
    field has degree 7.
    """
    center = CenterTruth((0.0, 0.0), alpha * beta,
                         strip_scaled_window_ell(alpha, beta), 0.5,
                         "not-global", True)
    return MapTruth((center,), True, 2, 7, "B", False)


def identity_truth() -> MapTruth:
    return affine_truth(np.eye(2), np.zeros(2))


def fold_truth() -> MapTruth:
    """f = (x^2, y): its only zero is degenerate, so no center at all.

    H = (x^4 + y^2)/2 has top form x^4 / 2: one point at infinity
    (x = 0), field degree 3.
    """
    return MapTruth((), True, 1, 3, None, False)


# ---------------------------------------------------------------------------
# portraits

def affine_contour_tolerance(a: np.ndarray, level: float, cell: float,
                             rounding: float = 5e-4) -> float:
    """How far from ``level`` a drawn point of an affine map's contour may be.

    Marching squares interpolates H linearly along a cell edge; for
    quadratic H the error is at most lambda_max * cell^2 / 8.  The SVG
    rounds coordinates to 3 decimals, which moves H by at most
    |grad H| * rounding * sqrt(2), with |grad H| <= sqrt(2 level lambda_max)
    near the level.  ``lambda_max`` is the top eigenvalue of A^T A.
    """
    lam = float(np.linalg.eigvalsh(a.T @ a)[-1])
    grad = math.sqrt(2.0 * level * lam) + lam * cell
    return lam * cell * cell / 8.0 + grad * rounding * math.sqrt(2.0) + 1e-9

"""Brute-force checks of the closed forms in oracles.py.

    python3 -m pytest -q perfbench/test_oracles.py

Nothing here imports ``planarham``: each closed form is compared with a
direct numpy computation from the family's formula (dense sampling of
the window boundary refined by a bounded 1-D minimiser, a flood fill
of the sublevel set, sampled
directions at infinity).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage
from scipy.optimize import minimize_scalar

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

EDGE = np.linspace(-O.WINDOW, O.WINDOW, 400_001)


def boundary_min(hfun) -> float:
    """Least H on the window boundary: dense samples, then a bounded local
    minimisation around the best sample of each edge (H can be steep
    across a narrow valley, as for the strip family at x = +-20)."""
    best = math.inf
    for along_x in (False, True):
        for fixed in (-O.WINDOW, O.WINDOW):
            def h1(t, fixed=fixed, along_x=along_x):
                return hfun(t, fixed) if along_x else hfun(fixed, t)
            vals = h1(EDGE)
            i = int(np.argmin(vals))
            lo, hi = EDGE[max(i - 1, 0)], EDGE[min(i + 1, len(EDGE) - 1)]
            res = minimize_scalar(lambda t: float(h1(np.float64(t))),
                                  bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-15})
            best = min(best, float(vals[i]), float(res.fun))
    return best


def h_affine(a, p0, x, y):
    u, v = x - p0[0], y - p0[1]
    f1 = a[0, 0] * u + a[0, 1] * v
    f2 = a[1, 0] * u + a[1, 1] * v
    return 0.5 * (f1 * f1 + f2 * f2)


def h_triangular(alpha, beta, q, p0, x, y):
    u, v = x - p0[0], y - p0[1]
    qu = sum(ck * u ** (k + 1) for k, ck in enumerate(q))
    return 0.5 * ((alpha * u) ** 2 + (beta * v + qu) ** 2)


def h_exp_rotation(a, b, x, y):
    r = np.exp(a * x)
    return 0.5 * ((r * np.cos(b * y) - 1.0) ** 2 + (r * np.sin(b * y)) ** 2)


def h_strip_scaled(alpha, beta, x, y):
    s = (alpha * x) ** 2
    f1 = alpha * x / np.sqrt(1.0 + s)
    f2 = (s + (1.0 + s) ** 2 * beta * y) / np.sqrt(1.0 + s)
    return 0.5 * (f1 * f1 + f2 * f2)


def triangular_params(m) -> tuple[float, float, list[float]]:
    """alpha, beta and q's coefficients, read back from the spec text
    as the program sees them."""
    alpha = float(m.spec.split('f1 = "')[1].split("*")[0])
    f2 = m.spec.split('f2 = "')[1].split('"')[0]
    beta = float(f2.split("*")[0])
    q = [float(t.split("*")[0]) for t in f2.split(") + ", 1)[1].split(" + ")]
    return alpha, beta, q


def rng_draws(n: int, tag: int):
    return [np.random.default_rng([seed, tag]) for seed in range(n)]


def test_affine_window_ell_is_boundary_minimum():
    for rng in rng_draws(6, 10):
        m = W.affine(rng, "t")
        ct = m.truth.centers[0]
        brute = boundary_min(lambda x, y: h_affine(m.affine, ct.location, x, y))
        assert ct.ell_window == pytest.approx(brute, rel=1e-7)
        f = m.affine @ np.asarray(ct.location)
        c = -(m.affine @ np.asarray(ct.location))
        assert np.allclose(f + c, 0.0, atol=1e-12)
        assert ct.det_df == pytest.approx(np.linalg.det(m.affine), rel=1e-12)


@pytest.mark.parametrize("degree", [2, 3])
def test_triangular_window_ell_is_boundary_minimum(degree):
    for rng in rng_draws(6, 20 + degree):
        m = W.triangular(rng, "t", degree)
        ct = m.truth.centers[0]
        alpha, beta, q = triangular_params(m)
        brute = boundary_min(
            lambda x, y: h_triangular(alpha, beta, q, ct.location, x, y))
        assert ct.ell_window == pytest.approx(brute, rel=1e-7)
    # the fixed F1 input: (x, y + x^2), least at x^2 = 19.5 on y = -20
    ct = W.parabola_fixed().truth.centers[0]
    assert ct.ell_window == pytest.approx(9.875, rel=1e-12)


def _band_min(a, b, k):
    def h(x, y):
        band = np.abs(b * y - 2.0 * math.pi * k) < 0.5 * math.pi
        return np.where(band, h_exp_rotation(a, b, x, y), np.inf)
    return min(boundary_min(h), 0.5)


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.8, 0.33), (1.2, 0.38), (0.95, 0.35)])
def test_exp_rotation_window_ell_is_band_minimum(a, b):
    truth = O.exp_rotation_truth(a, b)
    ks = O.exp_rotation_centers(b)
    assert len(truth.centers) == len(ks)
    for k, ct in zip(ks, truth.centers):
        assert ct.ell_window == pytest.approx(_band_min(a, b, k), abs=1e-9)
        # the center is a zero of f with det Df = a b (central differences)
        x0, y0 = ct.location
        assert h_exp_rotation(a, b, x0, y0) < 1e-28
        e = 1e-6
        fx = lambda x, y: np.exp(a * x) * np.cos(b * y) - 1.0  # noqa: E731
        fy = lambda x, y: np.exp(a * x) * np.sin(b * y)  # noqa: E731
        j = [[(g(x0 + e, y0) - g(x0 - e, y0)) / (2 * e),
              (g(x0, y0 + e) - g(x0, y0 - e)) / (2 * e)] for g in (fx, fy)]
        assert np.linalg.det(j) == pytest.approx(ct.det_df, rel=1e-6)


def _flood_ell(hfun, center, top=1.0, n=1201, iters=40):
    """Least level below ``top`` whose sublevel component of ``center``
    touches the boundary (bisection on a grid)."""
    xs = np.linspace(-O.WINDOW, O.WINDOW, n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    h = hfun(gx, gy)
    ci = int(round((center[0] + O.WINDOW) / (2 * O.WINDOW) * (n - 1)))
    cj = int(round((center[1] + O.WINDOW) / (2 * O.WINDOW) * (n - 1)))
    lo, hi = h[ci, cj], top
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        labels, _ = ndimage.label(h < mid)
        comp = labels == labels[ci, cj]
        touches = comp[0].any() or comp[-1].any() or comp[:, 0].any() or comp[:, -1].any()
        lo, hi = (lo, mid) if touches else (mid, hi)
    return hi


def test_exp_rotation_window_ell_by_flood_fill():
    a, b = 0.9, 0.36
    for ct in O.exp_rotation_truth(a, b).centers:
        got = _flood_ell(lambda x, y: h_exp_rotation(a, b, x, y), ct.location)
        # a 1/30 grid moves the touching level by a few 1e-3 at most
        assert got == pytest.approx(ct.ell_window, abs=2e-2)


def test_exp_strip_window_ell():
    for a, b in [(1.0, 1.0), (0.8, 0.6), (1.2, 1.5)]:
        ct = O.exp_strip_truth(a, b).centers[0]
        brute = boundary_min(lambda x, y: 0.5 * ((np.exp(a * x) - 1.0) ** 2 + (b * y) ** 2))
        assert ct.ell_window == pytest.approx(brute, rel=1e-9)


@pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.7, 0.6), (1.4, 1.6), (0.7, 1.6)])
def test_strip_scaled_window_ell(alpha, beta):
    ct = O.strip_scaled_truth(alpha, beta).centers[0]
    brute = boundary_min(lambda x, y: h_strip_scaled(alpha, beta, x, y))
    assert ct.ell_window == pytest.approx(brute, rel=1e-7)
    # (no flood fill here: the valley where v = 0 meets x = +-20 is ~1e-4
    # wide in y, far below any affordable grid)


def _directions_at_infinity(hfun, degree_h, n=20_000):
    """Directions in [0, pi) where H's top form vanishes.

    Along each ray H(r cos t, r sin t) is a polynomial of degree
    ``degree_h`` in r; its leading coefficient, found by interpolating at
    r = 1 .. degree_h + 1, is the top form at t.  The top form of a sum
    of squares is >= 0, so its zeros are valleys that touch 0: count the
    runs of directions (wrapping round at pi) where it is below 1e-6 of
    its largest value.
    """
    t = (np.arange(n) + 0.5) * math.pi / n
    r = np.arange(1.0, degree_h + 2.0)
    vals = np.stack([hfun(ri * np.cos(t), ri * np.sin(t)) for ri in r])
    top = np.linalg.solve(np.vander(r, degree_h + 1), vals)[0]
    low = top < 1e-6 * np.abs(top).max()
    starts = low & ~np.roll(low, 1)
    return int(starts.sum()) if not low.all() else 1


def test_points_at_infinity():
    rng = np.random.default_rng(5)
    m = W.affine(rng, "t")
    ct = m.truth.centers[0]
    assert _directions_at_infinity(lambda x, y: h_affine(m.affine, ct.location, x, y), 2) == 0
    assert m.truth.infinite_singularities == 0
    for degree in (2, 3):
        m = W.triangular(np.random.default_rng(degree), "t", degree)
        alpha, beta, q = triangular_params(m)
        ct = m.truth.centers[0]
        n = _directions_at_infinity(
            lambda x, y: h_triangular(alpha, beta, q, ct.location, x, y), 2 * degree)
        assert n == m.truth.infinite_singularities == 1
        assert m.truth.field_degree == 2 * degree - 1
    truth = O.strip_scaled_truth(1.3, 0.7)
    # H of the strip family is a polynomial of degree 8
    n = _directions_at_infinity(lambda x, y: h_strip_scaled(1.3, 0.7, x, y), 8)
    assert n == truth.infinite_singularities == 2
    assert truth.field_degree == 7
    fold = O.fold_truth()
    assert _directions_at_infinity(lambda x, y: 0.5 * (x ** 4 + y ** 2), 4) == 1
    assert fold.infinite_singularities == 1 and fold.field_degree == 3


def test_affine_contour_tolerance_bounds_interpolation():
    rng = np.random.default_rng(7)
    m = W.affine(rng, "t")
    ct = m.truth.centers[0]
    cell = 2 * O.WINDOW / 160
    xs = np.linspace(-O.WINDOW, O.WINDOW, 161)
    level = 0.5 * ct.ell_window
    tol = O.affine_contour_tolerance(m.affine, level, cell, rounding=0.0)
    worst = 0.0
    for y in xs:                       # horizontal cell edges
        h = h_affine(m.affine, ct.location, xs, np.full_like(xs, y)) - level
        for i in np.nonzero(np.sign(h[:-1]) != np.sign(h[1:]))[0]:
            s = h[i] / (h[i] - h[i + 1])
            x = xs[i] + s * cell
            worst = max(worst, abs(h_affine(m.affine, ct.location, x, y) - level))
    assert 0.0 < worst <= tol

"""Acceptance gate: one test per numbered criterion, at stated tolerance.

Every test prints one `ACCEPTANCE #n <name>: PASS|FAIL` line and checks
its runtime ceiling where one is stated.  The long Pinchuk criterion
(#9) is opt-in via PLANARHAM_EXTENDED=1 and reports failure without
failing the build.
"""

import contextlib
import json
import math
import os
import random
import time

import numpy as np
import pytest

from dataclasses import replace

from jet_reference import eval_jet
from orbit_checks import angular_speed_check
from planarham import corpus
from planarham.annulus import estimate_ell, region
from planarham.centers import find_zeros
from planarham.cli import run_subcommand
from planarham.corpus import (PINCHUK_SEARCH_BOX, PINCHUK_ZEROS,
                              pinchuk_curve, pinchuk_fiber)
from planarham.expr import compile_jet_pair, parse_expr, print_expr
from planarham.field import Box, linearization_at, sample
from planarham.trace import (AngleBudget, integrate_orbit, level_start_point,
                             winding_certificate)

TWO_PI = 2.0 * math.pi

EXTENDED = os.environ.get("PLANARHAM_EXTENDED", "").strip().lower() in (
    "1", "true", "yes", "on")


@contextlib.contextmanager
def criterion(num, name, limit_s=None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit_s is not None and elapsed >= limit_s:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {limit_s:.0f}s ceiling")
    except BaseException as exc:
        print(f"ACCEPTANCE #{num} {name}: FAIL ({exc})")
        raise
    print(f"ACCEPTANCE #{num} {name}: PASS ({elapsed:.2f}s)")


def region_agreement(sampler, predicate, box, n=200):
    """(n_disagreements, all_within_one_cell) against a truth predicate."""
    xs = box.xmin + (np.arange(n) + 0.5) * (box.xmax - box.xmin) / n
    ys = box.ymin + (np.arange(n) + 0.5) * (box.ymax - box.ymin) / n
    cell_x = (box.xmax - box.xmin) / n
    cell_y = (box.ymax - box.ymin) / n
    disagreements = 0
    all_near = True
    for x in xs:
        for y in ys:
            verdict = sampler.classify((x, y))
            if verdict == "boundary":
                continue
            want = predicate(x, y)
            if (verdict == "inside") == want:
                continue
            disagreements += 1
            near = any(predicate(x + dx, y + dy) != want
                       for dx in (-cell_x, 0.0, cell_x)
                       for dy in (-cell_y, 0.0, cell_y))
            all_near = all_near and near
    return disagreements, all_near


def test_criterion_1_example1_annulus(tmp_path):
    with criterion(1, "example1 annulus report", 10.0):
        out = tmp_path / "r.json"
        code = run_subcommand(["report", "--map", "builtin:example1",
                               "--tol", "1e-6", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        (center,) = doc["centers"]
        assert 0.5 - 1e-5 <= center["ell"]["lo"] <= 0.5 + 1e-5
        assert 0.5 - 1e-5 <= center["ell"]["hi"] <= 0.5 + 1e-5
        assert center["image_shape"]["kind"] == "disc"
        assert abs(center["image_shape"]["radius"] - 1.0) <= 1e-5
        assert center["global"] == "not-global"


def test_criterion_2_example1_region(example1):
    with criterion(2, "example1 region formula", 10.0):
        est = estimate_ell(example1, (0.0, 0.0), h_max=1.0, tol=1e-6)
        box = Box(-3.0, 3.0, -3.0, 3.0)
        sampler = region(example1, (0.0, 0.0), est.ell_lo, grid_n=200, box=box)

        def predicate(x, y):
            ex = math.exp(x)
            return y * y < ex * (2.0 - ex)

        disagreements, all_near = region_agreement(sampler, predicate, box)
        assert disagreements <= 0.005 * 200 * 200
        assert all_near


def test_criterion_3_example3_centers(example3):
    with criterion(3, "example3 three centers and regions", 30.0):
        recs = find_zeros(example3, Box(-7.0, 7.0, -7.0, 7.0))
        assert len(recs) == 3
        for k, rec in zip((-1, 0, 1), recs):
            assert abs(rec.location[0]) <= 1e-9
            assert abs(rec.location[1] - k * TWO_PI) <= 1e-9
            est = estimate_ell(example3, rec, h_max=1.0, tol=1e-6)
            assert abs(est.ell_lo - 0.5) <= 1e-5
            assert abs(est.ell_hi - 0.5) <= 1e-5
            rbox = Box(-3.0, 3.0, k * TWO_PI - 3.0, k * TWO_PI + 3.0)
            sampler = region(example3, rec, est.ell_lo, grid_n=200, box=rbox)

            def predicate(x, y, k=k):
                return (math.exp(x) < 2.0 * math.cos(y)
                        and (4 * k - 1) * math.pi < 2 * y < (4 * k + 1) * math.pi)

            disagreements, all_near = region_agreement(sampler, predicate,
                                                       rbox)
            assert disagreements <= 0.005 * 200 * 200
            assert all_near


def test_criterion_4_example2_isochronous(example2):
    with criterion(4, "example2 isochronous periods", 10.0):
        for h in (0.01, 0.05, 0.1, 0.2, 0.4):
            cert = winding_certificate(example2, (0.0, 0.0), h)
            assert cert.closed and cert.period is not None
            assert abs(cert.period - TWO_PI) <= 1e-4 * TWO_PI


def test_criterion_5_example2_verdict(tmp_path):
    with criterion(5, "example2 verdict and infinity sectors", 60.0):
        out = tmp_path / "r.json"
        code = run_subcommand(["report", "--map", "builtin:example2",
                               "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        (center,) = doc["centers"]
        assert center["global"] == "not-global"
        compact = doc["compactification"]
        assert compact["conti_type"] == "B"
        assert compact["routes_agree"] is True
        sings = compact["infinite_singularities"]
        assert len(sings) == 2
        by_theta = {round(s["theta"], 9): s for s in sings}
        xdir = by_theta[0.0]
        ydir = by_theta[round(math.pi / 2, 9)]
        assert xdir["classification"] == "has-nondegenerate-sector"
        assert ydir["classification"] == "two-degenerate-hyperbolic"
        assert xdir["confidence"] >= 0.75
        assert ydir["confidence"] >= 0.75


def test_criterion_6_identity(tmp_path, identity_map):
    with criterion(6, "identity global type A", 5.0):
        out = tmp_path / "g.json"
        code = run_subcommand(["global-check", "--map", "builtin:identity",
                               "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        (center,) = doc["centers"]
        assert center["global"] == "global"
        compact = doc["compactification"]
        assert compact["conti_type"] == "A"
        assert compact["infinite_singularities"] == []
        cert = winding_certificate(identity_map, (0.0, 0.0), 0.5)
        assert cert.closed
        assert abs(cert.period - TWO_PI) <= 1e-8


def test_criterion_7_property_suite(example1, example2, example3,
                                    identity_map):
    with criterion(7, "property suite", 60.0):
        orbit_cases = [(example1, 0.25), (example2, 0.2),
                       (example3, 0.45), (identity_map, 0.5)]
        for pmap, h in orbit_cases:
            cert = winding_certificate(pmap, (0.0, 0.0), h)
            assert cert.closed and cert.winding == 1
            trace = cert.trace
            for point in trace.points:
                s = sample(pmap, point)
                assert abs(s.hamiltonian - h) <= 1e-8 * (1 + h)
                v1, v2 = s.f_value
                assert abs(v1 * v1 + v2 * v2 - 2 * h) <= 2e-8 * (1 + h)
            th = trace.thetas
            assert all(b > a for a, b in zip(th, th[1:]))
            # the finite-difference oracle needs a finer theta step than
            # the certificate trace stores
            fine = integrate_orbit(pmap, level_start_point(pmap, (0.0, 0.0), h),
                                   center=(0.0, 0.0), max_dtheta=0.01)
            assert angular_speed_check(pmap, fine) <= 1e-4
            lin = linearization_at(pmap, (0.0, 0.0))
            assert lin.trace == 0.0
            omega = abs(sample(pmap, (0.0, 0.0)).det)
            for ev in lin.eigenvalues:
                assert abs(ev.real) <= 1e-9
                assert abs(abs(ev.imag) - omega) <= 1e-9
        # parser round-trip and jet-vs-finite-difference on the corpus
        rng = random.Random(42)
        step = 1e-6
        for pmap in (example1, example2, example3, identity_map):
            for expr in (pmap.f1, pmap.f2):
                text = print_expr(expr)
                assert print_expr(parse_expr(text)) == text
                for _ in range(100):
                    x = rng.uniform(-2.0, 2.0)
                    y = rng.uniform(-2.0, 2.0)
                    jet = eval_jet(expr, (x, y))
                    fdx = (eval_jet(expr, (x + step, y)).value
                           - eval_jet(expr, (x - step, y)).value) / (2 * step)
                    fdy = (eval_jet(expr, (x, y + step)).value
                           - eval_jet(expr, (x, y - step)).value) / (2 * step)
                    assert abs(jet.dx - fdx) <= 1e-5 * (1 + abs(jet.dx))
                    assert abs(jet.dy - fdy) <= 1e-5 * (1 + abs(jet.dy))


def _polyline_distance(points, polyline):
    """Max over points of the distance to the closed polyline."""
    a = np.asarray(polyline, dtype=float)
    b = np.vstack([a[1:], a[:1]])
    seg = b - a
    seg_len2 = np.maximum((seg * seg).sum(axis=1), 1e-300)
    worst = 0.0
    for p in np.asarray(points, dtype=float):
        t = np.clip(((p - a) * seg).sum(axis=1) / seg_len2, 0.0, 1.0)
        proj = a + t[:, None] * seg
        d = np.hypot(*(p - proj).T).min()
        worst = max(worst, float(d))
    return worst


def test_criterion_8_oracle_equivalence(example1, example3):
    with criterion(8, "flood-fill vs traced orbits"):
        box = Box(-3.0, 3.0, -3.0, 3.0)
        grid_n = 200
        cell_x = (box.xmax - box.xmin) / grid_n
        cell_y = (box.ymax - box.ymin) / grid_n
        diagonal = math.hypot(cell_x, cell_y)
        for pmap in (example1, example3):
            ell = estimate_ell(pmap, (0.0, 0.0), h_max=1.0, tol=1e-6).ell_lo
            for frac in (0.25, 0.5, 0.75):
                h = frac * ell
                cert = winding_certificate(pmap, (0.0, 0.0), h)
                assert cert.closed
                orbit = cert.trace.points
                sampler = region(pmap, (0.0, 0.0), h, grid_n=grid_n, box=box)
                mask = sampler.mask
                interior = np.zeros_like(mask)
                interior[1:-1, 1:-1] = (mask[1:-1, 1:-1]
                                        & mask[:-2, 1:-1] & mask[2:, 1:-1]
                                        & mask[1:-1, :-2] & mask[1:-1, 2:])
                rim = np.argwhere(mask & ~interior)
                rim_pts = np.column_stack([
                    box.xmin + (rim[:, 0] + 0.5) * cell_x,
                    box.ymin + (rim[:, 1] + 0.5) * cell_y,
                ])
                assert len(rim_pts) > 0
                # each mask-rim cell sits within one cell of the orbit
                assert _polyline_distance(rim_pts, orbit) <= diagonal
                # each orbit point sits within one cell of the mask rim
                orbit_arr = np.asarray(orbit)
                for p in orbit_arr:
                    d = np.hypot(rim_pts[:, 0] - p[0],
                                 rim_pts[:, 1] - p[1]).min()
                    assert d <= diagonal


def _outcome_label(cert):
    out = cert.trace.outcome
    if getattr(out, "stiff", False):
        return f"h={cert.h:g} -> step underflow in the deep tail"
    if out.kind == "domain_error":
        return f"h={cert.h:g} -> {out.message} near {out.point}"
    return f"h={cert.h:g} -> {out.kind}"


@pytest.mark.skipif(not EXTENDED,
                    reason="Pinchuk fixture is opt-in; set PLANARHAM_EXTENDED=1")
def test_criterion_9_pinchuk():
    """Zeros in the documented box, fiber counts, ell of the larger center.

    This criterion is reported separately: a failure prints its FAIL
    line with the measured facts and then xfails so the build itself
    stays green, as the acceptance contract for the extended fixture
    allows.
    """
    t0 = time.perf_counter()
    try:
        pmap = corpus.builtin("pinchuk200", enable_extended=True)
        # exactly two zeros of the shifted map, both inside the search box
        zeros = pinchuk_fiber((0.0, 0.0))
        assert len(zeros) == 2, f"expected 2 zeros, fiber found {len(zeros)}"
        for got, ref in zip(zeros, PINCHUK_ZEROS):
            assert math.hypot(got[0] - ref[0], got[1] - ref[1]) <= 1e-6 * (
                1.0 + math.hypot(*ref)), (got, ref)
            assert PINCHUK_SEARCH_BOX.contains(got), got
            assert sample(pmap, got).det > 0.0, got
        # fiber count 2 at five random targets at least 5 units off the
        # exceptional curve, inside the disc of radius 160
        rng = np.random.default_rng(2026)
        curve = np.array([pinchuk_curve(s)
                          for s in np.linspace(-3.0, 3.0, 20001)])
        curve[:, 1] -= 200.0
        targets = []
        while len(targets) < 5:
            ang = rng.uniform(0.0, TWO_PI)
            rad = 160.0 * math.sqrt(rng.uniform())
            w = (rad * math.cos(ang), rad * math.sin(ang))
            if np.hypot(curve[:, 0] - w[0], curve[:, 1] - w[1]).min() >= 5.0:
                targets.append(w)
        for w in targets:
            n = len(pinchuk_fiber(w))
            assert n == 2, f"fiber count {n} != 2 at {w}"
        # fiber count 1 at three sampled curve points
        for s in (-1.0, 0.5, 2.0):
            ps, qs = pinchuk_curve(s)
            n = len(pinchuk_fiber((ps, qs - 200.0)))
            assert n == 1, f"fiber count {n} != 1 on the curve at s={s}"
        # the two omitted image points have empty fibers
        assert pinchuk_fiber((0.0, -200.0)) == ()
        assert pinchuk_fiber((-1.0, -240.75)) == ()
        print(f"ACCEPTANCE #9 pinchuk zeros and fibers: PASS "
              f"({time.perf_counter() - t0:.2f}s)")

        # ell of the larger center within 5% of 20000: certify a closed
        # injective orbit at h = 0.95 * 20000 and non-closure at 1.05 *
        # 20000.  The working window rides the tail x*(x*y - 1) ~ -1
        # down to |y| ~ 1e12, where the orbit must still close.
        z_big = PINCHUK_ZEROS[1]
        deep = replace(pmap, domain=Box(-2600.0, 30.0, -1.0e12, 30.0))
        budget = AngleBudget(max_steps=400_000)
        lo = winding_certificate(deep, z_big, 0.95 * 20000.0, budget=budget)
        hi = winding_certificate(deep, z_big, 1.05 * 20000.0, budget=budget)
        if hi.closed:
            raise AssertionError("level 21000 beyond ell unexpectedly closed")
        if not (lo.closed and lo.injective_on_orbit):
            raise AssertionError("ell bracket not certified: "
                                 f"{_outcome_label(lo)}; {_outcome_label(hi)}")
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"runtime {elapsed:.0f}s over the ceiling"
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        print(f"ACCEPTANCE #9 pinchuk fixture: FAIL ({exc}) "
              f"({elapsed:.2f}s; reported separately, build stays green)")
        pytest.xfail(f"reported separately: {exc}")
    print(f"ACCEPTANCE #9 pinchuk fixture: PASS "
          f"({time.perf_counter() - t0:.2f}s)")

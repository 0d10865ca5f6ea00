"""Zero search: frozen locations on the corpus, stats, degeneracy handling."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from planarham import corpus
from planarham.centers import (
    DEGENERATE_TOL,
    MAX_NEWTON_ITERS,
    CenterRecord,
    SearchStats,
    _sorted_by_location,
    fiber,
    find_zeros,
    isochronous_hint,
    search_zeros,
)
from planarham.expr import _codegen, _compile_source, parse_expr
from planarham.field import Box, PlanarMap, ZERO_TOL

TWO_PI = 2.0 * math.pi


def locations(records):
    return [r.location for r in records]


def assert_close_points(found, expected, tol):
    assert len(found) == len(expected)
    for (fx, fy), (ex, ey) in zip(found, expected):
        assert math.hypot(fx - ex, fy - ey) <= tol, (found, expected)


# frozen zero lists


def test_example1_single_zero(example1):
    records = find_zeros(example1, Box(-4, 4, -4, 4), grid_n=32)
    assert_close_points(locations(records), [(0.0, 0.0)], 1e-9)
    rec = records[0]
    assert abs(rec.det_df - 1.0) <= 1e-9
    assert rec.residual <= ZERO_TOL
    assert not rec.isochronous_hint


def test_example3_three_zeros_in_tall_box(example3):
    records = find_zeros(example3, Box(-4, 14, -4, 14), grid_n=64)
    expected = [(0.0, 0.0), (0.0, TWO_PI), (0.0, 2 * TWO_PI)]
    assert_close_points(locations(records), expected, 1e-9)
    for rec in records:
        # det Df = e^(2x) = 1 at every zero
        assert abs(rec.det_df - 1.0) <= 1e-9


def test_example3_symmetric_box(example3):
    records = find_zeros(example3, Box(-7, 7, -7, 7), grid_n=48)
    expected = [(0.0, -TWO_PI), (0.0, 0.0), (0.0, TWO_PI)]
    assert_close_points(locations(records), expected, 1e-9)


def test_identity_zero(identity_map):
    records = find_zeros(identity_map, grid_n=16)
    assert_close_points(locations(records), [(0.0, 0.0)], 1e-12)
    rec = records[0]
    assert rec.det_df == 1.0
    assert rec.eigenvalues == (1j, -1j)
    assert rec.isochronous_hint


def test_scaled_map_zero(scaled_map):
    records = find_zeros(scaled_map, grid_n=16)
    assert_close_points(locations(records), [(0.0, 0.0)], 1e-12)
    rec = records[0]
    assert abs(rec.det_df - 2.0) <= 1e-12
    assert abs(rec.eigenvalues[0] - 2j) <= 1e-12
    assert rec.isochronous_hint


# structural invariants


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "identity_map"])
def test_grid_doubling_keeps_zeros(name, request):
    pmap = request.getfixturevalue(name)
    box = Box(-7, 7, -7, 7)
    coarse = find_zeros(pmap, box, grid_n=16)
    fine = find_zeros(pmap, box, grid_n=32)
    for rec in coarse:
        x, y = rec.location
        assert any(math.hypot(x - fx, y - fy) <= 1e-5
                   for (fx, fy) in locations(fine)), rec


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "identity_map"])
def test_record_invariants(name, request):
    pmap = request.getfixturevalue(name)
    records, stats = search_zeros(pmap, Box(-7, 7, -7, 7), grid_n=24)
    assert records, "corpus map lost its zero"
    for rec in records:
        assert isinstance(rec, CenterRecord)
        assert rec.residual <= ZERO_TOL
        assert rec.det_df != 0.0
        lam_plus, lam_minus = rec.eigenvalues
        omega = abs(rec.det_df)
        assert abs(lam_plus - 1j * omega) <= 1e-9 * (1.0 + omega)
        assert abs(lam_minus + 1j * omega) <= 1e-9 * (1.0 + omega)
    locs = locations(records)
    assert locs == sorted(locs)
    assert stats.n_seeds == 24 * 24
    assert stats.n_converged >= len(records)
    assert stats.n_singular + stats.n_diverged <= stats.n_seeds
    assert str(stats.n_converged) in stats.summary()


def test_example2_zero_and_unit_det(example2):
    records = find_zeros(example2, Box(-3, 3, -3, 3), grid_n=16)
    assert_close_points(locations(records), [(0.0, 0.0)], 1e-9)
    assert abs(records[0].det_df - 1.0) <= 1e-9


# isochronous hint truth table


def test_isochronous_hint_truth_table(example1, example2, example3, identity_map):
    assert isochronous_hint(identity_map)
    assert isochronous_hint(example2)
    assert not isochronous_hint(example1)
    assert not isochronous_hint(example3)


@pytest.mark.parametrize("f1", [
    "1e200*sin(x)*1e200",       # det Df = 1e400 cos(x) overflows everywhere
    "sqrt(x - 19.95) - 0.01",   # no cell centre lands in x >= 19.95
])
def test_isochronous_hint_false_below_two_finite_samples(f1):
    assert not isochronous_hint(PlanarMap(f1=parse_expr(f1), f2=parse_expr("y")))


# exact fibers of polynomial maps


def _map(f1, f2):
    return PlanarMap(f1=parse_expr(f1), f2=parse_expr(f2))


_coef = st.floats(-10.0, 10.0)


@settings(max_examples=60, deadline=None)
@given(_coef, _coef, _coef, _coef, _coef, _coef, _coef, _coef)
# the y-root of f1 = 5e-324*x + 2*y at x = 1 lies below the least
# subnormal, so its balancing scale underflows to 0
@example(5e-324, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
def test_fiber_of_nonsingular_affine_map(a11, a12, a21, a22, c1, c2, w1, w2):
    a = np.array([[a11, a12], [a21, a22]])
    assume(abs(np.linalg.det(a)) >= 1e-2 * (1.0 + np.abs(a).max()) ** 2)
    pmap = _map(f"{a11!r}*x + {a12!r}*y + {c1!r}", f"{a21!r}*x + {a22!r}*y + {c2!r}")
    truth = np.linalg.solve(a, [w1 - c1, w2 - c2])
    (got,) = fiber(pmap, (w1, w2))
    assert math.hypot(got[0] - truth[0], got[1] - truth[1]) <= 1e-9, (got, truth)


def test_fiber_of_fold_counts_two_one_none():
    pmap = _map("x^2", "y")
    assert_close_points(fiber(pmap, (4.0, 1.0)), [(-2.0, 1.0), (2.0, 1.0)], 1e-12)
    assert_close_points(fiber(pmap, (0.0, 1.0)), [(0.0, 1.0)], 1e-12)   # det Df = 0
    assert fiber(pmap, (-1.0, 1.0)) == ()


def test_fiber_finds_the_zero_the_seed_grid_misses():
    # on the default box no Newton seed lies in the basin |x| < 1/sqrt(5)
    # of the zero at the origin
    pmap = _map("x^3 - x", "y")
    assert len(find_zeros(pmap)) == 2
    assert_close_points(fiber(pmap, (0.0, 0.0)), [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)],
                        1e-12)


def test_fiber_refuses_what_elimination_cannot_solve(example1):
    with pytest.raises(ValueError, match="not polynomial"):
        fiber(example1, (0.0, 0.0))
    with pytest.raises(ValueError, match="involves y"):
        fiber(_map("x^2", "x"), (0.0, 0.0))
    with pytest.raises(ValueError, match="vanishes identically"):
        fiber(_map("x + y", "2*x + 2*y"), (0.0, 0.0))   # a line of zeros


# degenerate zeros are excluded from the center list


def test_degenerate_zero_goes_to_stats(noninjective_map):
    records, stats = search_zeros(noninjective_map, Box(-4, 4, -4, 4), grid_n=16)
    assert records == []
    assert len(stats.degenerate_points) == 1
    x, y = stats.degenerate_points[0]
    assert math.hypot(x, y) <= 1e-6


def test_grid_floor():
    with pytest.raises(ValueError):
        search_zeros(corpus.builtin("identity"), grid_n=4)


# the lockstep search ends each seed where one-seed Newton does


def _one_seed_newton(jet, x, y, box):
    """The reference: Newton from one seed, the loop that the lockstep
    search replaces, kept as it was."""
    margin_x = box.xmax - box.xmin
    margin_y = box.ymax - box.ymin
    best = None
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


def _reference_search(pmap, box, grid_n):
    """search_zeros as it was, one seed at a time."""
    box = box if box is not None else pmap.working_box()
    # compiled afresh, as the array jet is: compile_jet_pair's cache takes
    # Constant(-0.0) for Constant(0.0)
    jet = _compile_source(_codegen((pmap.f1, pmap.f2)))
    candidates = []
    n_singular = n_diverged = 0
    for i in range(grid_n):
        for j in range(grid_n):
            x0 = box.xmin + (box.xmax - box.xmin) * (i + 0.5) / grid_n
            y0 = box.ymin + (box.ymax - box.ymin) * (j + 0.5) / grid_n
            hit = _one_seed_newton(jet, x0, y0, box)
            if hit == "singular":
                n_singular += 1
            elif isinstance(hit, str) or not box.contains((hit[0], hit[1])):
                n_diverged += 1
            else:
                candidates.append(hit)
    dedup_r = 1e-6 * box.diameter()
    candidates.sort(key=lambda c: (c[2], c[0], c[1]))
    accepted = []
    for c in candidates:
        if all(math.hypot(c[0] - a[0], c[1] - a[1]) > dedup_r for a in accepted):
            accepted.append(c)
    iso = isochronous_hint(pmap)
    records, degenerate = [], []
    for x, y, res in accepted:
        _, dx1, dy1, _, dx2, dy2 = pmap.jet(x, y)
        det = dx1 * dy2 - dx2 * dy1
        if abs(det) <= DEGENERATE_TOL:
            degenerate.append((x, y))
            continue
        records.append(CenterRecord((x, y), det, (complex(0.0, abs(det)), complex(0.0, -abs(det))),
                                    iso, res))
    return _sorted_by_location(records, dedup_r), SearchStats(
        grid_n, grid_n * grid_n, len(accepted), n_singular, n_diverged, tuple(degenerate))


def _assert_same_search(pmap, box, grid_n):
    got = search_zeros(pmap, box, grid_n)
    want = _reference_search(pmap, box, grid_n)
    assert got == want
    # and the same floats, down to the sign of a zero
    assert repr(got) == repr(want)


@pytest.mark.parametrize("f1, f2", [
    ("x^3 - x", "y"),                  # a zero between two seeds' basins
    ("x^3/3 - 0.01*x", "y"),
    ("sqrt(x)", "y"),                  # half the seeds raise
    ("x", "y + x^5"),
    ("1/(1 + x^2) - 0.5", "y"),
    ("exp(-1/x^2)", "y"),              # a flat, degenerate zero
    ("x^9 - 3", "y^7 - x"),            # ** overflows on the way out
    ("1/(1/x)", "y"),
    ("sin(x*1e300)", "y - 0.2"),       # every iterate raises
])
def test_search_equals_one_seed_newton(f1, f2):
    pmap = PlanarMap(f1=parse_expr(f1), f2=parse_expr(f2))
    _assert_same_search(pmap, None, 32)
    _assert_same_search(pmap, Box(-2.5, 3.1, -1.7, 2.2), 24)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "identity",
                                  "control_noninjective"])
def test_search_equals_one_seed_newton_on_the_builtins(name):
    pmap = corpus.builtin(name)
    _assert_same_search(pmap, None, 32)
    _assert_same_search(pmap, Box(-3, 3, -2, 9), 64)


_TERMS = ("x^3", "y^2", "x*y", "exp(x)", "exp(-y)", "sin(y)", "cos(x*y)",
          "sqrt(x^2 + 1)", "sqrt(y + 1)", "1/(1 + y^2)", "x/(y - 0.3)", "sqrt(x)")
_coeffs = st.floats(-2.0, 2.0).map(lambda v: round(v, 3))


@st.composite
def _component(draw):
    # a linear part plus a smaller nonlinear term: zeros in the box are common
    a, b, c = (draw(_coeffs) for _ in range(3))
    d = draw(_coeffs) / 4
    return f"{a!r}*x + {b!r}*y + {c!r} + {d!r}*{draw(st.sampled_from(_TERMS))}"


@st.composite
def _boxes(draw):
    xmin, ymin = draw(st.floats(-6.0, 0.0)), draw(st.floats(-6.0, 0.0))
    return Box(xmin, xmin + draw(st.floats(1.0, 10.0)),
               ymin, ymin + draw(st.floats(1.0, 10.0)))


@settings(max_examples=40, deadline=None)
@given(_component(), _component(), _boxes(), st.sampled_from([8, 24, 32]))
def test_search_equals_one_seed_newton_on_random_maps(f1, f2, box, grid_n):
    _assert_same_search(PlanarMap(f1=parse_expr(f1), f2=parse_expr(f2)), box, grid_n)


def test_search_memory_stays_small():
    # a guard for the peak RSS of a run: one search on example3 peaks at
    # 174 KB in tracemalloc (the one-seed loop it replaced: 42 KB),
    # compiling the jets excluded; the bound is twice that
    pmap = corpus.builtin("example3")
    pmap.jet, pmap.array_jet
    tracemalloc.start()
    try:
        search_zeros(pmap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 350_000

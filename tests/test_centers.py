"""Zero search: frozen locations on the corpus, stats, degeneracy handling."""

import math

import pytest

from planarham.centers import (
    CenterRecord,
    find_zeros,
    isochronous_hint,
    search_zeros,
)
from planarham.field import Box, ZERO_TOL

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


# degenerate zeros are excluded from the center list


def test_degenerate_zero_goes_to_stats(noninjective_map):
    records, stats = search_zeros(noninjective_map, Box(-4, 4, -4, 4), grid_n=16)
    assert records == []
    assert len(stats.degenerate_points) == 1
    x, y = stats.degenerate_points[0]
    assert math.hypot(x, y) <= 1e-6


def test_grid_floor():
    from planarham import corpus

    with pytest.raises(ValueError):
        search_zeros(corpus.builtin("identity"), grid_n=4)

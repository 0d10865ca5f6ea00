"""Corpus integrity plus the closed-form Pinchuk fiber solver."""

import math
from fractions import Fraction

import pytest

from planarham import corpus
from planarham.cli import _map_echo
from planarham.corpus import (
    PINCHUK_SEARCH_BOX,
    PINCHUK_ZEROS,
    _eliminant_coeffs,
    pinchuk_curve,
    pinchuk_fiber,
)
from planarham.field import parse_map_spec, sample


def test_builtin_names_all_build():
    maps = corpus.builtin_corpus(enable_extended=True)
    assert [m.name for m in maps] == list(corpus.BUILTIN_NAMES)


def test_default_corpus_excludes_extended():
    names = [m.name for m in corpus.builtin_corpus()]
    assert "pinchuk200" not in names
    assert names  # the everyday fixtures stay in


def test_unknown_builtin_raises():
    with pytest.raises(KeyError):
        corpus.builtin("nope")


@pytest.mark.parametrize("name", corpus.BUILTIN_NAMES)
def test_builtin_echo_reloads_as_spec(name):
    # a report's map echo, written back as a map file, is the same map
    pmap = corpus.builtin(name, enable_extended=True)
    echo = _map_echo(pmap)
    lines = [f'{key} = "{echo[key]}"' for key in ("name", "f1", "f2")]
    if echo["domain"] is not None:
        lines.append('domain = "box({})"'.format(", ".join(map(repr, echo["domain"]))))
    if echo["declared_hamiltonian"] is not None:
        lines.append(f'hamiltonian = "{echo["declared_hamiltonian"]}"')
    assert parse_map_spec("\n".join(lines), "echo", "unnamed") == pmap


def test_pinchuk_components_match_formula():
    # p and q of Pinchuk's map from t, h and f, evaluated in plain Python
    pmap = _pinchuk()
    for x, y in ((0.3, -0.7), (1.5, 2.0), (-2.0, 0.5), (0.0, 3.0), (-1.25, -1.5)):
        t = x * y - 1.0
        h = t * (x * t + 1.0)
        f = (x * t + 1.0) ** 2 * (t * t + y)
        p = f + h
        q = (-t * t - 6.0 * t * h * (h + 1.0) - 170.0 * f * h - 91.0 * h * h
             - 195.0 * f * h * h - 69.0 * h**3 - 75.0 * f * h**3 - 75.0 / 4.0 * h**4)
        for got, want in zip(sample(pmap, (x, y)).f_value, (p, q - 200.0)):
            assert math.isclose(got, want, rel_tol=1e-12), ((x, y), got, want)


# Pinchuk fiber solver.  These take about 1 s together (0.4 s of it the
# first import of sympy) on a 2-core x86-64 host: each target is one
# exact resultant over the integers.


def _pinchuk():
    return corpus.builtin("pinchuk200", enable_extended=True)


def test_pinchuk_fiber_finds_both_zeros():
    zeros = pinchuk_fiber((0.0, 0.0))
    assert len(zeros) == 2
    for got, ref in zip(zeros, PINCHUK_ZEROS):
        assert math.hypot(got[0] - ref[0], got[1] - ref[1]) <= 1e-6 * (
            1.0 + math.hypot(*ref))
        assert PINCHUK_SEARCH_BOX.contains(got)


def test_pinchuk_zeros_have_positive_jacobian():
    pmap = _pinchuk()
    for z in PINCHUK_ZEROS:
        s = sample(pmap, z)
        assert s.det > 0.0
        assert math.hypot(*s.f_value) <= 1e-6


def test_pinchuk_fiber_on_curve_is_single():
    for s in (-1.0, 0.5, 2.0):
        ps, qs = pinchuk_curve(s)
        pts = pinchuk_fiber((ps, qs - 200.0))
        assert len(pts) == 1, (s, pts)


def test_pinchuk_fiber_missed_points_are_empty():
    # the image omits exactly (0, 0) and (-1, -163/4), shifted by -200
    assert pinchuk_fiber((0.0, -200.0)) == ()
    assert pinchuk_fiber((-1.0, -240.75)) == ()


def test_pinchuk_fiber_roundtrip():
    pmap = _pinchuk()
    for target in ((55.269915, 115.442685), (-10.0, 0.0), (3.0, -41.75)):
        pts = pinchuk_fiber(target)
        assert len(pts) == 2
        for p in pts:
            v1, v2 = sample(pmap, p).f_value
            err = math.hypot(v1 - target[0], v2 - target[1])
            assert err <= 1e-5 * (1.0 + math.hypot(*target)), (target, p, err)


def test_eliminant_leading_coeff_vanishes_on_curve():
    # A_6 = 0 is the exact equation of the exceptional curve; check it
    # in rational arithmetic at dyadic parameter values
    for s in (Fraction(1, 2), Fraction(2), Fraction(-1), Fraction(-7, 2)):
        ps = s * s - 1
        qs = (-75 * s**5 + Fraction(345, 4) * s**4 - 29 * s**3
              + Fraction(117, 2) * s**2 - Fraction(163, 4))
        coeffs = _eliminant_coeffs(float(ps), float(qs) - 200.0)
        assert coeffs[6] == 0
        assert any(c != 0 for c in coeffs[:6])


def test_eliminant_constant_term_is_x0_line():
    # A_0 is a multiple of v - 50 u - 33/4, the image of the x = 0 column
    u, v = 3.0, 50.0 * 3.0 + 8.25
    coeffs = _eliminant_coeffs(u, v - 200.0)
    assert coeffs[0] == 0
    pts = pinchuk_fiber((u, v - 200.0))
    assert any(abs(x) <= 1e-9 and abs(y - u) <= 1e-9 for x, y in pts)

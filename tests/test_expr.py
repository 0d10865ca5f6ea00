"""Parser, printer, jets, compiled evaluation, polynomial extraction."""

import gc
import inspect
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from planarham import expr as expr_module
from planarham import rk
from planarham.corpus import BUILTIN_NAMES, builtin
from planarham.expr import (
    JET_ERRORS,
    Binary,
    Constant,
    DomainError,
    ParseError,
    Poly2,
    Unary,
    Variable,
    _codegen,
    _compile_source,
    _outward,
    _ulp_step,
    compile_array_jet,
    compile_array_polys,
    compile_grid,
    compile_interval_jet,
    compile_jet_pair,
    compile_polys,
    eval_grid,
    located_domain_error,
    nonfinite_constant,
    parse_expr,
    powi,
    print_expr,
    to_poly,
)
from planarham.field import PLANE_BOX

from grid_reference import eval_grid_reference
from interval_reference import eval_interval_jet
from jet_reference import eval_jet, walk_located_error, walk_nonfinite_constant

X = Variable("x")
Y = Variable("y")


def eval_value(e, x, y):
    return eval_jet(e, (x, y)).value


# ---- strategies ----

_consts = st.floats(allow_nan=False, allow_infinity=False, width=64).map(
    lambda v: Constant(float(v)))
_small_consts = st.floats(min_value=-4, max_value=4, allow_nan=False).map(
    lambda v: Constant(float(v)))


def _mk_unary(op, child):
    # the parser folds a minus sign into a numeric literal, so a strategy
    # tree must not contain neg(Constant)
    if op == "neg" and isinstance(child, Constant):
        return Constant(-child.value)
    return Unary(op, child)


def _extend(children):
    unary = st.builds(_mk_unary, st.sampled_from(["neg", "exp", "sin", "cos", "sqrt"]),
                      children)
    binary = st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]),
                       children, children)
    pow_ = st.builds(powi, children, st.integers(min_value=0, max_value=4))
    return st.one_of(unary, binary, pow_)


def _trees(consts):
    leaves = st.one_of(consts, st.sampled_from([X, Y]))
    return st.recursive(leaves, _extend, max_leaves=20)


# arbitrary constants for printing round trips, bounded ones for tests
# that actually evaluate (keeps overflow-driven filtering rare)
expr_trees = _trees(_consts)
eval_trees = _trees(_small_consts)

_lenient = settings(
    max_examples=200,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    deadline=None,
)

_points = st.tuples(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
)


# ---- parsing ----

def test_parse_example1_component():
    e = parse_expr("exp(x) - 1")
    assert e == Binary("sub", Unary("exp", X), Constant(1.0))
    assert print_expr(e) == "exp(x) - 1"


def test_parse_single_variable():
    assert parse_expr("x") == X


def test_parse_div_sqrt_powi():
    e = parse_expr("x/sqrt(1 + x^2)")
    expected = Binary("div", X, Unary("sqrt", Binary("add", Constant(1.0), powi(X, 2))))
    assert e == expected


def test_parse_unary_minus_binds_factor():
    # -x^2 is -(x^2); -x*y is (-x)*y
    assert parse_expr("-x^2") == Unary("neg", powi(X, 2))
    assert parse_expr("-x*y") == Binary("mul", Unary("neg", X), Y)


def test_parse_negative_literal_folds():
    assert parse_expr("-3.5") == Constant(-3.5)
    assert parse_expr("x - -3") == Binary("sub", X, Constant(-3.0))


@pytest.mark.parametrize("bad, pos_check", [
    ("x +", None),
    ("(x", None),
    ("x ^ y", None),          # exponent must be an integer literal
    ("x ^ 2.5", None),
    ("foo(x)", 0),            # unknown identifier, position points at it
    ("x $ y", 2),
    ("sin x", None),
    ("1e999*x", 0),           # a literal must be a finite float
    ("x + 2e400", 4),
])
def test_parse_errors_carry_position(bad, pos_check):
    with pytest.raises(ParseError) as exc:
        parse_expr(bad)
    assert exc.value.position >= 0
    if pos_check is not None:
        assert exc.value.position == pos_check


def test_scientific_notation():
    assert parse_expr("1e-3") == Constant(1e-3)
    assert parse_expr("2.5E+2") == Constant(250.0)


# ---- printing round trips ----

@given(expr_trees)
@settings(max_examples=300)
def test_parse_print_structural_identity(e):
    assert parse_expr(print_expr(e)) == e


@pytest.mark.parametrize("text", [
    "exp(x) - 1",
    "y",
    "x/sqrt(1 + x^2)",
    "(x^2 + (1 + x^2)^2*y)/sqrt(1 + x^2)",
    "exp(x)*cos(y) - 1",
    "0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2",
])
def test_print_parse_identity_up_to_whitespace(text):
    e = parse_expr(text)
    assert print_expr(e) == text
    assert parse_expr(print_expr(e)) == e


def test_integral_constants_print_as_integers():
    assert print_expr(Constant(2.0)) == "2"
    assert print_expr(Constant(-2.0)) == "-2"
    assert print_expr(Constant(0.5)) == "0.5"


@pytest.mark.parametrize("text,printed", [
    ("-0.0*y", "-0*y"), ("x*-0.0", "x*(-0)"), ("(-0.0)^2 + x", "(-0)^2 + x")])
def test_negative_zero_prints_its_sign(text, printed):
    # the map echo re-parses to the same tree, code, constants and jet
    e = parse_expr(text)
    assert print_expr(e) == printed
    echo = parse_expr(print_expr(e))
    (src, consts), (echo_src, echo_consts) = _codegen((e,)), _codegen((echo,))
    assert echo == e and echo_src == src
    assert list(map(repr, echo_consts.values())) == list(map(repr, consts.values())) == ["-0.0"]
    y = parse_expr("y")
    assert repr(compile_jet_pair(echo, y)(1.0, 2.0)) == repr(compile_jet_pair(e, y)(1.0, 2.0))
    assert repr(compile_jet_pair(echo, y)(1.0, 2.0)[0]) == ("-0.0" if "*" in text else "1.0")


# ---- jets ----

def test_jet_exp_at_origin():
    j = eval_jet(parse_expr("exp(x) - 1"), (0.0, 0.0))
    assert j.value == 0.0 and j.dx == 1.0 and j.dy == 0.0


def test_jet_product_rule():
    j = eval_jet(parse_expr("x*y"), (2.0, 3.0))
    assert j.value == 6.0 and j.dx == 3.0 and j.dy == 2.0


def test_jet_exp_cos():
    j = eval_jet(parse_expr("exp(x)*cos(y) - 1"), (0.0, 0.0))
    assert abs(j.value) <= 1e-15
    assert abs(j.dx - 1.0) <= 1e-12 and abs(j.dy) <= 1e-12
    # independent finite-difference check at the spec'd step
    e = parse_expr("exp(x)*cos(y) - 1")
    fd = (eval_value(e, 1e-6, 0.0) - eval_value(e, -1e-6, 0.0)) / 2e-6
    assert abs(j.dx - fd) <= 1e-6


def test_domain_error_names_subexpression():
    with pytest.raises(DomainError) as exc:
        eval_jet(parse_expr("sqrt(x - 2)"), (0.0, 0.0))
    assert "sqrt" in str(exc.value)
    with pytest.raises(DomainError):
        eval_jet(parse_expr("1/x"), (0.0, 1.0))


@given(eval_trees, eval_trees, _points,
       st.floats(min_value=-3, max_value=3, allow_nan=False),
       st.floats(min_value=-3, max_value=3, allow_nan=False))
@_lenient
def test_jet_linearity(g, h, p, a, b):
    try:
        jg = eval_jet(g, p)
        jh = eval_jet(h, p)
        combo = Binary("add", Binary("mul", Constant(a), g), Binary("mul", Constant(b), h))
        jc = eval_jet(combo, p)
    except (DomainError, OverflowError):
        assume(False)
    for got, want in [(jc.value, a * jg.value + b * jh.value),
                      (jc.dx, a * jg.dx + b * jh.dx),
                      (jc.dy, a * jg.dy + b * jh.dy)]:
        assume(math.isfinite(want))
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


# ---- compiled jets agree with the reference walk ----

@given(eval_trees, eval_trees, _points)
@_lenient
def test_compiled_matches_reference(f1, f2, p):
    try:
        j1 = eval_jet(f1, p)
        j2 = eval_jet(f2, p)
    except (DomainError, OverflowError):
        assume(False)
    jet = compile_jet_pair(f1, f2)
    try:
        got = jet(*p)
    except (ValueError, ZeroDivisionError, OverflowError):
        assume(False)
    # the value-only mode does the jet's value lines and nothing else
    values = _compile_source(_codegen((f1, f2), values_only=True))(*p)
    for v, jv in zip(values, (got[0], got[3])):
        assert v == jv or (math.isnan(v) and math.isnan(jv))
    want = (j1.value, j1.dx, j1.dy, j2.value, j2.dx, j2.dy)
    for g, w in zip(got, want):
        assume(math.isfinite(w) and abs(w) < 1e100)
        assert abs(g - w) <= 1e-9 * (1.0 + abs(w))


def test_codegen_emits_each_right_hand_side_once():
    f1 = parse_expr("exp(x)*cos(y) - 1")
    f2 = parse_expr("exp(x)*sin(y)")
    src, consts = _codegen((f1, f2))
    assert src.count("sin(") == 1 and src.count("cos(") == 1
    assert src.count("exp(") == 1
    assert consts == {"_c0": 1.0}     # f1's 1 is read by name like every constant
    jet = compile_jet_pair(f1, f2)
    for p in [(0.3, -1.2), (-2.0, 5.0), (1.5, 0.0)]:
        j1, j2 = eval_jet(f1, p), eval_jet(f2, p)
        assert jet(*p) == (j1.value, j1.dx, j1.dy, j2.value, j2.dx, j2.dy)


@pytest.mark.parametrize("order", [("0.0*y", "-0.0*y"), ("-0.0*y", "0.0*y")])
def test_jet_cache_tells_signed_zeros_apart(order):
    # Constant(-0.0) == Constant(0.0), but the two compile to different code
    y = parse_expr("y")
    for text in order:
        f1 = parse_expr(text)
        want = _compile_source(_codegen((f1, y)))(1.0, 2.0)
        got = compile_jet_pair(f1, y)(1.0, 2.0)
        assert repr(got) == repr(want)
        assert repr(got[0]) == ("-0.0" if text.startswith("-") else "0.0")


def test_codegen_never_hashes_a_node(example3, monkeypatch):
    # the frozen dataclasses hash recursively, so a memo keyed by the
    # nodes themselves costs a walk of the subtree per lookup
    pair = (example3.f1, example3.f2)
    want = _codegen(pair), _codegen(pair, values_only=True)

    def unhashable(self):
        raise AssertionError(f"hashed {self!r}")

    for cls in (Constant, Variable, Unary, Binary):
        monkeypatch.setattr(cls, "__hash__", unhashable)
    assert (_codegen(pair), _codegen(pair, values_only=True)) == want


# ---- compiled polynomials agree with Poly2.eval float for float ----

_coeffs = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([1.0, -1.0, 0.5, 1e-300, 1e300]))
_polys = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda ij: sum(ij) <= 8),
    _coeffs, max_size=12).map(Poly2.from_dict)
_poly_points = st.tuples(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False))


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@given(_polys, _polys, _poly_points)
@_lenient
def test_compiled_polys_equal_eval(p, q, point):
    got = compile_polys(p, q)(*point)
    want = (p.eval(*point), q.eval(*point))
    # == lets an all-zero sum differ in its sign only (eval starts from +0.0)
    for g, w in zip(got, want):
        assert _same_float(g, w)


@given(_polys)
@_lenient
def test_compiled_polys_overflow_like_eval(p):
    big = (1e200, -1e200)
    try:
        want = p.eval(*big)
    except OverflowError:
        with pytest.raises(OverflowError):
            compile_polys(p)(*big)
    else:
        (got,) = compile_polys(p)(*big)
        assert _same_float(got, want)


def test_compiled_polys_shapes():
    p = to_poly(parse_expr("x^2*y - 3*x + 1"))
    assert compile_polys(p)(2.0, 5.0) == (15.0,)
    assert compile_polys(Poly2.zero(), p)(1.0, 1.0) == (0.0, -1.0)
    with pytest.raises(OverflowError):
        compile_polys(p)(1e200, 1.0)


# ---- compiled jets over arrays equal the scalar ones bit for bit ----

def _same_bits(a, b):
    """Equal floats with the same sign of zero, or two nans."""
    return (a == b and math.copysign(1.0, a) == math.copysign(1.0, b)) or (
        math.isnan(a) and math.isnan(b))


def _assert_array_matches_scalar(scalar, array, xs, ys):
    """``array`` on (xs, ys) marks exactly the points where ``scalar``
    raises, and elsewhere equals it in every output, bit for bit."""
    outputs, raised = array(np.array(xs, dtype=float), np.array(ys, dtype=float))
    for k, p in enumerate(zip(xs, ys)):
        try:
            want = scalar(*p)
        except (ValueError, ZeroDivisionError, OverflowError):
            assert raised[k], p
            continue
        assert not raised[k], p
        got = [float(v[k]) for v in outputs]
        assert all(map(_same_bits, got, want)), (p, got, want)


# magnitudes at which exp, powers and products overflow or leave the domain
_array_coords = st.lists(st.one_of(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 200.0, -750.0, 1e10, 1e80, -1e160, 1e300])),
    min_size=1, max_size=12)


@given(eval_trees, eval_trees, _array_coords, _array_coords)
@_lenient
def test_array_jet_equals_scalar_jet(f1, f2, xs, ys):
    n = min(len(xs), len(ys))
    _assert_array_matches_scalar(compile_jet_pair(f1, f2), compile_array_jet(f1, f2),
                                 xs[:n], ys[:n])


@pytest.mark.parametrize("text, point", [
    ("exp(-1/x^2)", (0.0, 0.5)),       # 1/0 raises; the array's exp(-inf) is 0
    ("1/(1/x)", (0.0, 0.5)),           # 1/0 raises; the array's 1/inf is 0
    ("x^4", (1e100, 0.5)),             # ** overflows
    ("sqrt(x)", (-1.0, 0.5)),
    ("sin(x*1e300)", (1e10, 0.5)),     # the product overflows silently, sin raises
    ("exp(x)*y", (710.0, 0.5)),
    ("x + 2^1100", (1.0, 0.5)),        # raises everywhere: free of x and y
])
def test_array_jet_masks_exactly_where_the_scalar_jet_raises(text, point):
    f1, f2 = parse_expr(text), parse_expr("x*y + 1")
    scalar = compile_jet_pair(f1, f2)
    with pytest.raises((ValueError, ZeroDivisionError, OverflowError)):
        scalar(*point)
    xs, ys = [point[0], 0.25, -0.75, 2.0], [point[1], 0.5, 1.5, -2.0]
    _assert_array_matches_scalar(scalar, compile_array_jet(f1, f2), xs, ys)
    _, raised = compile_array_jet(f1, f2)(np.array(xs), np.array(ys))
    assert raised[0]


def test_array_jet_fills_out_constant_outputs():
    (v1, dx1, dy1, v2, dx2, dy2), raised = compile_array_jet(
        parse_expr("2"), parse_expr("x"))(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert v1.tolist() == [2.0, 2.0] and dx1.tolist() == [0.0, 0.0]
    assert v2.tolist() == [1.0, 2.0] and dx2.tolist() == [1.0, 1.0]
    assert raised.tolist() == [False, False]


@given(_polys, _polys, st.lists(_poly_points, min_size=1, max_size=8))
@_lenient
def test_array_polys_equal_compiled_polys(p, q, points):
    xs, ys = zip(*points)
    _assert_array_matches_scalar(compile_polys(p, q), compile_array_polys(p, q),
                                 list(xs) + [1e200], list(ys) + [-1e200])


# ---- constants are bound by name, so a family of maps compiles once ----

_FAMILY = [("2.5*x + 3*y^2 - 0.5", "exp(0.7*x)*sin(1.3*y)/(2 + x^2)"),
           ("-4*x + 0.001*y^2 - 7", "exp(2*x)*sin(-0.2*y)/(0.25 + x^2)")]
_POLY_FAMILY = [({(0, 0): -0.5, (1, 1): 2.5, (0, 3): 3.0}, {(2, 0): 0.7, (0, 1): -1.3}),
                ({(0, 0): 4.0, (1, 1): -0.01, (0, 3): 1e5}, {(2, 0): -2.0, (0, 1): 0.3})]
_ROUTES = {
    "jet pair": compile_jet_pair,
    "array jet": compile_array_jet,
    "interval jet": compile_interval_jet,
    "orbit kernel": lambda f1, f2: rk.orbit_kernel(f1, f2, JET_ERRORS, lambda *args: None),
    "flow kernel": rk.flow_kernel,
    "polys": compile_polys,
    "array polys": compile_array_polys,
    "grid": compile_grid,
}


def _generated_code(fn):
    """The code of the generated function that ``fn`` is or wraps."""
    return inspect.getclosurevars(fn).nonlocals.get("generated", fn).__code__


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_maps_differing_only_in_coefficients_share_code(route):
    if "polys" in route:
        family = [tuple(map(Poly2.from_dict, pair)) for pair in _POLY_FAMILY]
    else:
        family = [tuple(map(parse_expr, pair)) for pair in _FAMILY]
    first = _ROUTES[route](*family[0])
    misses = compile_jet_pair.cache_info().misses
    second = _ROUTES[route](*family[1])
    assert compile_jet_pair.cache_info().misses == misses
    assert first is not second and _generated_code(first) is _generated_code(second)


def test_zero_and_one_coefficients_are_named_and_keep_ieee_results():
    f1, f2 = parse_expr("0.0*y + 1.0*x"), parse_expr("1*y - 0*x^2")
    for values_only in (False, True):
        for array in (False, True):
            src, consts = _codegen((f1, f2), values_only, array)
            assert consts == {"_c0": 0.0, "_c1": 1.0}
            assert "_c0*y" in src and "_c1*x" in src
    assert compile_jet_pair(f1, f2)(2.0, 3.0) == (2.0, 1.0, 0.0, 3.0, 0.0, 1.0)
    # x + 0 and 0 - y at -0.0 and 0.0 are +0.0, where x and -y would be -0.0
    jet = compile_jet_pair(parse_expr("x + 0"), parse_expr("0 - y"))
    assert repr(jet(-0.0, 0.0)[::3]) == "(0.0, 0.0)"
    # 0*exp(x) is 0*inf where exp overflows, and 0/x is undefined at 0
    v1, v2 = eval_grid(compile_grid(parse_expr("0*exp(x)"), parse_expr("0/x")),
                       np.array([800.0, 0.0, 1.0]), np.zeros(3))
    assert repr(v1.tolist()) == "[nan, 0.0, 0.0]" and repr(v2.tolist()) == "[0.0, nan, 0.0]"


def test_zero_over_x_is_undefined_at_zero_on_every_route():
    f1, f2 = parse_expr("0/x"), Y
    with pytest.raises(DomainError, match="division by zero"):
        eval_jet(f1, (0.0, 1.0))
    with pytest.raises(ZeroDivisionError):
        compile_jet_pair(f1, f2)(0.0, 1.0)
    assert compile_jet_pair(f1, f2)(2.0, 1.0)[0] == 0.0
    _, raised = compile_array_jet(f1, f2)(np.array([0.0, -0.0, 2.0]), np.ones(3))
    assert raised.tolist() == [True, True, False]
    _, _, undefined = compile_interval_jet(f1, f2)(
        np.array([0.0, -0.5, 1.0]), np.array([0.0, 0.5, 2.0]), 1.0, 1.0)
    assert undefined.tolist() == [True, True, False]


_edge_trees = _trees(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e-300, 0.1, 1e300])
                     .map(Constant))
_CONST_NAME = re.compile(r"\b_c\d+\b")


def _literal_jet(f1, f2):
    """The jet compiled from its source with each named constant spelled
    out as a literal."""
    src, consts = _codegen((f1, f2))
    return _compile_source((_CONST_NAME.sub(lambda m: f"({consts[m.group()]!r})", src), {}))


def _constants(e):
    """The reprs of the constants that the code of e reads (a powi
    exponent is spelled into the code)."""
    if isinstance(e, Constant):
        return {repr(e.value)}
    if isinstance(e, Unary):
        return _constants(e.child)
    if isinstance(e, Binary):
        return _constants(e.left) | (set() if e.op == "powi" else _constants(e.right))
    return set()


def _outcome(fn, p):
    try:
        return tuple(map(repr, fn(*p)))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


@given(_edge_trees, _edge_trees, _array_coords, _array_coords)
@example(parse_expr("2.0*3.0*x"), parse_expr("sqrt(2.0)*y"), [1.5, -0.0], [-2.0, 1e300])
@example(parse_expr("(-0.5)^3*x + y"), parse_expr("-0.0*x - 0.0"), [0.5, -1.0], [-0.0, 3.0])
@_lenient
def test_lifted_constants_keep_every_bit(f1, f2, xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    _, consts = _codegen((f1, f2))
    assert sorted(map(repr, consts.values())) == sorted(_constants(f1) | _constants(f2))
    jet = compile_jet_pair(f1, f2)
    literal = _literal_jet(f1, f2)
    for p in zip(xs, ys):
        got = _outcome(jet, p)
        assert got == _outcome(literal, p)
        try:
            j1, j2 = eval_jet(f1, p), eval_jet(f2, p)
        except (DomainError, OverflowError):
            continue
        want = (j1.value, j1.dx, j1.dy, j2.value, j2.dx, j2.dy)
        if isinstance(got, str) or not all(map(math.isfinite, want)):
            continue
        # equal up to the sign of a zero: the code folds a product with
        # a zero partial, y*0.0, to 0.0, where the tree walk's keeps the
        # sign of y
        assert [repr(float(g) + 0.0) for g in got] == [repr(w + 0.0) for w in want]
    _assert_array_matches_scalar(jet, compile_array_jet(f1, f2), xs, ys)


def test_eval_jet_and_nonfinite_constant_leave_no_reference_cycles():
    e = parse_expr("exp(x)*sin(y) + 1e200*1e200*x")
    gc.collect()
    gc.disable()
    try:
        eval_jet(e, (0.5, 0.25))
        assert nonfinite_constant(e) == parse_expr("1e200*1e200")
        err = located_domain_error(e, parse_expr("sqrt(x - y)"), (0.5, 0.75))
        assert str(err) == "sqrt of a negative value in 'sqrt(x - y)' at (0.5, 0.75)"
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---- located domain errors ----

def _kids(e):
    return ((e.child,) if isinstance(e, Unary) else
            (e.left, e.right) if isinstance(e, Binary) else ())


def _jet_raises(e, p) -> bool:
    try:
        compile_jet_pair(e, e)(*p)
    except JET_ERRORS:
        return True
    return False


def _compiled_op_raises(node, p) -> bool:
    """Whether the compiled jet fails at ``node``'s own operation at p:
    the jet of the subtree raises there, those of its children do not
    (the subtree's code folds as it does inside any tree)."""
    return _jet_raises(node, p) and not any(_jet_raises(k, p) for k in _kids(node))


def _walk_op_raises(node, p) -> bool:
    """Whether the reference walk fails at ``node``'s own operation at p."""
    try:
        eval_jet(node, p)
    except DomainError as err:
        return err.subexpr == node
    except OverflowError:
        pass
    return False


_locating_points = st.tuples(*[st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
    st.floats(min_value=-3, max_value=3, allow_nan=False))] * 2)


# eval_trees, a third of them put under a call that can fail, so that
# the jet raises at about a third of the draws
_locating_trees = st.one_of(
    eval_trees, st.builds(Unary, st.sampled_from(["sqrt", "sin", "cos"]), eval_trees),
    st.builds(Binary, st.just("div"), eval_trees, eval_trees))


@given(_locating_trees, _locating_trees, _locating_points)
@example(parse_expr("sqrt(x*y) + sqrt(x - 1)"), Y, (0.0, 0.0))
@example(parse_expr("sin(x*1e300*1e300 - x*1e300*1e300)"), parse_expr("1/y"), (1.0, 0.0))
@settings(max_examples=2000, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_located_error_is_the_first_failing_call(f1, f2, p):
    try:
        compile_jet_pair(f1, f2)(*p)
    except (ValueError, ZeroDivisionError):
        pass
    except OverflowError:
        assume(False)
    else:
        assume(False)
    got = located_domain_error(f1, f2, p)
    # a node whose own compiled operation raises at p, always
    assert got is not None and got.point == p
    assert _compiled_op_raises(got.subexpr, p)
    # the walk's error, where the walk fails first where the code does.
    # The two part where the walk raises on a nan (math.sin(nan) is nan)
    # and where the code divides a zero partial by a zero sqrt (sqrt(x*y)
    # at the origin); there the located node comes first in the code.
    walk = walk_located_error(f1, f2, p)
    if walk is not None and _compiled_op_raises(walk.subexpr, p) and _walk_op_raises(
            got.subexpr, p):
        assert str(got) == str(walk) and got.subexpr == walk.subexpr


@given(expr_trees)
@example(parse_expr("exp(x)*sin(y) + 1e200*1e200*x"))
@example(parse_expr("x + sin(1e300*1e300 - 1) + 1/(2 - 2)"))
@_lenient
def test_nonfinite_constant_equals_the_walk(e):
    assert nonfinite_constant(e) == walk_nonfinite_constant(e)


def test_nonfinite_constant_compiles_nothing_without_a_composite_constant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compiled")

    monkeypatch.setattr(expr_module, "_compile_source", refuse)
    for text in ("x*y + 2", "exp(3*x) - sin(-0.5*y)", "1e300"):
        assert nonfinite_constant(parse_expr(text)) is None


# ---- finite-difference oracle on the corpus expressions ----

CORPUS_TEXTS = [
    "exp(x) - 1",
    "y",
    "x/sqrt(1 + x^2)",
    "(x^2 + (1 + x^2)^2*y)/sqrt(1 + x^2)",
    "exp(x)*cos(y) - 1",
    "exp(x)*sin(y)",
    "x^2",
    "0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2",
]


@pytest.mark.parametrize("text", CORPUS_TEXTS)
def test_derivatives_match_finite_differences(text):
    e = parse_expr(text)
    rng = np.random.default_rng(42)
    step = 1e-6
    for _ in range(100):
        x, y = rng.uniform(-2, 2, size=2)
        j = eval_jet(e, (x, y))
        fd_x = (eval_value(e, x + step, y) - eval_value(e, x - step, y)) / (2 * step)
        fd_y = (eval_value(e, x, y + step) - eval_value(e, x, y - step)) / (2 * step)
        assert abs(j.dx - fd_x) <= 1e-5 * (1.0 + abs(j.dx))
        assert abs(j.dy - fd_y) <= 1e-5 * (1.0 + abs(j.dy))


# ---- grid evaluation ----

def test_eval_grid_matches_pointwise():
    f1, f2 = parse_expr("exp(x)*cos(y) - 1"), parse_expr("exp(x)*sin(y)")
    xs, ys = np.meshgrid(np.linspace(-2, 2, 7), np.linspace(-2, 2, 7))
    grids = eval_grid(compile_grid(f1, f2), xs, ys)
    for e, grid in zip((f1, f2), grids):
        for i in range(7):
            for j in range(7):
                assert abs(grid[i, j] - eval_value(e, xs[i, j], ys[i, j])) <= 1e-12


def test_eval_grid_nan_outside_domain():
    grid = compile_grid(parse_expr("sqrt(x)"), parse_expr("1/x"))
    roots, inverses = eval_grid(grid, np.array([-1.0, 0.0, 4.0]), np.zeros(3))
    assert math.isnan(roots[0]) and roots[1] == 0.0 and roots[2] == 2.0
    assert inverses[0] == -1.0 and math.isnan(inverses[1]) and inverses[2] == 0.25


@pytest.mark.parametrize("layout", ["broadcast", "meshgrid"])
def test_grid_outputs_are_new_writable_arrays_of_the_broadcast_shape(layout):
    xs, ys = np.linspace(-1.0, 1.0, 3)[:, None], np.linspace(0.0, 2.0, 4)
    if layout == "meshgrid":        # the inputs themselves are read, not copies
        xs, ys = np.meshgrid(xs[:, 0], ys, indexing="ij")
    for f1, f2 in [("x", "2"), ("y", "y"), ("x*y", "x*y")]:
        out = eval_grid(compile_grid(parse_expr(f1), parse_expr(f2)), xs, ys)
        for v in out:
            assert v.shape == (3, 4) and v.dtype == float and v.flags.writeable
            assert not np.shares_memory(v, xs) and not np.shares_memory(v, ys)
        assert not np.shares_memory(*out)
    first, second = eval_grid(compile_grid(X, Constant(2.0)), xs, ys)
    assert (first == np.broadcast_to(xs, (3, 4))).all() and (second == 2.0).all()


_grid_coords = st.lists(st.one_of(
    st.floats(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -1.0, 710.0, -750.0, 1e300])),
    min_size=1, max_size=6)


def _grid_layout(xs, ys, layout):
    """Coordinates in the layout of a caller of eval_grid: 1-D edge
    samples, a meshgrid, or the chart segments of ``classify_sectors``
    (one abscissa per side and depth, against a row of samples)."""
    xs, ys = np.array(xs), np.array(ys)
    if layout == "1-D":
        n = min(len(xs), len(ys))
        return xs[:n], ys[:n]
    if layout == "meshgrid":
        return np.meshgrid(xs, ys, indexing="ij")
    depths = np.stack([xs, xs[::-1]])[..., None]                 # (2, depths, 1)
    segments = np.tile(ys, (2, len(xs), 1))                      # (2, depths, n)
    return (depths, segments) if layout == "U1" else (segments, depths)


def _grid_bits(a):
    """The bits of the floats of ``a``, every nan as numpy's ``nan``: where
    two nans meet in + or -, which one's sign wins depends on the numpy
    loop, and within one array on the element's position in it."""
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


@given(_edge_trees, _edge_trees, _grid_coords, _grid_coords,
       st.sampled_from(["1-D", "meshgrid", "U1", "U2"]))
@example(parse_expr("0*exp(x) + 0/y"), parse_expr("x - 0 + (1e300*1e300 - 1e300*1e300)"),
         [-0.0, 800.0, math.nan], [0.0, -0.0, math.inf], "meshgrid")
@example(parse_expr("sqrt(0.1 - 1)^3*x"), parse_expr("(0.1*0.1)^4/exp(0.1)"),
         [2.0], [-0.0, 1.0], "U1")
@_lenient
def test_grid_code_equals_the_reference_bit_for_bit(f1, f2, xs, ys, layout):
    xs, ys = _grid_layout(xs, ys, layout)
    shape = np.broadcast_shapes(xs.shape, ys.shape)
    got = eval_grid(compile_grid(f1, f2), xs, ys)
    for e, grid in zip((f1, f2), got):
        want = eval_grid_reference(e, xs, ys)
        assert grid.shape == want.shape == shape and grid.flags.writeable
        assert not np.shares_memory(grid, xs) and not np.shares_memory(grid, ys)
        assert np.array_equal(_grid_bits(grid), _grid_bits(want)), (e, grid, want)


def test_grid_code_frees_each_temporary_after_its_last_read():
    # 20 chained subexpressions each leave grid-sized temporaries, which
    # the code frees in order as it goes: the peak is about 5 grids, where
    # keeping every temporary to the end takes 64
    chain = "x"
    for k in range(20):
        chain = f"sin({chain} + {0.1 * (k + 1)!r}*y)"
    f1, f2 = parse_expr(chain), parse_expr("exp(x)*y")
    src, _ = _codegen((f1, f2), values_only=True, array=True)
    frees = [line.split(None, 1)[1].split(", ") for line in src.splitlines()
             if line.lstrip().startswith("del ")]
    assert len(frees) >= 20
    assert all(names == sorted(names, key=lambda t: int(t[1:])) for names in frees)
    grid = compile_grid(f1, f2)
    xs, ys = np.linspace(-1.0, 1.0, 400), np.linspace(-2.0, 2.0, 400)[:, None]
    one_grid = 400 * 400 * 8
    eval_grid(grid, xs, ys)
    tracemalloc.start()
    try:
        eval_grid(grid, xs, ys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7 * one_grid


# ---- interval jets ----

def _enclose(e, *box):
    """The compiled enclosures of ``e``'s value and partials over the
    boxes: ``e`` as f1 of a map whose f2 is 0."""
    lo, hi, undefined = compile_interval_jet(e, Constant(0.0))(*box)
    return lo[:3], hi[:3], undefined


_OP_EXPRS = (
    "exp(x - 0.5*y)", "sin(x*y)", "cos(x - y)", "sqrt(x^2 + y^2 + 0.25)", "sqrt(x + 10)",
    "(x + y)/(x^2 + 1)", "y/(x - 1)", "(x - y)^4", "(x*y - 1)^3", "-(x*y) + -y^2",
)
_ENCLOSURE_CASES = (
    [(text, parse_expr(text), PLANE_BOX) for text in _OP_EXPRS]
    + [(f"{name}.{key}", getattr(pmap, key), pmap.working_box())
       for name in BUILTIN_NAMES for pmap in [builtin(name, enable_extended=True)]
       for key in ("f1", "f2")])


@pytest.mark.parametrize("label,e,window", _ENCLOSURE_CASES,
                         ids=[c[0] for c in _ENCLOSURE_CASES])
def test_interval_jet_encloses_point_jets(label, e, window):
    # random sub-boxes of the window, from a millionth of it to all of it;
    # eval_jet at corners, centre and random points of each box
    rng = np.random.default_rng(19)
    x0, x1, y0, y1 = window.xmin, window.xmax, window.ymin, window.ymax
    n = 40
    cx, cy = rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)
    rx, ry = ((hi - lo) * 10.0 ** rng.uniform(-6, 0, n) for lo, hi in ((x0, x1), (y0, y1)))
    xlo, xhi = np.maximum(cx - rx, x0), np.minimum(cx + rx, x1)
    ylo, yhi = np.maximum(cy - ry, y0), np.minimum(cy + ry, y1)
    lo, hi, undefined = _enclose(e, xlo, xhi, ylo, yhi)
    assert lo.shape == hi.shape == (3, n) and undefined.shape == (n,)
    checked = 0
    for k in np.flatnonzero(~undefined):
        s, t = rng.uniform(size=(2, 4))
        xs = [xlo[k], xhi[k], xlo[k], xhi[k], 0.5 * (xlo[k] + xhi[k]),
              *(xlo[k] + s * (xhi[k] - xlo[k]))]
        ys = [ylo[k], ylo[k], yhi[k], yhi[k], 0.5 * (ylo[k] + yhi[k]),
              *(ylo[k] + t * (yhi[k] - ylo[k]))]
        for x, y in zip(xs, ys):
            try:
                jet = eval_jet(e, (float(x), float(y)))
            except (DomainError, OverflowError):
                continue
            for i, v in enumerate((jet.value, jet.dx, jet.dy)):
                assert lo[i, k] <= v <= hi[i, k], (label, k, (x, y), i, v, lo[i, k], hi[i, k])
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("text,a,b,bound", [
    ("sin(x)", 1.5, 1.6, 1.0),                      # pi/2
    ("sin(x)", 4.7, 4.8, -1.0),                     # 3 pi/2
    ("cos(x)", -0.1, 0.1, 1.0),                     # 0
    ("cos(x)", 3.1, 3.2, -1.0),                     # pi
    ("sin(x)", 2000.5 * math.pi - 1e-6, 2000.5 * math.pi + 1e-6, 1.0),
    ("cos(x)", -3.0, 40.0, -1.0),                   # wider than a turn
])
def test_interval_circular_functions_reach_their_extrema(text, a, b, bound):
    lo, hi, undefined = _enclose(parse_expr(text), a, b, 0.0, 0.0)
    assert not undefined
    assert (hi[0] if bound > 0 else lo[0]) == bound


def test_interval_circular_functions_stay_tight_between_extrema():
    lo, hi, _ = _enclose(parse_expr("sin(x)"), 0.1, 0.2, 0.0, 0.0)
    assert math.sin(0.1) - 1e-15 <= lo[0] <= math.sin(0.1)
    assert math.sin(0.2) <= hi[0] <= math.sin(0.2) + 1e-15


@pytest.mark.parametrize("text,box,undefined", [
    ("sqrt(x)", (-1.0, 1.0), True),
    ("sqrt(x)", (0.0, 1.0), True),                  # the derivative blows up at 0
    ("sqrt(x)", (0.25, 1.0), False),
    ("1/x", (-1.0, 1.0), True),
    ("1/x", (0.0, 1.0), True),
    ("1/x", (1.0, 2.0), False),
    ("y/x", (-2.0, -1.0), False),
    ("exp(x)", (700.0, 800.0), True),               # overflows
    ("x^3/3", (-1.0, 1.0), False),                  # a literal divisor
    ("x/(3 - 3)", (1.0, 2.0), True),                # a literal divisor of 0
    ("y/sqrt(x - 1)", (2.0, 3.0), False),
    ("y/sqrt(x - 1)", (0.5, 3.0), True),
    ("exp(-exp(x))", (700.0, 800.0), True),         # the overflow reaches exp as -inf
    ("1/exp(x)", (700.0, 800.0), True),
])
def test_interval_jet_undefined_where_zero_or_overflow_meets_a_box(text, box, undefined):
    lo, hi, bad = _enclose(parse_expr(text), *box, 1.0, 1.0)
    assert bool(bad) is undefined
    if not undefined:
        assert np.all(lo <= hi) and np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))


_boxes = st.lists(st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
    st.floats(-6.0, 0.0).map(lambda k: 10.0 ** k), st.floats(-6.0, 0.0).map(lambda k: 10.0 ** k)),
    min_size=1, max_size=6)


@given(eval_trees, eval_trees, _boxes, st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
@_lenient
def test_compiled_enclosures_are_sound_and_undefined_only_where_the_reference_is(
        f1, f2, boxes, fractions):
    cx, cy, rx, ry = map(np.array, zip(*boxes))
    box = (cx - rx, cx + rx, cy - ry, cy + ry)
    lo, hi, undefined = compile_interval_jet(f1, f2)(*box)
    assert lo.shape == hi.shape == (6, len(boxes)) and undefined.shape == (len(boxes),)
    (_, _, bad1), (_, _, bad2) = (eval_interval_jet(f, *box) for f in (f1, f2))
    assert not (undefined & ~(bad1 | bad2)).any()
    jet = compile_jet_pair(f1, f2)
    s, t = fractions[::2], fractions[1::2]
    for k in np.flatnonzero(~undefined):
        xlo, xhi, ylo, yhi = (float(b[k]) for b in box)
        points = [(xlo, ylo), (xhi, yhi), (xlo, yhi), (xhi, ylo)] + [
            (min(xlo + a * (xhi - xlo), xhi), min(ylo + b * (yhi - ylo), yhi))
            for a, b in zip(s, t)]
        for p in points:
            try:
                values = jet(*p)
            except (ValueError, ZeroDivisionError, OverflowError):
                continue
            for i, v in enumerate(values):
                assert lo[i, k] <= v <= hi[i, k], (p, i, v, lo[i, k], hi[i, k])


def _exact_jet(e, x, y):
    """Value and partials of a tree without transcendental calls, in
    exact rational arithmetic; None where a divisor is 0."""
    if isinstance(e, Constant):
        return Fraction(e.value), 0, 0
    if isinstance(e, Variable):
        return (x, 1, 0) if e.name == "x" else (y, 0, 1)
    if isinstance(e, Unary):
        v = _exact_jet(e.child, x, y)
        return v and tuple(-t for t in v)
    a = _exact_jet(e.left, x, y)
    if e.op == "powi":
        n = int(e.right.value)
        return a and (a[0] ** n, *(n * a[0] ** (n - 1) * d if n else 0 for d in a[1:]))
    b = _exact_jet(e.right, x, y)
    if a is None or b is None or (e.op == "div" and b[0] == 0):
        return None
    if e.op in ("add", "sub"):
        sign = 1 if e.op == "add" else -1
        return tuple(s + sign * t for s, t in zip(a, b))
    if e.op == "mul":
        return a[0] * b[0], a[0] * b[1] + b[0] * a[1], a[0] * b[2] + b[0] * a[2]
    w = a[0] / b[0]
    return w, (a[1] - w * b[1]) / b[0], (a[2] - w * b[2]) / b[0]


# halves of small integers: a product of a few is exact in floats, so a
# subexpression free of x and y means one real number
_rational_trees = st.recursive(
    st.one_of(st.integers(-8, 8).map(lambda k: Constant(k / 2)), st.sampled_from([X, Y])),
    lambda kids: st.one_of(
        st.builds(_mk_unary, st.just("neg"), kids),
        st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), kids, kids),
        st.builds(powi, kids, st.integers(min_value=0, max_value=4))),
    max_leaves=12)


@given(_rational_trees, _rational_trees, _boxes, st.lists(st.floats(0.0, 1.0), min_size=2,
                                                        max_size=8))
@example(Binary("mul", X, Y), Y, [(0.5, 0.5, 0.1, 0.1)], [0.0, 0.0])    # 0.4*0.4 rounds up
@_lenient
def test_compiled_enclosures_hold_the_exact_jet(f1, f2, boxes, fractions):
    # the real jet, not only the rounded one: each operation rounds outward
    cx, cy, rx, ry = map(np.array, zip(*boxes))
    box = (cx - rx, cx + rx, cy - ry, cy + ry)
    lo, hi, undefined = compile_interval_jet(f1, f2)(*box)
    for k in np.flatnonzero(~undefined):
        xlo, xhi, ylo, yhi = (float(b[k]) for b in box)
        for a, b in zip(fractions[::2], fractions[1::2]):
            p = (Fraction(min(xlo + a * (xhi - xlo), xhi)),
                 Fraction(min(ylo + b * (yhi - ylo), yhi)))
            for first, f in ((0, f1), (3, f2)):
                for i, v in enumerate(_exact_jet(f, *p) or (), first):
                    assert lo[i, k] <= v <= hi[i, k], (p, i, float(v), lo[i, k], hi[i, k])


@given(eval_trees, eval_trees, _boxes)
@_lenient
def test_value_enclosures_equal_the_full_jets_value_rows(f1, f2, boxes):
    cx, cy, rx, ry = map(np.array, zip(*boxes))
    box = (cx - rx, cx + rx, cy - ry, cy + ry)
    lo, hi, undefined = compile_interval_jet(f1, f2)(*box)
    vlo, vhi, vundefined = compile_interval_jet(f1, f2, values_only=True)(*box)
    np.testing.assert_array_equal(_bits(vlo), _bits(lo[[0, 3]]))
    np.testing.assert_array_equal(_bits(vhi), _bits(hi[[0, 3]]))
    assert not (vundefined & ~undefined).any()


@pytest.mark.parametrize("text", ["exp(-exp(x))", "sin(exp(x))", "1/exp(x)"])
def test_value_enclosures_undefined_where_an_overflow_reaches_a_call(text):
    # exp(x) overflows on the box, and the call that receives it would
    # give a finite enclosure
    _, _, undefined = compile_interval_jet(parse_expr(text), Y, values_only=True)(
        700.0, 800.0, 0.0, 1.0)
    assert undefined


def test_interval_jet_fills_out_constant_outputs():
    lo, hi, undefined = compile_interval_jet(parse_expr("2"), parse_expr("x"))(
        np.array([1.0, 2.0]), np.array([1.5, 3.0]), np.zeros(2), np.ones(2))
    assert lo.shape == (6, 2) and lo[0].tolist() == hi[0].tolist() == [2.0, 2.0]
    assert lo[1].tolist() == hi[1].tolist() == [0.0, 0.0]
    assert lo[3, 0] <= 1.0 and hi[3, 1] >= 3.0 and not undefined.any()


def _nextafter_loop(lo, hi, ulps=1):
    """The reference widening: ``ulps`` np.nextafter steps per bound."""
    with np.errstate(all="ignore"):
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return lo, hi


_TINY = 5e-324
_MAX = float(np.finfo(np.float64).max)
# zeros, subnormals round zero, +-inf, +-max and their neighbours, quiet
# and signalling nans of both signs
_EDGE_FLOATS = ([0.0, -0.0, _TINY, -_TINY, 3 * _TINY, -3 * _TINY, 4 * _TINY, -4 * _TINY,
                 5 * _TINY, 2.2250738585072014e-308, math.inf, -math.inf, _MAX, -_MAX,
                 np.nextafter(_MAX, 0.0), -np.nextafter(_MAX, 0.0), 1.0, -1.0]
                + np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                            0xFFF0000000000003, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF],
                           dtype=np.uint64).view(np.float64).tolist())


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _stepped(x, k):
    """``_ulp_step(x, k)``, which must warn of nothing, as bits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _bits(_ulp_step(x, k))


def _widened(lo, hi, ulps):
    """``_outward``'s bounds as bits, under its callers' errstate."""
    with np.errstate(all="ignore"):
        return tuple(_bits(b) for b in _outward(lo, hi, ulps))


@pytest.mark.parametrize("ulps", [1, 4])
def test_outward_matches_nextafter_on_edge_floats(ulps):
    lo, hi = np.array(_EDGE_FLOATS), np.array(_EDGE_FLOATS[::-1])
    for got, want in zip(_widened(lo, hi, ulps), _nextafter_loop(lo, hi, ulps)):
        np.testing.assert_array_equal(got, _bits(want))
    for x in map(np.asarray, _EDGE_FLOATS):        # 0-d, as scalar boxes give
        want = _nextafter_loop(x, x, ulps)
        assert _stepped(x, -ulps) == _bits(want[0]) and _stepped(x, ulps) == _bits(want[1])
        assert _widened(x, x, ulps) == tuple(map(_bits, want)), x


_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
    st.integers(-8, 8).map(lambda k: k * _TINY),
    st.sampled_from(_EDGE_FLOATS))


@settings(max_examples=300, deadline=None)
@given(xs=st.lists(_ANY_FLOAT, min_size=1, max_size=30), k=st.sampled_from([1, 4]))
def test_ulp_step_is_k_nextafter_steps(xs, k):
    # bit for bit, each way, for k = 1 and 4
    x = np.array(xs)
    lo, hi = _nextafter_loop(x, x, k)
    np.testing.assert_array_equal(_stepped(x, -k), _bits(lo))
    np.testing.assert_array_equal(_stepped(x, k), _bits(hi))
    for got, want in zip(_widened(x, x, k), (lo, hi)):
        np.testing.assert_array_equal(got, _bits(want))


# ---- polynomial extraction ----

def test_to_poly_direct_reading():
    p = to_poly(parse_expr("x^2 - 1"))
    assert p is not None
    assert p.terms == ((-1.0, 0, 0), (1.0, 2, 0))


def test_to_poly_rejects_transcendental():
    assert to_poly(parse_expr("exp(x)")) is None
    assert to_poly(parse_expr("x/y")) is None
    assert to_poly(parse_expr("x + sqrt(y)")) is None


def test_to_poly_declared_hamiltonian_degree8():
    p = to_poly(parse_expr("0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2"))
    assert p is not None
    assert p.degree() == 8
    assert p.top_form().terms == ((0.5, 6, 2),)


@given(eval_trees, _points)
@_lenient
# the expansion of ((x - 2.0625)^4)^4 cancels terms of 5.5e9 down to 5e-20
@example(powi(powi(Binary("add", Constant(-2.0625), X), 4), 4), (2.0, 0.0))
def test_to_poly_soundness(e, p):
    poly = to_poly(e)
    assume(poly is not None)
    try:
        want = eval_value(e, *p)
    except (DomainError, OverflowError):
        assume(False)
    assume(math.isfinite(want) and abs(want) < 1e100)
    got = poly.eval(*p)
    # an expanded polynomial evaluates with a rounding error relative to
    # the sum of its monomials' magnitudes, not to its value
    x, y = p
    scale = sum(abs(c) * abs(x)**i * abs(y)**j for c, i, j in poly.terms)
    assert abs(got - want) <= 1e-9 * (1.0 + scale)


def test_poly_soundness_on_declared_hamiltonian():
    text = "0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2"
    e = parse_expr(text)
    poly = to_poly(e)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(-2, 2, size=2)
        want = eval_value(e, x, y)
        assert abs(poly.eval(x, y) - want) <= 1e-9 * (1.0 + abs(want))


def test_poly_calculus():
    p = to_poly(parse_expr("x^3*y + 2*y^2"))
    assert p.dx().terms == ((3.0, 2, 1),)
    assert p.dy().terms == ((4.0, 0, 1), (1.0, 3, 0))
    assert p.degree() == 4


def test_poly_arithmetic_roundtrip():
    a = to_poly(parse_expr("x^2 + y"))
    b = to_poly(parse_expr("x - y^3"))
    prod = a * b
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, size=2)
        assert abs(prod.eval(x, y) - a.eval(x, y) * b.eval(x, y)) <= 1e-10 * (
            1 + abs(a.eval(x, y) * b.eval(x, y)))


def test_poly_to_expr_round_trip():
    p = to_poly(parse_expr("0.5*x^6*y^2 - 3*x + 2"))
    q = to_poly(p.to_expr())
    assert q == p


def test_zero_poly_degree():
    assert Poly2.zero().degree() == -1
    assert Poly2.const(3.0).degree() == 0

"""Scalar expressions in two variables: parsing, printing, first-order jets.

The expression language is deliberately small: constants, the variables
``x`` and ``y``, unary ``neg/exp/sin/cos/sqrt`` and binary
``add/sub/mul/div/powi``.  ``powi`` only accepts a literal non-negative
integer exponent, so every expression is smooth wherever it is defined
and the forward-mode jet rules below stay total.

Every evaluation runs straight-line code from one generator
(:func:`_emit`), in one namespace per use: :func:`compile_jet_pair`
gives values and first partials of a map, :func:`compile_polys` values
only, for the equator scan, and :mod:`planarham.rk` inlines the body at
each stage of its DP5 kernels.  Over numpy arrays
(:func:`compile_array_jet`, :func:`compile_array_polys`) the code equals
the scalar code bit for bit, with a mask where that raises, for the
Newton seed grid and the declared-H check; run on floats with counting
functions (:func:`located_domain_error`) it names the subexpression
where the scalar code raised, as a :class:`DomainError`; over grids
(:func:`compile_grid`, run by :func:`eval_grid`) it calls numpy's
functions, ``nan`` where f leaves the real domain; over arrays of boxes
(:func:`compile_interval_jet`) it gives outward-rounded enclosures of
the values and partials for the det Df sign proof and the bounds of H
at infinity.

:meth:`Poly2.eval` remains for numpy arrays and as the reference that
:func:`compile_polys` matches float for float.

All nodes are frozen dataclasses with structural equality.  Their hash
recurses through the whole tree, so no compile route hashes one: the
cache of compiled code is keyed by the source text, which reads the
constants by name and so serves every map of one shape.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

OVERFLOW_LIMIT = 1e150
# what the generated jet code raises when evaluation leaves the domain
JET_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


class ParseError(ValueError):
    """Syntax error with a character position into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ArithmeticError):
    """Real evaluation failed (sqrt of a negative, division by zero, ...).

    Carries the offending subexpression, None for a failure of no single
    one (det Df = 0), and the evaluation point so that callers can report
    exactly what left the domain.
    """

    def __init__(self, message: str, subexpr: "Expr | None", point: tuple[float, float]):
        where = "" if subexpr is None else f" in '{print_expr(subexpr)}'"
        super().__init__(f"{message}{where} at {point}")
        self.subexpr = subexpr
        self.point = point


# ===== AST ===== #


@dataclass(frozen=True)
class Expr:
    def __str__(self) -> str:
        return print_expr(self)


@dataclass(frozen=True)
class Constant(Expr):
    value: float


@dataclass(frozen=True)
class Variable(Expr):
    name: str  # 'x' or 'y'


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    child: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


X = Variable("x")
Y = Variable("y")


def powi(base: Expr, n: int) -> Binary:
    if n < 0 or n != int(n):
        raise ValueError("powi exponent must be a non-negative integer")
    return Binary("powi", base, Constant(float(n)))


def powi_exponent(node: Binary) -> int:
    """Exponent of a powi node, validated to be a non-negative integer literal."""
    if not (isinstance(node.right, Constant) and node.right.value >= 0
            and float(node.right.value).is_integer()):
        raise ValueError(f"malformed powi exponent: {node.right!r}")
    return int(node.right.value)


# ===== Parser ===== #

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[()+\-*/^]))"
)

_FUNCS = {"exp", "sin", "cos", "sqrt"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str) -> None:
        kind, val, pos = self.peek()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}", pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Binary("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = Binary("mul" if val == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        negate = False
        if kind == "sym" and val == "-":
            self.advance()
            negate = True
        node = self.atom()
        kind, val, pos = self.peek()
        if kind == "sym" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", val):
                raise ParseError("exponent must be a non-negative integer literal", pos)
            self.advance()
            node = powi(node, int(val))
        if negate:
            if isinstance(node, Constant):
                node = Constant(-node.value)
            else:
                node = Unary("neg", node)
        return node

    def atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                # generated code could not name the constant either
                raise ParseError(f"numeric literal {val!r} is not a finite float", pos)
            return Constant(value)
        if kind == "ident":
            if val in ("x", "y"):
                return Variable(val)
            if val in _FUNCS:
                self.expect_sym("(")
                inner = self.expr()
                self.expect_sym(")")
                return Unary(val, inner)
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "sym" and val == "(":
            inner = self.expr()
            self.expect_sym(")")
            return inner
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse_expr(text: str) -> Expr:
    """Parse source text into an expression tree.

    Grammar (whitespace insignificant)::

        expr   := term (('+'|'-') term)*
        term   := factor (('*'|'/') factor)*
        factor := ['-'] atom ['^' INTEGER]
        atom   := NUMBER | 'x' | 'y' | FUNC '(' expr ')' | '(' expr ')'

    A leading minus on a numeric literal folds into the constant, so
    ``parse_expr(print_expr(e)) == e`` structurally for every tree this
    module can produce.
    """
    return _Parser(text).parse()


# ===== Printer ===== #

# precedence levels used for minimal parenthesisation
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 2  # a unary-minus factor binds like a term element
_PREC_POW = 3
_PREC_ATOM = 4


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        if e.op in ("add", "sub"):
            return _PREC_ADD
        if e.op in ("mul", "div"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Constant) and math.copysign(1.0, e.value) < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _fmt_const(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        # int() drops the sign of -0.0, which the jet keeps
        return "-0" if math.copysign(1.0, v) < 0 and v == 0 else str(int(v))
    return repr(float(v))


def _wrap(e: Expr, min_prec: int) -> str:
    s = print_expr(e)
    if _prec(e) < min_prec:
        return f"({s})"
    return s


def print_expr(e: Expr) -> str:
    """Canonical source form; reparsing reproduces the tree structurally."""
    if isinstance(e, Constant):
        return _fmt_const(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.child, _PREC_ATOM)
        return f"{e.op}({print_expr(e.child)})"
    if isinstance(e, Binary):
        if e.op == "add":
            return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
        if e.op == "sub":
            return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
        if e.op == "mul":
            return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
        if e.op == "div":
            return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
        if e.op == "powi":
            return f"{_wrap(e.left, _PREC_ATOM)}^{powi_exponent(e)}"
    raise TypeError(f"not an expression node: {e!r}")


# ===== Constant subexpressions ===== #


def nonfinite_constant(e: Expr) -> Expr | None:
    """The innermost subexpression free of x and y that does not evaluate
    to a finite number (``1e200*1e200``), or None.

    Such a subexpression has one value at every point, so one run of the
    array code of the composite ones (:func:`_array_function`, values
    only) decides them all: it is nan where the scalar code raises.  A
    literal is finite (the parser rejects others), so a tree without a
    composite one compiles nothing."""
    free: list[Expr] = []       # innermost first; varies() visits every kid

    def varies(node: Expr) -> bool:
        kids = ((node.child,) if isinstance(node, Unary) else
                (node.left, node.right) if isinstance(node, Binary) else ())
        if any([varies(k) for k in kids]) or isinstance(node, Variable):
            return True
        if kids:
            free.append(node)
        return False

    varies(e)
    del varies  # it calls itself: bound, it keeps the node list in a reference cycle
    if not free:
        return None
    values, _ = _array_function(tuple(free), values_only=True)(np.zeros(1), np.zeros(1))
    return next((node for node, v in zip(free, values) if not math.isfinite(v[0])), None)


# ===== Compiled jets ===== #


def _emit(exprs: tuple[Expr, ...], values_only: bool = False,
          inputs: tuple[str, str] = ("x", "y"), array: bool = False,
          sites: list[tuple[Expr, str]] | None = None,
          ) -> tuple[list[str], list[tuple[str, str, str]], dict[str, float]]:
    """Straight-line statements computing (value, dx, dy) of each tree.

    The statements read the variables from the names ``inputs`` and
    assign temporaries ``t0, t1, ...``, each once.  Returns the
    unindented statements, per tree the three operands that hold its
    value and partials, and the constants read by name: each, 0.0 and
    1.0 too, is ``_c0, _c1, ...``, one per ``repr`` (-0.0 has its own),
    so maps differing only in coefficients share a source, and ``0/x``
    raises at 0 and ``x + 0`` is +0.0 at -0.0, as the tree's arithmetic
    gives.

    A node object reached twice is emitted once (memoised by identity,
    without hashing the tree), and so is each distinct right-hand side
    (value numbering: every name is assigned once, so equal text means
    equal operands and equal bits), which also merges equal subtrees
    that are distinct objects.
    Derivative terms that are identically zero or one fold away at the
    string level, which keeps the generated code close to what one would
    write by hand.

    With ``values_only`` the variables carry zero derivatives, so every
    derivative line folds away.

    With ``array`` the statements run on numpy arrays (see
    :func:`_array_function`): each division is ``_div(a, b, _m)``, each
    integer power ``_pow(v, n, _m)``, and every call that can raise
    passes the mask ``_m`` last.  Nothing else changes, so the value
    numbering and the order of the operations are those of the scalar
    code.

    ``sites``, when given, gets one entry per call that can raise (exp,
    sin, cos, sqrt, a division or an integer power: one at most per
    statement), in the order the statements make them: the node and the
    :class:`DomainError` message that its failure means there.  Recording
    them changes no statement.
    """
    lines: list[str] = []
    memo: dict[int, tuple[str, str, str]] = {}       # id(node) -> operands
    numbered: dict[str, str] = {}
    names: dict[str, str] = {}      # repr -> operand
    x_name, y_name = inputs

    def call(fn: str, *args: str) -> str:
        return f"{fn}({', '.join(args)}{', _m' if array else ''})"

    def power(v: str, n: int) -> str:
        return call("_pow", v, str(n)) if array else f"{v}**{n}"

    def tmp(rhs: str, site: tuple[Expr, str] | None = None) -> str:
        name = numbered.get(rhs)
        if name is None:
            name = f"t{len(numbered)}"
            numbered[rhs] = name
            lines.append(f"{name} = {rhs}")
            if site is not None and sites is not None:
                sites.append(site)
        return name

    def add_s(a: str, b: str) -> str:
        if a == "0.0":
            return b
        if b == "0.0":
            return a
        return tmp(f"{a} + {b}")

    def sub_s(a: str, b: str) -> str:
        if b == "0.0":
            return a
        if a == "0.0":
            return neg_s(b)
        return tmp(f"{a} - {b}")

    def neg_s(a: str) -> str:
        if a == "0.0":
            return "0.0"
        return tmp(f"-{a}")

    def mul_s(a: str, b: str) -> str:
        if a == "0.0" or b == "0.0":
            return "0.0"
        if a == "1.0":
            return b
        if b == "1.0":
            return a
        return tmp(f"{a}*{b}")

    def div_s(a: str, b: str, site: tuple[Expr, str]) -> str:
        if a == "0.0":
            return "0.0"
        return tmp(call("_div", a, b) if array else f"{a}/{b}", site)

    def rec(node: Expr) -> tuple[str, str, str]:
        hit = memo.get(id(node))
        if hit is not None:
            return hit
        if isinstance(node, Constant):
            out = (names.setdefault(repr(float(node.value)), f"_c{len(names)}"), "0.0", "0.0")
        elif isinstance(node, Variable):
            name = x_name if node.name == "x" else y_name
            if values_only:
                out = (name, "0.0", "0.0")
            else:
                out = (name, "1.0", "0.0") if node.name == "x" else (name, "0.0", "1.0")
        elif isinstance(node, Unary):
            v, dx, dy = rec(node.child)
            if node.op == "neg":
                out = (neg_s(v), neg_s(dx), neg_s(dy))
            elif node.op == "exp":
                w = tmp(call("exp", v), (node, "exp overflow"))
                out = (w, mul_s(w, dx), mul_s(w, dy))
            elif node.op in ("sin", "cos"):
                site = (node, f"{node.op} of a non-finite value")
                w = tmp(call(node.op, v), site)
                if dx == "0.0" and dy == "0.0":
                    out = (w, "0.0", "0.0")
                elif node.op == "sin":
                    c = tmp(call("cos", v), site)
                    out = (w, mul_s(c, dx), mul_s(c, dy))
                else:
                    s = tmp(call("sin", v), site)
                    out = (w, neg_s(mul_s(s, dx)), neg_s(mul_s(s, dy)))
            elif node.op == "sqrt":
                w = tmp(call("sqrt", v), (node, "sqrt of a negative value"))
                if dx == "0.0" and dy == "0.0":
                    out = (w, "0.0", "0.0")
                else:
                    tw = tmp(f"2.0*{w}")
                    site = (node, "sqrt derivative singular at zero")
                    out = (w, div_s(dx, tw, site), div_s(dy, tw, site))
            else:
                raise TypeError(node.op)
        elif isinstance(node, Binary):
            if node.op == "powi":
                n = powi_exponent(node)
                v, dx, dy = rec(node.left)
                if n == 0:
                    out = ("1.0", "0.0", "0.0")
                elif n == 1:
                    out = (v, dx, dy)
                else:
                    site = (node, "power overflow")
                    w = tmp(power(v, n), site)
                    if dx == "0.0" and dy == "0.0":
                        out = (w, "0.0", "0.0")
                    else:
                        g = tmp(f"{float(n)!r}*{power(v, n - 1) if n > 2 else v}",
                                site if n > 2 else None)
                        out = (w, mul_s(g, dx), mul_s(g, dy))
            else:
                a, adx, ady = rec(node.left)
                b, bdx, bdy = rec(node.right)
                if node.op == "add":
                    out = (add_s(a, b), add_s(adx, bdx), add_s(ady, bdy))
                elif node.op == "sub":
                    out = (sub_s(a, b), sub_s(adx, bdx), sub_s(ady, bdy))
                elif node.op == "mul":
                    out = (mul_s(a, b), add_s(mul_s(a, bdx), mul_s(b, adx)),
                           add_s(mul_s(a, bdy), mul_s(b, ady)))
                elif node.op == "div":
                    site = (node, "division by zero")
                    w = div_s(a, b, site)
                    out = (w,
                           div_s(sub_s(adx, mul_s(w, bdx)), b, site),
                           div_s(sub_s(ady, mul_s(w, bdy)), b, site))
                else:
                    raise TypeError(node.op)
        else:
            raise TypeError(f"not an expression node: {node!r}")
        memo[id(node)] = out
        return out

    results = [rec(e) for e in exprs]
    del rec     # it calls itself: bound, it keeps this scratch state in a reference cycle
    return lines, results, {name: float(text) for text, name in names.items()}


def _codegen(exprs: tuple[Expr, ...], values_only: bool = False,
             array: bool = False, sites: list[tuple[Expr, str]] | None = None,
             ) -> tuple[str, dict[str, float]]:
    """Source of ``_generated(x, y)`` returning (value, dx, dy) of each
    tree in turn, or with ``values_only`` the tuple of values; with
    ``array`` it is ``_generated(x, y, _m)`` (:func:`_emit`, which also
    fills ``sites``), deleting each temporary after its last read.
    Returned with its constants."""
    lines, results, consts = _emit(exprs, values_only, array=array, sites=sites)
    if values_only:
        # trailing comma: a tuple even for a single tree
        ret = ", ".join(v for v, _, _ in results) + ","
    else:
        ret = ", ".join(", ".join(triple) for triple in results)
    if array:
        lines = _freeing(lines, ret)
    body = "".join(f"    {line}\n" for line in lines)
    params = "x, y, _m" if array else "x, y"
    return f"def _generated({params}):\n{body}    return {ret}\n", consts


def _freeing(lines: list[str], returned: str) -> list[str]:
    """``lines`` with a ``del`` of each temporary but those ``returned``
    after the line that reads it last, in the order of their numbers."""
    temporaries = re.compile(r"\bt\d+\b").findall
    seen, out = set(temporaries(returned)), []
    for line in reversed(lines):
        last = sorted(set(temporaries(line)) - seen, key=lambda t: int(t[1:]))
        seen.update(last)
        out += [f"del {', '.join(last)}", line] if last else [line]
    return out[::-1]


@lru_cache(maxsize=256)
def _compiled(src: str):
    return compile(src, "<planarham-codegen>", "exec")


def _compile_source(code: tuple[str, dict[str, float]], **names):
    """The function ``_generated`` defined by the source of ``code``,
    which sees the math functions of the expression language, the
    constants of ``code`` and ``names``.  The source is compiled once
    per text (a bounded cache); each call binds a fresh namespace."""
    src, consts = code
    namespace = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
                 **consts, **names}
    exec(_compiled(src), namespace)
    # popped: a function held by its own globals is a reference cycle,
    # which only the cyclic garbage collector would free
    return namespace.pop("_generated")


def compile_jet_pair(f1: Expr, f2: Expr):
    """Compiled ``(x, y) -> (v1, dx1, dy1, v2, dx2, dy2)``.

    The generated code raises the raw arithmetic exceptions
    (``ValueError``/``ZeroDivisionError``/``OverflowError``), at constants
    too (``0/x`` at 0); callers that need a located :class:`DomainError`,
    naming the failing node, ask :func:`located_domain_error`.
    ``cache_info`` reports the cache of compiled sources that every
    generated function shares."""
    return _compile_source(_codegen((f1, f2)))


compile_jet_pair.cache_info = _compiled.cache_info


def compile_array_jet(f1: Expr, f2: Expr):
    """The jet of :func:`compile_jet_pair` over arrays:
    ``(x, y) -> ((v1, dx1, dy1, v2, dx2, dy2), raised)`` for
    one-dimensional float arrays x and y of one length.

    Where ``raised`` is False every value equals, bit for bit, what the
    scalar jet returns at that point; ``raised`` is True exactly where
    the scalar jet raises.  See :func:`_array_function`.  Compiled once
    per source text; the map keeps it (:attr:`planarham.field.PlanarMap.array_jet`).
    """
    return _array_function((f1, f2))


def located_domain_error(f1: Expr, f2: Expr, point: tuple[float, float]
                         ) -> DomainError | None:
    """The :class:`DomainError` of the first call in the jet of (f1, f2)
    that raises at ``point``, or None where none does.

    Runs the array code of :func:`compile_array_jet` (the same code
    object) on the floats of ``point``, with the scalar functions of the
    jet, each of which counts its call in the list passed as the mask:
    so the calls fail where, and in the order that, the scalar jet's
    fail, and the count picks the site of the failing one (:func:`_emit`).
    """
    sites: list[tuple[Expr, str]] = []
    generated = _compile_source(_codegen((f1, f2), array=True, sites=sites), **_LOCATING_NAMES)
    calls: list[None] = []
    try:
        generated(*point, calls)
    except JET_ERRORS:
        node, message = sites[len(calls) - 1]
        return DomainError(message, node, point)
    return None


def _counted(fn):
    """``fn`` with the list passed last, as the mask, counting its calls."""
    def counted(*args):
        args[-1].append(None)
        return fn(*args[:-1])
    return counted


_LOCATING_NAMES = {"exp": _counted(math.exp), "sin": _counted(math.sin),
                   "cos": _counted(math.cos), "sqrt": _counted(math.sqrt),
                   "_div": _counted(operator.truediv), "_pow": _counted(pow)}


# ===== compiled jets over arrays ===== #


def _each(fn, a, m: np.ndarray, *args):
    """``fn(t, *args)`` for each element t of ``a``, taken as a Python
    float so that ``fn`` rounds as it does in the scalar code; nan where
    it raises, with that element set in the mask ``m``.  A scalar ``a``
    (a subexpression free of x and y) raises everywhere or nowhere."""
    if np.ndim(a) == 0:
        try:
            return fn(float(a), *args)
        except JET_ERRORS:
            m[:] = True
            return math.nan
    # a memoryview yields the elements as Python floats, without the list
    # that tolist() builds
    try:
        return np.fromiter(map(fn, memoryview(a), *(repeat(v) for v in args)), float, len(a))
    except JET_ERRORS:
        pass
    out = np.empty(len(a))
    for k, t in enumerate(memoryview(a)):
        try:
            out[k] = fn(t, *args)
        except JET_ERRORS:
            out[k] = math.nan
            m[k] = True
    return out


def _div(a, b, m: np.ndarray):
    """a / b, which raises in Python exactly where b == 0."""
    m |= b == 0.0
    return np.divide(a, b)


def _sqrt(a, m: np.ndarray):
    """sqrt(a): numpy's is correctly rounded, as is :func:`math.sqrt`,
    which raises exactly where a < 0."""
    m |= a < 0.0
    return np.sqrt(a)


# numpy's exp, sin, cos and power are not correctly rounded and differ
# from the math module's and from Python's ``**`` in the last bit on a
# few percent of inputs, so they are mapped element by element
_ARRAY_NAMES = {
    "exp": partial(_each, math.exp),
    "sin": partial(_each, math.sin),
    "cos": partial(_each, math.cos),
    "sqrt": _sqrt,
    "_div": _div,
    "_pow": lambda v, n, m: _each(pow, v, m, n),
}


def _array_function(exprs: tuple[Expr, ...], values_only: bool = False):
    """The straight-line code of :func:`_codegen` over arrays:
    ``(x, y) -> (outputs, raised)``.

    ``+``, ``-`` and ``*`` are IEEE operations in numpy as in Python, and
    never raise; division and the square root are numpy's with a mask
    of the elements where Python raises; exp, sin, cos and ``**`` call
    the scalar functions per element.  So every output element equals
    the scalar code's, and ``raised`` is set exactly where the scalar
    code raises (there the outputs hold anything).  An output free of x
    and y is filled out to the length of x.
    """
    generated = _compile_source(_codegen(exprs, values_only, array=True), **_ARRAY_NAMES)

    def evaluate(x: np.ndarray, y: np.ndarray):
        raised = np.zeros(len(x), dtype=bool)
        with np.errstate(all="ignore"):
            out = generated(x, y, raised)
        return tuple(v if np.ndim(v) else np.full(len(x), v) for v in out), raised

    return evaluate


# ===== grids ===== #

# numpy's functions, nan off the domain; a float's ``**`` runs as an array's does
_GRID_NAMES = {
    "exp": lambda a, m: np.exp(a),
    "sin": lambda a, m: np.sin(a),
    "cos": lambda a, m: np.cos(a),
    "sqrt": lambda a, m: np.where(a < 0, np.nan, np.sqrt(np.maximum(a, 0.0))),
    "_div": lambda a, b, m: np.where(b == 0, np.nan, a / np.where(b == 0, 1.0, b)),
    "_pow": lambda v, n, m: np.asarray(v, float) ** n,
}


def compile_grid(f1: Expr, f2: Expr):
    """f1 and f2 as generated code over numpy grids, for :func:`eval_grid`;
    the map keeps it (:attr:`planarham.field.PlanarMap.grid`)."""
    return _compile_source(_codegen((f1, f2), True, array=True), **_GRID_NAMES)


def eval_grid(grid, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """f1 and f2 as new arrays of the broadcast shape of xs and ys, by the
    code ``grid`` of :func:`compile_grid`; ``nan`` where f is undefined."""
    shape = np.broadcast_shapes(np.shape(xs), np.shape(ys))
    # copied only where broadcast, so that every call runs on contiguous arrays
    x, y = (np.ascontiguousarray(np.broadcast_to(a, shape), dtype=float) for a in (xs, ys))
    with np.errstate(all="ignore"):
        out = grid(x, y, None)
    f1, f2 = (v if np.ndim(v) and v is not x and v is not y
              else np.array(np.broadcast_to(v, shape)) for v in out)
    return f1, (f2.copy() if f2 is f1 else f2)


# ===== interval jets over boxes ===== #

# Bounds of numpy's exp and pow move outward by this many ULPs: they are
# not correctly rounded (numpy dispatches SIMD kernels, AVX-512 ones on
# hosts that have it).  sin and cos move by an absolute slack of as many
# ULPs of 1, as their values lie in [-1, 1].
_ULPS = 4
_CIRCULAR_SLACK = _ULPS * 2.0 ** -52
_CIRCULAR_REACH = 2.0 ** 20     # beyond this |argument| sin and cos give [-1, 1]

Interval = tuple[np.ndarray, np.ndarray]


_MAGNITUDE = np.int64(2 ** 63 - 1)             # all bits but the sign bit
_INF_BITS = np.float64(np.inf).view(np.int64)
_QUIET = np.int64(1 << 51)                      # a nan's quiet bit


def _outward(lo: np.ndarray, hi: np.ndarray, ulps: int = 1) -> Interval:
    """[lo, hi] widened by ``ulps`` floats at each end: one
    ``np.nextafter`` call per bound for one float, else one
    :func:`_ulp_step`, whose dozen integer ufuncs cost less than several
    nextafter calls but more than one on the boxes of a sign check."""
    if ulps == 1:
        return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return _ulp_step(lo, -ulps), _ulp_step(hi, ulps)


def _ulp_step(x: np.ndarray, k: int) -> np.ndarray:
    """x moved k floats up (down for k < 0), bit for bit as |k| calls of
    ``np.nextafter`` towards +-inf move it, in one pass.

    On the line of integer keys, a float's bit pattern less its sign
    bit, negated when that is set, the floats keep their order, -0 and
    +0 share the key 0 and +-inf sit at +-INF_BITS.  A step adds k to
    the key and stops at +-inf; a key landing on 0 is -0 from below and
    +0 from above, as nextafter steps over zero.  nan keeps its bits,
    quietened as nextafter quietens it.
    """
    bits = np.asarray(x, dtype=np.float64).view(np.int64)
    mag = bits & _MAGNITUDE
    wild = mag.max(initial=0) > _INF_BITS - abs(k)     # nan, or inf within k floats
    if wild:
        nan = mag > _INF_BITS
        mag = np.where(nan, 0, mag)
    sign = bits >> 63                                   # -1 where the sign bit is set
    key = (mag ^ sign) - sign + k
    if wild:
        key = np.clip(key, -_INF_BITS, _INF_BITS)
    back = (key - 1 if k > 0 else key) >> 63            # -1 where it is set again
    out = (key + back) ^ (back & _MAGNITUDE)
    if wild:
        out = np.where(nan, bits | _QUIET, out)
    return out.view(np.float64)


def _interval_add(a: Interval, b: Interval) -> Interval:
    return _outward(a[0] + b[0], a[1] + b[1])


def interval_sub(a: Interval, b: Interval) -> Interval:
    """An enclosure of ``a - b`` for intervals ``(lo, hi)`` of arrays."""
    return _outward(a[0] - b[1], a[1] - b[0])


def interval_mul(a: Interval, b: Interval) -> Interval:
    """An enclosure of ``a * b`` for intervals ``(lo, hi)`` of arrays;
    ``nan`` where a bound is ``0 * inf``."""
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _outward(np.minimum.reduce(p), np.maximum.reduce(p))


def _interval_div(a: Interval, b: Interval) -> Interval:
    """``a / b`` where b excludes 0; the caller marks the rest undefined."""
    q = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return _outward(np.minimum.reduce(q), np.maximum.reduce(q))


def _interval_pow(a: Interval, n: int) -> Interval:
    """``a ** n`` for an integer n >= 1."""
    lo, hi = a[0] ** n, a[1] ** n
    if n % 2:
        return _outward(lo, hi, _ULPS)
    low = np.where((a[0] <= 0) & (a[1] >= 0), 0.0, np.minimum(lo, hi))
    low, high = _outward(low, np.maximum(lo, hi), _ULPS)
    return np.maximum(low, 0.0), high


def _crosses(a: Interval, phase: float) -> np.ndarray:
    """Whether ``phase + 2 k pi`` lies in a, for some integer k; true
    also a hair outside, where rounding could hide it."""
    turns = 2.0 * math.pi
    return (np.floor((a[1] - phase) / turns + 1e-9)
            >= np.ceil((a[0] - phase) / turns - 1e-9))


def _interval_circular(fn, a: Interval, peak: float) -> Interval:
    """An enclosure of ``fn`` (``np.sin`` or ``np.cos``, whose maxima
    lie at ``peak + 2 k pi`` and minima half a turn on) over a."""
    at_lo, at_hi = fn(a[0]), fn(a[1])
    lo = np.maximum(np.minimum(at_lo, at_hi) - _CIRCULAR_SLACK, -1.0)
    hi = np.minimum(np.maximum(at_lo, at_hi) + _CIRCULAR_SLACK, 1.0)
    # also on nan and inf bounds, which the caller marks undefined
    whole = ~((np.abs(a[0]) <= _CIRCULAR_REACH) & (np.abs(a[1]) <= _CIRCULAR_REACH)
              & (a[1] - a[0] < 2.0 * math.pi))
    return (np.where(whole | _crosses(a, peak + math.pi), -1.0, lo),
            np.where(whole | _crosses(a, peak), 1.0, hi))


def _pair(a) -> Interval:
    """The bounds of an operand of the generated code: an interval, or a
    float (a literal, or a subexpression free of x and y) as a point of
    numpy floats, whose ``**`` overflows to inf where Python's raises."""
    if isinstance(a, _Interval):
        return a
    a = np.float64(a)
    return a, a


def _finite(a, m: np.ndarray) -> Interval:
    """The bounds of ``a``, with ``m`` set where one is not finite: +, -,
    * and integer powers carry such a bound on to the outputs, the calls
    that take the mask can lose it."""
    lo, hi = _pair(a)
    m |= np.logical_not(np.isfinite(lo) & np.isfinite(hi))
    return lo, hi


class _Interval(tuple):
    """An interval (lo, hi) of arrays as an operand of the generated jet
    code: ``+``, ``-`` and ``*``, with an interval or a float, call the
    helpers of interval arithmetic, each rounded outward; unary ``-`` is
    exact."""

    __slots__ = ()

    def __add__(self, other):
        return _Interval(_interval_add(self, _pair(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return _Interval(interval_sub(self, _pair(other)))

    def __rsub__(self, other):
        return _Interval(interval_sub(_pair(other), self))

    def __mul__(self, other):
        return _Interval(interval_mul(self, _pair(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return _Interval((-self[1], -self[0]))


def _interval_exp(a, m: np.ndarray) -> _Interval:
    lo, hi = _finite(a, m)
    lo, hi = _outward(np.exp(lo), np.exp(hi), _ULPS)
    return _Interval((np.maximum(lo, 0.0), hi))


def _interval_sqrt(a, m: np.ndarray) -> _Interval:
    lo, hi = _pair(a)
    m |= np.logical_not(lo > 0.0)           # at 0 the derivative blows up
    return _Interval(_outward(np.sqrt(np.maximum(lo, 0.0)), np.sqrt(np.maximum(hi, 0.0))))


def _interval_quotient(a, b, m: np.ndarray) -> _Interval:
    a, b = _finite(a, m), _finite(b, m)
    m |= np.logical_not((b[0] > 0.0) | (b[1] < 0.0))
    return _Interval(_interval_div(a, b))


_INTERVAL_NAMES = {
    "exp": _interval_exp,
    "sin": lambda a, m: _Interval(_interval_circular(np.sin, _finite(a, m), 0.5 * math.pi)),
    "cos": lambda a, m: _Interval(_interval_circular(np.cos, _finite(a, m), 0.0)),
    "sqrt": _interval_sqrt,
    "_div": _interval_quotient,
    "_pow": lambda v, n, m: _Interval(_interval_pow(_pair(v), n)),
}


def compile_interval_jet(f1: Expr, f2: Expr, values_only: bool = False):
    """The jet of :func:`compile_array_jet` over boxes:
    ``(xlo, xhi, ylo, yhi) -> (lo, hi, undefined)`` for bounds of
    one shape (broadcast together).

    ``lo`` and ``hi`` stack the lower and upper bounds of v1, dx1, dy1,
    v2, dx2, dy2 (with ``values_only``, of v1 and v2) along a new first
    axis, so that at every point of a box where the compiled jet does not
    raise and ``undefined`` is clear, its values lie in ``[lo[k],
    hi[k]]``.  The generated array code runs with every operand an
    interval (Moore-Kearfott-Cloud, *Introduction to Interval Analysis*,
    SIAM 2009), each operation rounded outward; only ``+``, ``-`` and
    ``*`` between two floats (within a subexpression free of x and y, or
    of constant partials) round to nearest, as in the scalar jet.
    ``undefined`` marks the boxes where sqrt or a divisor meets an
    interval holding 0, or a bound that reaches a call or an output is
    not finite; their bounds mean nothing.  Compiled once per source
    text; the map keeps it (:attr:`planarham.field.PlanarMap.interval_jet`).
    """
    generated = _compile_source(_codegen((f1, f2), values_only, array=True),
                                **_INTERVAL_NAMES)

    def evaluate(xlo, xhi, ylo, yhi):
        xlo, xhi, ylo, yhi = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                                   for v in (xlo, xhi, ylo, yhi)))
        undefined = np.zeros(xlo.shape, dtype=bool)
        with np.errstate(all="ignore"):
            out = generated(_Interval((xlo, xhi)), _Interval((ylo, yhi)), undefined)
            lo, hi = np.empty((2, len(out)) + xlo.shape)
            for k, v in enumerate(out):
                lo[k], hi[k] = _pair(v)          # a float fills out the box's shape
            undefined |= ~(np.isfinite(lo) & np.isfinite(hi)).all(axis=0)
        return lo, hi, undefined

    return evaluate


# ===== Polynomials ===== #


@dataclass(frozen=True)
class Poly2:
    """Bivariate polynomial in canonical form.

    ``terms`` is a tuple of ``(coeff, i, j)`` for monomials ``x^i y^j``,
    sorted by ``(i, j)`` with zero coefficients dropped, so structural
    equality is decidable and hashing works.
    """

    terms: tuple[tuple[float, int, int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], float]) -> "Poly2":
        items = tuple(sorted(((float(c), i, j) for (i, j), c in d.items() if c != 0.0),
                             key=lambda t: (t[1], t[2])))
        return Poly2(items)

    @staticmethod
    def zero() -> "Poly2":
        return Poly2(())

    @staticmethod
    def const(c: float) -> "Poly2":
        return Poly2.from_dict({(0, 0): c})

    def as_dict(self) -> dict[tuple[int, int], float]:
        return {(i, j): c for c, i, j in self.terms}

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j for _, i, j in self.terms)

    def top_form(self) -> "Poly2":
        d = self.degree()
        return Poly2.from_dict({(i, j): c for c, i, j in self.terms if i + j == d})

    def __add__(self, other: "Poly2") -> "Poly2":
        d = self.as_dict()
        for c, i, j in other.terms:
            d[(i, j)] = d.get((i, j), 0.0) + c
        return Poly2.from_dict(d)

    def __sub__(self, other: "Poly2") -> "Poly2":
        d = self.as_dict()
        for c, i, j in other.terms:
            d[(i, j)] = d.get((i, j), 0.0) - c
        return Poly2.from_dict(d)

    def __neg__(self) -> "Poly2":
        return Poly2(tuple((-c, i, j) for c, i, j in self.terms))

    def __mul__(self, other: "Poly2") -> "Poly2":
        d: dict[tuple[int, int], float] = {}
        for c1, i1, j1 in self.terms:
            for c2, i2, j2 in other.terms:
                key = (i1 + i2, j1 + j2)
                d[key] = d.get(key, 0.0) + c1 * c2
        return Poly2.from_dict(d)

    def scale(self, a: float) -> "Poly2":
        return Poly2.from_dict({(i, j): a * c for c, i, j in self.terms})

    def pow_int(self, n: int) -> "Poly2":
        if n < 0:
            raise ValueError("negative exponent")
        out = Poly2.const(1.0)
        for _ in range(n):
            out = out * self
        return out

    def dx(self) -> "Poly2":
        return Poly2.from_dict({(i - 1, j): c * i for c, i, j in self.terms if i > 0})

    def dy(self) -> "Poly2":
        return Poly2.from_dict({(i, j - 1): c * j for c, i, j in self.terms if j > 0})

    def eval(self, x, y):
        """Evaluate at scalars or numpy arrays."""
        out = 0.0
        for c, i, j in self.terms:
            out = out + c * x ** i * y ** j
        return out

    def to_expr(self) -> Expr:
        """Expression tree with the same canonical term order."""
        node: Expr | None = None
        for c, i, j in self.terms:
            mono: Expr = Constant(c)
            if i:
                mono = Binary("mul", mono, powi(X, i) if i > 1 else X)
            if j:
                mono = Binary("mul", mono, powi(Y, j) if j > 1 else Y)
            node = mono if node is None else Binary("add", node, mono)
        return node if node is not None else Constant(0.0)


def compile_polys(*polys: Poly2):
    """Compiled ``(x, y) -> (p1(x, y), ..., pn(x, y))``, values only.

    The generated code does the float operations of :meth:`Poly2.eval`
    in the same order: terms in canonical order summed left to right,
    each ``c * x**i * y**j`` with ``x**1`` and ``x**0`` folded exactly
    and each power computed once.  So the values are equal, except
    that an all-zero sum may differ in its sign (eval starts from
    ``0.0``), and ``**`` raises ``OverflowError`` in both.  Its code is
    compiled once per source text, so polynomials of one shape share
    it; keep the function for the run.
    """
    return _compile_source(_codegen(tuple(p.to_expr() for p in polys),
                                    values_only=True))


def compile_array_polys(*polys: Poly2):
    """:func:`compile_polys` over arrays: ``(x, y) -> ((p1, ..., pn),
    raised)``, each value equal to the scalar code's where ``raised`` is
    False (see :func:`_array_function`)."""
    return _array_function(tuple(p.to_expr() for p in polys), values_only=True)


# to_poly expands no tree whose degree bound passes this; pinchuk200's f2
# has degree 25, and two components of degree 32 load in a fifth of a second
MAX_POLY_DEGREE = 32


def poly_degree_bound(e: Expr) -> int | None:
    """An upper bound of the total degree of the polynomial form of
    ``e``, read off the tree without expanding it, or None for a tree
    with a division or a transcendental call.  A power counts at least
    its exponent, as many products as its expansion takes, even on a
    constant."""
    if isinstance(e, Constant):
        return 0
    if isinstance(e, Variable):
        return 1
    if isinstance(e, Unary):
        return poly_degree_bound(e.child) if e.op == "neg" else None
    if isinstance(e, Binary):
        if e.op == "div" or (a := poly_degree_bound(e.left)) is None:
            return None
        if e.op == "powi":
            return max(a, 1) * powi_exponent(e)
        if (b := poly_degree_bound(e.right)) is None:
            return None
        return a + b if e.op == "mul" else max(a, b)
    raise TypeError(f"not an expression node: {e!r}")


def to_poly(e: Expr) -> Poly2 | None:
    """Exact polynomial form, or ``None`` for trees that are not
    structurally polynomial (division and the transcendental unaries make
    it fail; no symbolic simplification is attempted) and for those whose
    :func:`poly_degree_bound` passes :data:`MAX_POLY_DEGREE`; neither is
    expanded."""
    bound = poly_degree_bound(e)
    return None if bound is None or bound > MAX_POLY_DEGREE else _expand(e)


def _expand(e: Expr) -> Poly2:
    """The polynomial form of a tree of constants, x, y, neg, add, sub,
    mul and powi."""
    if isinstance(e, Constant):
        return Poly2.const(e.value)
    if isinstance(e, Variable):
        return Poly2.from_dict({(1, 0) if e.name == "x" else (0, 1): 1.0})
    if isinstance(e, Unary):
        return -_expand(e.child)
    if e.op == "powi":
        return _expand(e.left).pow_int(powi_exponent(e))
    a, b = _expand(e.left), _expand(e.right)
    return a + b if e.op == "add" else a - b if e.op == "sub" else a * b

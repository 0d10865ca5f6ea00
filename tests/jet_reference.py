"""The recursive jet interpreter, kept as the reference that the
generated jet code of :mod:`planarham.expr` and its located domain
errors are tested against."""

import math
from dataclasses import dataclass

from planarham.expr import Binary, Constant, DomainError, Expr, Unary, Variable, powi_exponent


@dataclass(frozen=True)
class Jet1:
    """Value and first partials of a scalar at a point."""

    value: float
    dx: float
    dy: float


def eval_jet(e: Expr, point: tuple[float, float]) -> Jet1:
    """Value and exact first partials at ``point`` by forward-mode rules.

    Raises :class:`DomainError` identifying the subexpression that first
    left the real domain.  No finite differences anywhere.
    """
    x, y = point

    def rec(node: Expr) -> tuple[float, float, float]:
        if isinstance(node, Constant):
            return node.value, 0.0, 0.0
        if isinstance(node, Variable):
            return (x, 1.0, 0.0) if node.name == "x" else (y, 0.0, 1.0)
        if isinstance(node, Unary):
            v, dx, dy = rec(node.child)
            if node.op == "neg":
                return -v, -dx, -dy
            if node.op == "exp":
                try:
                    w = math.exp(v)
                except OverflowError:
                    raise DomainError("exp overflow", node, point) from None
                return w, w * dx, w * dy
            if node.op in ("sin", "cos"):
                # upstream arithmetic can overflow to inf silently; the
                # circular functions are where that surfaces as a bare
                # ValueError, so flag it as the domain failure it is
                if not math.isfinite(v):
                    raise DomainError(f"{node.op} of a non-finite value",
                                      node, point)
                s, c = math.sin(v), math.cos(v)
                if node.op == "sin":
                    return s, c * dx, c * dy
                return c, -s * dx, -s * dy
            if node.op == "sqrt":
                if v < 0:
                    raise DomainError("sqrt of a negative value", node, point)
                w = math.sqrt(v)
                if w == 0.0 and (dx != 0.0 or dy != 0.0):
                    raise DomainError("sqrt derivative singular at zero", node, point)
                ddx = dx / (2.0 * w) if dx != 0.0 else 0.0
                ddy = dy / (2.0 * w) if dy != 0.0 else 0.0
                return w, ddx, ddy
        if isinstance(node, Binary):
            if node.op == "powi":
                n = powi_exponent(node)
                v, dx, dy = rec(node.left)
                if n == 0:
                    return 1.0, 0.0, 0.0
                w = v ** n
                g = n * v ** (n - 1)
                return w, g * dx, g * dy
            a, adx, ady = rec(node.left)
            b, bdx, bdy = rec(node.right)
            if node.op == "add":
                return a + b, adx + bdx, ady + bdy
            if node.op == "sub":
                return a - b, adx - bdx, ady - bdy
            if node.op == "mul":
                return a * b, a * bdx + b * adx, a * bdy + b * ady
            if node.op == "div":
                if b == 0.0:
                    raise DomainError("division by zero", node, point)
                w = a / b
                return w, (adx - w * bdx) / b, (ady - w * bdy) / b
        raise TypeError(f"not an expression node: {node!r}")

    try:
        v, dx, dy = rec(e)
    finally:
        del rec     # it calls itself: bound, it keeps the point in a reference cycle
    return Jet1(v, dx, dy)


def walk_located_error(f1: Expr, f2: Expr, point: tuple[float, float]) -> DomainError | None:
    """The error :func:`eval_jet` raises on f1, else on f2, at ``point``;
    a tree whose walk overflows in a power is passed over."""
    for tree in (f1, f2):
        try:
            eval_jet(tree, point)
        except DomainError as err:
            return err
        except OverflowError:
            continue
    return None


def walk_nonfinite_constant(e: Expr) -> Expr | None:
    """The first subexpression free of x and y, innermost first, whose
    walk at the origin raises or gives a value that is not finite."""
    free: list[Expr] = []

    def varies(node: Expr) -> bool:
        kids = ((node.child,) if isinstance(node, Unary) else
                (node.left, node.right) if isinstance(node, Binary) else ())
        if any([varies(k) for k in kids]) or isinstance(node, Variable):
            return True
        free.append(node)
        return False

    varies(e)
    for node in free:
        try:
            if not math.isfinite(eval_jet(node, (0.0, 0.0)).value):
                return node
        except (DomainError, OverflowError):
            return node
    return None

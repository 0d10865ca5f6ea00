"""The recursive numpy interpreter, kept as the reference that the
generated grid code of :func:`planarham.expr.eval_grid` is tested
against."""

import numpy as np

from planarham.expr import Binary, Constant, Unary, Variable, powi_exponent


def eval_grid_reference(e, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Values of ``e`` on the arrays xs and ys broadcast together, each
    node a full array of the broadcast shape; ``nan`` where evaluation
    leaves the domain (sqrt of a negative, division by zero)."""
    shape = np.broadcast(xs, ys).shape

    def rec(node):
        if isinstance(node, Constant):
            return np.full(shape, node.value)
        if isinstance(node, Variable):
            arr = xs if node.name == "x" else ys
            return np.broadcast_to(arr, shape).astype(float)
        if isinstance(node, Unary):
            v = rec(node.child)
            if node.op == "neg":
                return -v
            if node.op == "exp":
                return np.exp(v)
            if node.op == "sin":
                return np.sin(v)
            if node.op == "cos":
                return np.cos(v)
            if node.op == "sqrt":
                return np.where(v < 0, np.nan, np.sqrt(np.maximum(v, 0.0)))
        if isinstance(node, Binary):
            if node.op == "powi":
                return rec(node.left) ** powi_exponent(node)
            a, b = rec(node.left), rec(node.right)
            if node.op == "add":
                return a + b
            if node.op == "sub":
                return a - b
            if node.op == "mul":
                return a * b
            if node.op == "div":
                return np.where(b == 0, np.nan, a / np.where(b == 0, 1.0, b))
        raise TypeError(f"not an expression node: {node!r}")

    with np.errstate(all="ignore"):
        out = rec(e)
    del rec     # it calls itself: bound, it keeps xs and ys in a reference cycle
    return np.asarray(out, dtype=float)

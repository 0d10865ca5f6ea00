"""The recursive interval interpreter, kept as the reference that the
compiled enclosures of :func:`planarham.expr.compile_interval_jet` are
tested against."""

import math

import numpy as np

from planarham.expr import (
    _ULPS,
    Binary,
    Constant,
    Unary,
    Variable,
    _interval_add,
    _interval_circular,
    _interval_div,
    _interval_pow,
    _outward,
    interval_mul,
    interval_sub,
    powi_exponent,
)

def eval_interval_jet(e, xlo, xhi, ylo, yhi
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Enclosures of the value and first partials of ``e`` over the boxes
    ``[xlo, xhi] x [ylo, yhi]`` (arrays of one shape).

    Returns ``(lo, hi, undefined)``: ``lo`` and ``hi`` stack the lower
    and upper bounds of the value, d/dx and d/dy along a new first axis,
    so that at every point of a box where ``e`` is defined, the
    value and partials that ``jet_reference.eval_jet`` computes lie in
    ``[lo[k], hi[k]]``.  The forward-mode rules are those of that
    walk, each operation rounded outward.  ``undefined``
    marks the boxes where sqrt or a divisor meets an interval containing
    0, or some intermediate bound is not finite; their bounds mean
    nothing.  (Moore-Kearfott-Cloud, *Introduction to Interval
    Analysis*, SIAM 2009.)
    """
    xlo, xhi, ylo, yhi = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                               for v in (xlo, xhi, ylo, yhi)))
    zero = np.zeros(xlo.shape)
    one = np.ones(xlo.shape)
    undefined = np.zeros(xlo.shape, dtype=bool)

    def rec(node):
        nonlocal undefined
        out = step(node)
        for lo, hi in out:
            undefined = undefined | ~np.isfinite(lo) | ~np.isfinite(hi)
        return out

    def step(node):
        nonlocal undefined
        if isinstance(node, Constant):
            c = np.full(xlo.shape, node.value)
            return (c, c), (zero, zero), (zero, zero)
        if isinstance(node, Variable):
            if node.name == "x":
                return (xlo, xhi), (one, one), (zero, zero)
            return (ylo, yhi), (zero, zero), (one, one)
        if isinstance(node, Unary):
            v, dx, dy = rec(node.child)
            if node.op == "neg":
                return tuple((-hi, -lo) for lo, hi in (v, dx, dy))
            if node.op == "exp":
                lo, hi = _outward(np.exp(v[0]), np.exp(v[1]), _ULPS)
                w = (np.maximum(lo, 0.0), hi)
                return w, interval_mul(w, dx), interval_mul(w, dy)
            if node.op in ("sin", "cos"):
                s = _interval_circular(np.sin, v, 0.5 * math.pi)
                c = _interval_circular(np.cos, v, 0.0)
                if node.op == "sin":
                    return s, interval_mul(c, dx), interval_mul(c, dy)
                ms = (-s[1], -s[0])
                return c, interval_mul(ms, dx), interval_mul(ms, dy)
            if node.op == "sqrt":
                undefined = undefined | ~(v[0] > 0)
                w = _outward(np.sqrt(np.maximum(v[0], 0.0)), np.sqrt(np.maximum(v[1], 0.0)))
                tw = (2.0 * w[0], 2.0 * w[1])          # exact
                return w, _interval_div(dx, tw), _interval_div(dy, tw)
        if isinstance(node, Binary):
            if node.op == "powi":
                n = powi_exponent(node)
                v, dx, dy = rec(node.left)
                if n == 0:
                    return (one, one), (zero, zero), (zero, zero)
                if n == 1:
                    return v, dx, dy
                g = _interval_pow(v, n - 1) if n > 2 else v
                g = _outward(n * g[0], n * g[1])
                return _interval_pow(v, n), interval_mul(g, dx), interval_mul(g, dy)
            a, adx, ady = rec(node.left)
            b, bdx, bdy = rec(node.right)
            if node.op == "add":
                return _interval_add(a, b), _interval_add(adx, bdx), _interval_add(ady, bdy)
            if node.op == "sub":
                return interval_sub(a, b), interval_sub(adx, bdx), interval_sub(ady, bdy)
            if node.op == "mul":
                return (interval_mul(a, b),
                        _interval_add(interval_mul(a, bdx), interval_mul(b, adx)),
                        _interval_add(interval_mul(a, bdy), interval_mul(b, ady)))
            if node.op == "div":
                undefined = undefined | ~((b[0] > 0) | (b[1] < 0))
                w = _interval_div(a, b)
                return (w, _interval_div(interval_sub(adx, interval_mul(w, bdx)), b),
                        _interval_div(interval_sub(ady, interval_mul(w, bdy)), b))
        raise TypeError(f"not an expression node: {node!r}")

    with np.errstate(all="ignore"):
        (vlo, vhi), (dxlo, dxhi), (dylo, dyhi) = rec(e)
    return np.stack([vlo, dxlo, dylo]), np.stack([vhi, dxhi, dyhi]), undefined

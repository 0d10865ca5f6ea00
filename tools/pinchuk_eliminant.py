#!/usr/bin/env python3
"""Derive the Pinchuk eliminant table of ``planarham.corpus`` with sympy.

    python3 tools/pinchuk_eliminant.py            # check corpus._ELIMINANT
    python3 tools/pinchuk_eliminant.py --print    # print the table as source

Eliminates y from (p - u, q - v), with the Pinchuk map's q unshifted, as
the resultant in y, divides out the lowest power of x (x^54) and reads
off the sextic S(x; u, v) = sum_k A_k(u, v) x^k.  Without ``--print`` it
compares every A_k with the table in ``src/planarham/corpus.py`` and
exits 1 on a mismatch.  Needs sympy; the resultant takes a few
seconds.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import sympy as sp

ROOT = Path(__file__).resolve().parent.parent


def eliminant() -> list[list[tuple[int, int, int, int]]]:
    """[A_0, ..., A_6], each a list of (i, j, num, den) for (num/den) u^i v^j."""
    x, y, u, v = sp.symbols("x y u v")
    t = x * y - 1
    xi = x * t + 1
    h = t * xi
    f = xi**2 * (t**2 + y)
    p = sp.expand(f + h)
    q = sp.expand(-t**2 - 6 * t * h * (h + 1) - 170 * f * h - 91 * h**2
                  - 195 * f * h**2 - 69 * h**3 - 75 * f * h**3
                  - sp.Rational(75, 4) * h**4)
    res = sp.resultant(sp.Poly(p - u, y, domain="QQ[x,u,v]"),
                       sp.Poly(q - v, y, domain="QQ[x,u,v]"))
    terms = sp.Poly(sp.expand(res), x, u, v, domain="QQ").terms()
    kmin = min(kx for (kx, _, _), _ in terms)
    table: dict[int, list[tuple[int, int, int, int]]] = {}
    for (kx, ku, kv), c in terms:
        c = sp.Rational(c)
        table.setdefault(kx - kmin, []).append((ku, kv, int(c.p), int(c.q)))
    return [sorted(table.get(k, []), reverse=True) for k in range(max(table) + 1)]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--print", action="store_true", help="print the table as source")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    table = eliminant()
    print(f"resultant and table in {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    if args.print:
        print("_ELIMINANT = (")
        for k, mons in enumerate(table):
            print(f"    # A_{k}")
            print(f"    ({', '.join(map(str, mons))}),")
        print(")")
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    from planarham.corpus import _ELIMINANT

    bad = [k for k in range(max(len(table), len(_ELIMINANT)))
           if k >= len(table) or k >= len(_ELIMINANT)
           or sorted(table[k], reverse=True) != sorted(_ELIMINANT[k], reverse=True)]
    for k in bad:
        print(f"A_{k} differs from corpus._ELIMINANT", file=sys.stderr)
    if not bad:
        print(f"corpus._ELIMINANT matches the resultant (A_0 .. A_{len(table) - 1})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import math

from planarham.compactify import (_integrate_fate, _seed_fate,
                                  compactification_for_map,
                                  infinite_singularities)
from planarham.corpus import builtin
from planarham.expr import compile_polys

cf = compactification_for_map(builtin("example2"))
s = [z for z in infinite_singularities(cf) if z.theta > 1.0][0]
field = compile_polys(*cf.chart(s.chart))
r = 0.05
for side in (1.0, -1.0):
    for k in range(16):
        ang = math.radians(10.0 + 160.0 * k / 15)
        seed = (s.u + r * math.cos(ang), side * r * math.sin(ang))
        fate = _seed_fate(field, seed, s.u, r, 4000)
        if fate != "sweep":
            fw = _integrate_fate(field, seed, s.u, r, 1.0, 4000)
            bw = _integrate_fate(field, seed, s.u, r, -1.0, 4000)
            print(f"side={side:+.0f} ang={math.degrees(ang):6.1f} "
                  f"seed=({seed[0]:+.4f},{seed[1]:+.4f}) fate={fate} "
                  f"fw={fw} bw={bw}")

"""Diagnose step rejection thrash on the huge h=19000 orbit."""
import math

from planarham.corpus import builtin
from planarham.field import Box, PlanarMap
from planarham.rk import dp5_step, error_norm, step_factor
from planarham.trace import (MAX_DPHI, MAX_DTHETA, _Flow, _Section, _wrap_pi,
                             level_start_point)

Z2 = (-0.22922839788848523, -16.99370700917979)
base = builtin("pinchuk200", enable_extended=True)
huge = PlanarMap(f1=base.f1, f2=base.f2, name="pinchuk-huge",
                 domain=Box(-1e14, 1e14, -1e14, 1e14))

h_level = 19000.0
start = level_start_point(huge, Z2, h_level)
flow = _Flow(huge, h_level)
section = _Section(Z2, start)

rtol, atol = 1e-6, 1e-9
x, y, _ = flow.project(*start)
fx, fy = flow.rhs(x, y)
speed = math.hypot(fx, fy)
h = min(0.01, 0.1 * (1.0 + section.scale) / (1.0 + speed))
raw_prev = math.atan2(*reversed(flow.rhs(x, y)))  # not exact but fine
theta = 0.0
rej_enorm = rej_dtheta = rej_dphi = accepted = 0
worst_run = 0
run = 0
last_report = 0

v1, _, _, v2, _, _ = flow.jet(x, y)
raw_prev = math.atan2(v2, v1)

for attempt in range(3_000_000):
    x5, y5, ex, ey, _, _ = dp5_step(flow.rhs, x, y, fx, fy, h)
    enorm = error_norm(ex, ey, x, y, x5, y5, rtol, atol)
    if not math.isfinite(enorm):
        enorm = math.inf
    if enorm > 1.0:
        rej_enorm += 1
        run += 1
        h *= step_factor(enorm)
        continue
    xp, yp, _ = flow.project(x5, y5)
    raw_new = flow.image_angle(xp, yp)
    dtheta = _wrap_pi(raw_new - raw_prev)
    if abs(dtheta) > MAX_DTHETA:
        rej_dtheta += 1
        run += 1
        h *= max(0.2, 0.8 * MAX_DTHETA / abs(dtheta))
        continue
    dphi_probe = _wrap_pi(math.atan2(yp - section.cy, xp - section.cx)
                          - section.phi_prev)
    if abs(dphi_probe) > MAX_DPHI:
        rej_dphi += 1
        run += 1
        h *= max(0.2, 0.8 * MAX_DPHI / abs(dphi_probe))
        continue
    worst_run = max(worst_run, run)
    run = 0
    accepted += 1
    theta += dtheta
    raw_prev = raw_new
    section.advance_phi((xp, yp))
    x, y = xp, yp
    fx, fy = flow.rhs(x, y)
    h *= step_factor(enorm)
    if accepted - last_report >= 5000:
        last_report = accepted
        print(f"acc={accepted} att={attempt} p=({x:.5g},{y:.5g}) "
              f"h={h:.3e} th={theta / (2 * math.pi):.3f} "
              f"rej(e/th/phi)=({rej_enorm},{rej_dtheta},{rej_dphi})",
              flush=True)
    if theta > 2.2 * 2 * math.pi:
        print("theta budget")
        break

print(f"END acc={accepted} rej_enorm={rej_enorm} rej_dtheta={rej_dtheta} "
      f"rej_dphi={rej_dphi} worst_run={worst_run}")
print(f"final p=({x:.8g},{y:.8g}) h={h:.3e} theta/2pi={theta/(2*math.pi):.4f}")

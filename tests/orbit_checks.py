"""Checks on traced orbits shared by the tests."""

from planarham.field import sample


def angular_speed_check(pmap, trace):
    """Max deviation of the measured image-angle speed from det Df.

    A three-point nonuniform finite difference of theta(t) is compared
    with det Df at each interior stored point; the deviation is
    normalised by 1 + |det|.
    """
    assert len(trace.points) >= 10, "trace too short for the diagnostic"
    worst = 0.0
    for i in range(1, len(trace.points) - 1):
        t0, t1, t2 = trace.times[i - 1:i + 2]
        th0, th1, th2 = trace.thetas[i - 1:i + 2]
        h1, h2 = t1 - t0, t2 - t1
        fd = (-h2 / (h1 * (h1 + h2)) * th0
              + (h2 - h1) / (h1 * h2) * th1
              + h1 / (h2 * (h1 + h2)) * th2)
        det = sample(pmap, trace.points[i]).det
        worst = max(worst, abs(fd - det) / (1.0 + abs(det)))
    return worst

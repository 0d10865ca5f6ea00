"""The benchmark's inputs: map families drawn from a seed, and the workloads.

A workload is a list of invocations of ``planarham.cli.run_subcommand``.
One *round* runs every invocation once; a run repeats whole rounds.
Generated maps reach the program only as map-spec files (``--map PATH``).

Every family keeps the number of centers, and so the number of checked
facts, independent of the seed.  See README.md for the make-up of each
workload and the faults each fixed input shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracles import (MapTruth, affine_truth, exp_rotation_truth,
                     exp_strip_truth, fold_truth, identity_truth,
                     strip_scaled_truth, triangular_truth)

WORKLOADS = ("transcendental", "polynomial", "small-maps")


@dataclass(frozen=True)
class MapInput:
    """One map handed to the program, with what is known about it."""
    name: str
    family: str
    truth: MapTruth
    spec: str | None = None       # map-spec text; None for a builtin
    seeded: bool = True           # drawn from --seed (fixed inputs: False)
    affine: np.ndarray | None = field(default=None, compare=False)

    def source(self, workdir: Path) -> str:
        if self.spec is None:
            return f"builtin:{self.name}"
        return str(workdir / f"{self.name}.map")

    def write(self, workdir: Path) -> None:
        if self.spec is not None:
            (workdir / f"{self.name}.map").write_text(self.spec, encoding="utf-8")


@dataclass(frozen=True)
class Invocation:
    subcommand: str               # centers | global-check | portrait | report | disc
    map: MapInput
    levels: tuple[float, ...] = ()  # portrait only

    @property
    def label(self) -> str:
        return f"{self.subcommand}:{self.map.name}"


def _g(v: float) -> float:
    """Round a drawn parameter to 6 significant digits, as written in the spec."""
    return float(f"{v:.6g}")


def _spec(name: str, f1: str, f2: str, hamiltonian: str | None = None) -> str:
    lines = [f'name = "{name}"', f'f1 = "{f1}"', f'f2 = "{f2}"',
             'domain = "plane"']
    if hamiltonian is not None:
        lines.append(f'hamiltonian = "{hamiltonian}"')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# families

def exp_rotation(rng: np.random.Generator, name: str) -> MapInput:
    """(e^{ax} cos by - 1, e^{ax} sin by), a in [0.9, 1.1], b in [0.34, 0.37].

    b keeps exactly three centers (k = -1, 0, 1) in the window, and the
    window edges y = +-20 cut the annuli of the outer two.
    """
    a, b = _g(rng.uniform(0.9, 1.1)), _g(rng.uniform(0.34, 0.37))
    spec = _spec(name, f"exp({a!r}*x)*cos({b!r}*y) - 1",
                 f"exp({a!r}*x)*sin({b!r}*y)")
    return MapInput(name, "exp-rotation", exp_rotation_truth(a, b), spec)


def exp_strip(rng: np.random.Generator, name: str) -> MapInput:
    """(e^{ax} - 1, b y), a in [0.8, 1.2], b in [0.6, 1.5]: one center."""
    a, b = _g(rng.uniform(0.8, 1.2)), _g(rng.uniform(0.6, 1.5))
    spec = _spec(name, f"exp({a!r}*x) - 1", f"{b!r}*y")
    return MapInput(name, "exp-strip", exp_strip_truth(a, b), spec)


def strip_scaled(rng: np.random.Generator, name: str) -> MapInput:
    """example2 composed with (alpha x, beta y), its H declared in the spec."""
    alpha, beta = _g(rng.uniform(0.85, 1.2)), _g(rng.uniform(0.8, 1.25))
    a2, b2 = alpha * alpha, beta * beta
    f1 = f"{alpha!r}*x/sqrt(1 + {a2!r}*x^2)"
    f2 = f"({a2!r}*x^2 + (1 + {a2!r}*x^2)^2*{beta!r}*y)/sqrt(1 + {a2!r}*x^2)"
    ham = (f"0.5*(1 + {a2!r}*x^2)^3*{b2!r}*y^2"
           f" + {a2!r}*x^2*(1 + {a2!r}*x^2)*{beta!r}*y + 0.5*{a2!r}*x^2")
    return MapInput(name, "strip-scaled", strip_scaled_truth(alpha, beta),
                    _spec(name, f1, f2, ham))


def affine(rng: np.random.Generator, name: str) -> MapInput:
    """A p + c with diag(A) in [0.6, 1.6], off-diagonal in [-0.4, 0.4]
    (so det A >= 0.2) and the center drawn in [-6, 6]^2."""
    a = np.array([[_g(rng.uniform(0.6, 1.6)), _g(rng.uniform(-0.4, 0.4))],
                  [_g(rng.uniform(-0.4, 0.4)), _g(rng.uniform(0.6, 1.6))]])
    p0 = np.array([_g(rng.uniform(-6.0, 6.0)), _g(rng.uniform(-6.0, 6.0))])
    c = -(a @ p0)
    (a00, a01), (a10, a11) = a.tolist()
    c0, c1 = c.tolist()
    f1 = f"{a00!r}*x + {a01!r}*y + {c0!r}"
    f2 = f"{a10!r}*x + {a11!r}*y + {c1!r}"
    return MapInput(name, "affine", affine_truth(a, c), _spec(name, f1, f2),
                    affine=a)


def triangular(rng: np.random.Generator, name: str, degree: int) -> MapInput:
    """(alpha u, beta v + q(u)), u = x - x0, v = y - y0, q(0) = 0, deg q = degree.

    alpha, beta in [0.9, 1.1]; q's linear coefficient in [0, 0.1], its
    quadratic one in [0.1, 0.15] and (degree 3) its cubic one in
    [0.01, 0.015], each with a random sign; the center in [-2, 2]^2.
    The ranges are narrow so that the work per map, and with it the
    workload's timings, vary little from seed to seed.
    """
    alpha, beta = _g(rng.uniform(0.9, 1.1)), _g(rng.uniform(0.9, 1.1))
    sizes = [(0.0, 0.1), (0.1, 0.15), (0.01, 0.015)][:degree]
    q = []
    for lo, hi in sizes:
        v = _g(rng.uniform(lo, hi))
        q.append(v if rng.random() < 0.5 else -v)
    x0, y0 = _g(rng.uniform(-2.0, 2.0)), _g(rng.uniform(-2.0, 2.0))
    u = f"(x - {x0!r})"
    terms = " + ".join(f"{ck!r}*{u}^{k + 1}" for k, ck in enumerate(q))
    f1 = f"{alpha!r}*{u}"
    f2 = f"{beta!r}*(y - {y0!r}) + {terms}"
    return MapInput(name, f"triangular{degree}",
                    triangular_truth(alpha, beta, tuple(q), (x0, y0)),
                    _spec(name, f1, f2))


# ---------------------------------------------------------------------------
# fixed inputs: independent of the seed, the same in every run

def _builtin(name: str, truth: MapTruth) -> MapInput:
    return MapInput(name, "builtin", truth, None, seeded=False)


def example1() -> MapInput:
    # (e^x - 1, y): the exp-strip family at a = b = 1
    return _builtin("example1", exp_strip_truth(1.0, 1.0))


def example3() -> MapInput:
    # (e^x cos y - 1, e^x sin y): seven centers; those at +-6 pi are cut
    # by the window edges y = +-20
    return _builtin("example3", exp_rotation_truth(1.0, 1.0))


def example2() -> MapInput:
    return _builtin("example2", strip_scaled_truth(1.0, 1.0))


def identity() -> MapInput:
    return _builtin("identity", identity_truth())


def fold() -> MapInput:
    return _builtin("control_noninjective", fold_truth())


def parabola_fixed() -> MapInput:
    """(x, y + x^2): injective onto the plane, so global and type A."""
    spec = _spec("parabola", "x", "y + x^2")
    return MapInput("parabola", "triangular2",
                    triangular_truth(1.0, 1.0, (0.0, 1.0), (0.0, 0.0)),
                    spec, seeded=False)


def shifted_fixed() -> MapInput:
    """(x - 19.5, y): the identity moved next to the window edge x = 20."""
    a = np.eye(2)
    spec = _spec("shifted", "x - 19.5", "y")
    return MapInput("shifted", "affine", affine_truth(a, np.array([-19.5, 0.0])),
                    spec, seeded=False, affine=a)


# ---------------------------------------------------------------------------
# workloads

SMALL_MAPS_PER_ROUND = 9


def _transcendental(seed: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, 1])
    maps = [example1(), example3(),
            exp_rotation(rng, "exprot_a"), exp_rotation(rng, "exprot_b"),
            exp_strip(rng, "expstrip_a")]
    return [Invocation("report", m) for m in maps]


def _polynomial(seed: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, 2])
    maps = [example2(), identity(), fold(), parabola_fixed(), shifted_fixed(),
            strip_scaled(rng, "stripscaled_a"), triangular(rng, "tri3_a", 3),
            affine(rng, "affine_a")]
    invs = [Invocation("report", m) for m in maps]
    # no disc for the shifted identity: its disc is the identity's, and
    # 15 invocations (an odd count) keep the median inside one input's times
    invs += [Invocation("disc", m) for m in maps if m.name != "shifted"]
    return invs


def _small_maps(seed: int, round_index: int) -> list[Invocation]:
    rng = np.random.default_rng([seed, 3, round_index])
    invs = []
    for i in range(SMALL_MAPS_PER_ROUND):
        name = f"r{round_index}_m{i}"
        m = affine(rng, name) if i % 2 == 0 else triangular(rng, name, 2)
        sub = ("centers", "global-check", "portrait")[i % 3]
        levels: tuple[float, ...] = ()
        if sub == "portrait":
            ell = min(c.ell_window for c in m.truth.centers)
            levels = tuple(f * ell for f in (0.25, 0.5, 0.75))
        invs.append(Invocation(sub, m, levels))
    return invs


def round_invocations(workload: str, seed: int, round_index: int) -> list[Invocation]:
    """The invocations of one round.

    ``transcendental`` and ``polynomial`` repeat the same maps every
    round.  ``small-maps`` draws fresh maps each round, so every
    invocation sees a map the program has not compiled before.
    """
    if workload == "transcendental":
        return _transcendental(seed)
    if workload == "polynomial":
        return _polynomial(seed)
    if workload == "small-maps":
        return _small_maps(seed, round_index)
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def write_maps(invocations: list[Invocation], workdir: Path) -> None:
    for inv in invocations:
        inv.map.write(workdir)


def argv_for(inv: Invocation, workdir: Path, out: Path) -> list[str]:
    argv = [inv.subcommand, "--map", inv.map.source(workdir), "--out", str(out)]
    if inv.levels:
        argv.append("--levels=" + ",".join(repr(v) for v in inv.levels))
    return argv


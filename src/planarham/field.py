"""Hamiltonian structure of a planar map.

A map f = (f1, f2) induces H = (f1^2 + f2^2)/2 and the area-preserving
field (-H_y, H_x), both evaluated here through the first-order jet of f
(chain rule), never by differentiating a composed H expression.  That
keeps a single code path with exact partials and needs no second
derivatives anywhere.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .expr import (
    DomainError,
    Expr,
    JET_ERRORS,
    MAX_POLY_DEGREE,
    OVERFLOW_LIMIT,
    Poly2,
    compile_array_jet,
    compile_array_polys,
    compile_grid,
    compile_interval_jet,
    compile_jet_pair,
    interval_mul,
    interval_sub,
    located_domain_error,
    nonfinite_constant,
    parse_expr,
    poly_degree_bound,
    print_expr,
    to_poly,
)
from . import rk

ZERO_TOL = 1e-10
DEGENERATE_TOL = 1e-8
VALIDATE_N = 50     # grid side of the declared-H check


@dataclass(frozen=True)
class Box:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"empty box: {self}")
        if not (math.isfinite(self.xmax - self.xmin) and math.isfinite(self.ymax - self.ymin)):
            raise ValueError(f"box needs finite corners, width and height: {self}")

    def contains(self, p: tuple[float, float]) -> bool:
        x, y = p
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def diameter(self) -> float:
        return math.hypot(self.xmax - self.xmin, self.ymax - self.ymin)

    def exit_side(self, p: tuple[float, float]) -> str | None:
        """Name of the first violated side, None if p is inside."""
        x, y = p
        if x < self.xmin:
            return "xmin"
        if x > self.xmax:
            return "xmax"
        if y < self.ymin:
            return "ymin"
        if y > self.ymax:
            return "ymax"
        return None

    def intersect(self, other: "Box") -> "Box":
        return Box(max(self.xmin, other.xmin), min(self.xmax, other.xmax),
                   max(self.ymin, other.ymin), min(self.ymax, other.ymax))


# An unbounded domain is handled as this working window plus explicit
# escape events; a finite window is the honest numerical stand-in for
# "any open connected set".
PLANE_BOX = Box(-20.0, 20.0, -20.0, 20.0)


@dataclass(frozen=True)
class PlanarMap:
    """The input map f = (f1, f2) with an optional declared Hamiltonian.

    ``domain=None`` means the whole plane (working window
    :data:`PLANE_BOX` with escape detection).  ``declared_hamiltonian``
    exists for maps like x/sqrt(1+x^2) whose H is polynomial even though
    f is not; it must pass :func:`validate_hamiltonian`.
    """

    f1: Expr
    f2: Expr
    domain: Box | None = None
    declared_hamiltonian: Poly2 | None = None
    name: str = ""

    @cached_property
    def jet(self):
        """The compiled jet of f, as :func:`~planarham.expr.compile_jet_pair`
        gives it; computed once per map, so callers skip the cache key."""
        return compile_jet_pair(self.f1, self.f2)

    @cached_property
    def array_jet(self):
        """The jet over arrays of seeds or grid points, as
        :func:`~planarham.expr.compile_array_jet` gives it; compiled on
        first use."""
        return compile_array_jet(self.f1, self.f2)

    @cached_property
    def grid(self):
        """f1 and f2 over grids (:func:`~planarham.expr.compile_grid`)."""
        return compile_grid(self.f1, self.f2)

    @cached_property
    def interval_jet(self):
        """Enclosures of f's jet over arrays of boxes, as
        :func:`~planarham.expr.compile_interval_jet` gives them, for the
        det Df sign proof; compiled on first use, so that every sign
        check of the map shares it."""
        return compile_interval_jet(self.f1, self.f2)

    @cached_property
    def interval_values(self):
        """Enclosures of f1 and f2 alone over arrays of boxes
        (:func:`~planarham.expr.compile_interval_jet` with
        ``values_only``), for the bounds of H at infinity; compiled on
        first use."""
        return compile_interval_jet(self.f1, self.f2, values_only=True)

    @cached_property
    def orbit_kernel(self):
        """The DP5 step of the lift of the image circle, in the image angle
        (:func:`planarham.rk.orbit_kernel`), raising the errors of
        :func:`located_jet_failure` at the failing stage point, det Df = 0
        there included; compiled on first use."""
        f1, f2 = self.f1, self.f2   # the kernel must not hold the map itself

        def locate(x: float, y: float, exc: BaseException):
            return located_jet_failure(f1, f2, (x, y), exc)

        return rk.orbit_kernel(f1, f2, JET_ERRORS, locate)

    @cached_property
    def _facts(self) -> dict:
        return {}

    def fact(self, key, compute):
        """The map-level fact named ``key``: ``compute()`` on first use,
        then the stored value.

        A map object lives for one run, so a fact never outlives the map
        it describes.  A ``compute`` that raises stores nothing.
        """
        facts = self._facts
        if key not in facts:
            facts[key] = compute()
        return facts[key]

    def working_box(self) -> Box:
        return self.domain if self.domain is not None else PLANE_BOX

    def is_plane_domain(self) -> bool:
        return self.domain is None


class OverflowEvent(ArithmeticError):
    """An intermediate magnitude exceeded the overflow guard."""

    def __init__(self, point: tuple[float, float], magnitude: float):
        super().__init__(f"overflow (|value| ~ {magnitude:.3g}) at {point}")
        self.point = point
        self.magnitude = magnitude


def located_jet_failure(f1: Expr, f2: Expr, p: tuple[float, float],
                        exc: BaseException) -> DomainError | OverflowEvent:
    """The located error for a raw failure of the compiled jet of
    (f1, f2) at ``p``, or of the division by its det Df after it.

    Overflow becomes an :class:`OverflowEvent`; anything else is the
    :class:`~planarham.expr.DomainError` of
    :func:`~planarham.expr.located_domain_error`, which names the
    offending subexpression.  Where the jet itself evaluates, the
    division by det Df failed: det Df = 0 at ``p``.
    """
    if isinstance(exc, OverflowError):
        return OverflowEvent(p, math.inf)
    return located_domain_error(f1, f2, p) or DomainError("det Df = 0", None, p)


@dataclass(frozen=True)
class FieldSample:
    point: tuple[float, float]
    f_value: tuple[float, float]
    jacobian: tuple[tuple[float, float], tuple[float, float]]
    det: float
    hamiltonian: float
    field: tuple[float, float]

    def grad_h(self) -> tuple[float, float]:
        """Gradient of H; the field is this rotated a quarter turn."""
        (dx1, dy1), (dx2, dy2) = self.jacobian
        v1, v2 = self.f_value
        return (v1 * dx1 + v2 * dx2, v1 * dy1 + v2 * dy2)


def sample(pmap: PlanarMap, p: tuple[float, float]) -> FieldSample:
    """Evaluate f, Df, H and the Hamiltonian field at one point.

    Raises :class:`~planarham.expr.DomainError` (locating the offending
    subexpression) when evaluation leaves the real domain, and
    :class:`OverflowEvent` when any magnitude passes 1e150 or is nan.
    """
    x, y = p
    try:
        v1, dx1, dy1, v2, dx2, dy2 = pmap.jet(x, y)
    except JET_ERRORS as exc:
        raise located_jet_failure(pmap.f1, pmap.f2, p, exc) from None
    worst = max(abs(v1), abs(dx1), abs(dy1), abs(v2), abs(dx2), abs(dy2))
    # max passes over a nan unless it comes first; the sum does not
    if not worst <= OVERFLOW_LIMIT or math.isnan(v1 + dx1 + dy1 + v2 + dx2 + dy2):
        raise OverflowEvent(p, worst if worst > OVERFLOW_LIMIT else math.nan)
    h = 0.5 * (v1 * v1 + v2 * v2)
    return FieldSample(
        point=(x, y),
        f_value=(v1, v2),
        jacobian=((dx1, dy1), (dx2, dy2)),
        det=dx1 * dy2 - dx2 * dy1,
        hamiltonian=h,
        field=(-(v1 * dy1 + v2 * dy2), v1 * dx1 + v2 * dx2),
    )


@dataclass(frozen=True)
class Linearization:
    matrix: tuple[tuple[float, float], tuple[float, float]]
    trace: float
    det: float
    eigenvalues: tuple[complex, complex]


def linearization_at(pmap: PlanarMap, z: tuple[float, float],
                     zero_tol: float = ZERO_TOL) -> Linearization:
    """Linear part of the Hamiltonian field at a zero of f.

    The matrix is assembled from first partials of f only; its trace is
    zero by construction and its determinant is (det Df)^2, so the
    eigenvalues are the purely imaginary pair +-i|det Df|.
    """
    s = sample(pmap, z)
    if math.hypot(*s.f_value) > zero_tol:
        raise ValueError(f"not a zero of the map: |f{z}| = {math.hypot(*s.f_value):.3g}")
    if s.det == 0.0:
        raise ValueError(f"degenerate Jacobian at {z}")
    (dx1, dy1), (dx2, dy2) = s.jacobian
    m00 = -(dx1 * dy1 + dx2 * dy2)
    m01 = -(dy1 * dy1 + dy2 * dy2)
    m10 = dx1 * dx1 + dx2 * dx2
    m11 = -m00  # trace exactly zero
    omega = abs(s.det)
    return Linearization(
        matrix=((m00, m01), (m10, m11)),
        trace=m00 + m11,
        det=m00 * m11 - m01 * m10,
        eigenvalues=(complex(0.0, omega), complex(0.0, -omega)),
    )


@dataclass(frozen=True)
class HamiltonianValidation:
    ok: bool
    worst_point: tuple[float, float]
    worst_residual: float
    n_checked: int
    n_skipped: int


class ValidationInconclusive(RuntimeError):
    """Too many grid points left the expression domain to decide."""


def validate_hamiltonian(pmap: PlanarMap) -> HamiltonianValidation:
    """Check the declared polynomial against (f1^2+f2^2)/2 on a grid.

    The grid covers domain intersected with [-3,3]^2, or the domain itself
    when the two do not overlap; a point passes when the residual is
    within 1e-8*(1+|H|).  Domain errors skip the point; more than 20%
    skipped raises :class:`ValidationInconclusive`.  The grid goes through
    the array jet at once, and a point is skipped exactly where
    :func:`sample` would raise.
    """
    if pmap.declared_hamiltonian is None:
        raise ValueError("no declared Hamiltonian to validate")
    box = pmap.working_box()
    if box.xmin < 3.0 and box.xmax > -3.0 and box.ymin < 3.0 and box.ymax > -3.0:
        box = box.intersect(Box(-3.0, 3.0, -3.0, 3.0))
    steps = np.arange(VALIDATE_N)
    xs = np.repeat(box.xmin + (box.xmax - box.xmin) * steps / (VALIDATE_N - 1), VALIDATE_N)
    ys = np.tile(box.ymin + (box.ymax - box.ymin) * steps / (VALIDATE_N - 1), VALIDATE_N)
    jet, raised = pmap.array_jet(xs, ys)
    (declared,), h_raised = compile_array_polys(pmap.declared_hamiltonian)(xs, ys)
    v1, v2 = jet[0], jet[3]
    with np.errstate(all="ignore"):
        # sample's overflow guard: every magnitude finite and at most the limit
        skip = raised | ~(np.abs(jet) <= OVERFLOW_LIMIT).all(axis=0)
        h = 0.5 * (v1 * v1 + v2 * v2)
        res = np.abs(declared - h) / (1.0 + np.abs(h))
    if (h_raised & ~skip).any():
        raise OverflowError("the declared hamiltonian overflows on the check grid")
    # the first largest residual in grid order; a nan residual never wins
    ranked = np.where(skip | np.isnan(res), -1.0, res)
    k = int(np.argmax(ranked))
    worst_res = float(ranked[k])
    worst_pt = (float(xs[k]), float(ys[k])) if worst_res > -1.0 else (math.nan, math.nan)
    skipped = int(skip.sum())
    checked = skip.size - skipped
    total = VALIDATE_N * VALIDATE_N
    if skipped > 0.2 * total:
        raise ValidationInconclusive(
            f"{skipped}/{total} grid points skipped on domain errors")
    return HamiltonianValidation(
        ok=worst_res <= 1e-8,
        worst_point=worst_pt,
        worst_residual=worst_res,
        n_checked=checked,
        n_skipped=skipped,
    )


def _declared_validation(pmap: PlanarMap) -> HamiltonianValidation:
    """:func:`validate_hamiltonian` of the map, run once per map."""
    return pmap.fact("declared-validation", lambda: validate_hamiltonian(pmap))


def effective_hamiltonian_poly(pmap: PlanarMap) -> Poly2 | None:
    """Polynomial form of H when one exists, else None; once per map.

    Prefers a validated declared Hamiltonian; otherwise builds
    (f1^2 + f2^2)/2 when both components are structurally polynomial.
    """
    def compute() -> Poly2 | None:
        declared = pmap.declared_hamiltonian
        if declared is not None and _declared_validation(pmap).ok:
            return declared
        p1 = to_poly(pmap.f1)
        p2 = to_poly(pmap.f2)
        if p1 is None or p2 is None:
            return None
        return (p1 * p1 + p2 * p2).scale(0.5)

    return pmap.fact("hamiltonian", compute)


# the det Df sign check: a first split per side, then quartering of the
# undecided boxes, at most this often and while a level keeps this many
SIGN_PROOF_SPLIT = 8
SIGN_PROOF_HALVINGS = 6
SIGN_PROOF_MAX_BOXES = 4096


@dataclass(frozen=True)
class SignProof:
    """What :func:`det_sign_on_cells` settled about det Df on its cells.

    ``sign`` is +1 or -1 when det Df provably has that sign at every
    point of the cells, else 0.  ``flip`` is (a point where det Df > 0, a
    point where det Df < 0) when both signs occur, each the centre of a
    box where that sign is proved or, where the subdivision stopped
    undecided, sampled.  Neither: undecided.  ``boxes`` counts the boxes
    enclosed, over all levels.
    """
    sign: int
    flip: tuple[tuple[float, float], tuple[float, float]] | None
    boxes: int


def jacobian_sign_change(pmap: PlanarMap) -> SignProof:
    """The check of the hypothesis det Df != 0 on the working box, once
    per map: :func:`det_sign_on_cells` of every cell of its
    :data:`SIGN_PROOF_SPLIT`-square grid."""
    n = SIGN_PROOF_SPLIT
    return pmap.fact("det-sign", lambda: det_sign_on_cells(
        pmap, pmap.working_box(), n, *np.indices((n, n)).reshape(2, -1)))


def det_sign_on_cells(pmap: PlanarMap, box: Box, n: int, i: np.ndarray,
                      j: np.ndarray) -> SignProof:
    """The sign of det Df on the cells (i, j) of the n x n grid on box.

    det Df = d/dx f1 * d/dy f2 - d/dx f2 * d/dy f1 is enclosed on each
    cell from the map's compiled enclosures of f's jet
    (:attr:`PlanarMap.interval_jet`).  A box whose
    enclosure excludes 0 has a proved sign; the undecided ones (the
    enclosure holds 0, or f is undefined somewhere in the box) are
    quartered, at most :data:`SIGN_PROOF_HALVINGS` times and only while
    the next level has at most :data:`SIGN_PROOF_MAX_BOXES` boxes, or 4
    per cell.  Stops as soon as both signs are proved (a sign change) or
    no box is undecided (a proved sign).  Otherwise det Df is sampled
    with the array jet (:attr:`PlanarMap.array_jet`, equal to the scalar
    jet) at the centres of the boxes still undecided, skipping points
    where f is undefined; when these samples and the proved boxes show
    both signs, that is a sign change too, witnessed by the first
    centre of each sign.
    """
    xs, ys = np.linspace(box.xmin, box.xmax, n + 1), np.linspace(box.ymin, box.ymax, n + 1)
    cells = np.stack([xs[i], xs[i + 1], ys[j], ys[j + 1]])    # rows xlo, xhi, ylo, yhi
    cap = max(SIGN_PROOF_MAX_BOXES, 4 * len(i))
    witness: dict[int, tuple[float, float]] = {}
    boxes = 0
    for level in range(SIGN_PROOF_HALVINGS + 1):
        boxes += cells.shape[1]
        lo, hi, bad = pmap.interval_jet(*cells)     # rows v1, dx1, dy1, v2, dx2, dy2
        det_lo, det_hi = interval_sub(interval_mul((lo[1], hi[1]), (lo[5], hi[5])),
                                      interval_mul((lo[4], hi[4]), (lo[2], hi[2])))
        signs = np.select([bad, det_lo > 0, det_hi < 0], [0, 1, -1], 0)
        for sign in (1, -1):
            if sign not in witness and (signs == sign).any():
                xlo, xhi, ylo, yhi = cells[:, np.argmax(signs == sign)]
                witness[sign] = (float(0.5 * (xlo + xhi)), float(0.5 * (ylo + yhi)))
        if len(witness) == 2:
            return SignProof(0, (witness[1], witness[-1]), boxes)
        undecided = cells[:, signs == 0]
        if undecided.shape[1] == 0:
            return SignProof(next(iter(witness)), None, boxes)
        if level == SIGN_PROOF_HALVINGS or 4 * undecided.shape[1] > cap:
            break
        xlo, xhi, ylo, yhi = undecided
        xmid, ymid = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)      # shared: no gap
        cells = np.concatenate([[xlo, xmid, ylo, ymid], [xmid, xhi, ylo, ymid],
                                [xlo, xmid, ymid, yhi], [xmid, xhi, ymid, yhi]], axis=1)
    xlo, xhi, ylo, yhi = undecided
    xc, yc = 0.5 * (xlo + xhi), 0.5 * (ylo + yhi)
    (_, dx1, dy1, _, dx2, dy2), raised = pmap.array_jet(xc, yc)
    with np.errstate(all="ignore"):
        d = dx1 * dy2 - dx2 * dy1
    for sign, seen in ((1, d > 0), (-1, d < 0)):            # nan has neither sign
        seen &= ~raised
        if sign not in witness and seen.any():
            k = np.argmax(seen)
            witness[sign] = (float(xc[k]), float(yc[k]))
    flip = (witness[1], witness[-1]) if len(witness) == 2 else None
    return SignProof(0, flip, boxes)


def sign_proof_boxes(pmap: PlanarMap) -> int:
    """The boxes enclosed by every det Df sign check run on the map."""
    return sum(fact.boxes for fact in pmap._facts.values() if isinstance(fact, SignProof))


# ===== Map-spec files ===== #


class MapSpecError(ValueError):
    pass


_LINE_RE = re.compile(r'^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*"([^"]*)"\s*(?:#.*)?$')
_NUMBER = r"\s*(-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*"
_BOX_RE = re.compile(rf"^box\({_NUMBER},{_NUMBER},{_NUMBER},{_NUMBER}\)$")

_KNOWN_KEYS = {"name", "f1", "f2", "domain", "hamiltonian"}


def _parse_domain(text: str) -> Box | None:
    if text == "plane":
        return None
    m = _BOX_RE.match(text)
    if m is None:
        raise MapSpecError(f'domain must be "plane" or "box(xmin, xmax, ymin, ymax)", got {text!r}')
    try:
        return Box(*(float(g) for g in m.groups()))
    except ValueError as exc:
        raise MapSpecError(f"domain: {exc}") from None


def parse_map_spec(text: str, source: str, default_name: str) -> PlanarMap:
    """Build a map, file or builtin, from key = "value" lines; ``source``
    names the text in errors, ``default_name`` the map unless keyed.

    Recognised keys: name, f1, f2 (required), domain ("plane" or
    "box(xmin, xmax, ymin, ymax)"), hamiltonian (expression that must be
    structurally polynomial and match (f1^2+f2^2)/2 numerically, checked
    here).  Every subexpression free of x and y must evaluate to a finite
    number, and so must every coefficient of a polynomial f1, f2 or H.
    A polynomial f1, f2 or declared H whose
    :func:`~planarham.expr.poly_degree_bound` passes
    :data:`~planarham.expr.MAX_POLY_DEGREE` is refused unexpanded.
    Lines starting with # and blank lines are ignored.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LINE_RE.match(raw)
        if m is None:
            raise MapSpecError(f"{source}:{lineno}: expected key = \"value\", got {raw!r}")
        key, value = m.group(1), m.group(2)
        if key not in _KNOWN_KEYS:
            raise MapSpecError(f"{source}:{lineno}: unknown key {key!r}")
        if key in fields:
            raise MapSpecError(f"{source}:{lineno}: duplicate key {key!r}")
        fields[key] = value
    for required in ("f1", "f2"):
        if required not in fields:
            raise MapSpecError(f"{source}: missing required key {required!r}")
    domain = _parse_domain(fields.get("domain", "plane"))
    exprs = {key: parse_expr(fields[key]) for key in ("hamiltonian", "f1", "f2") if key in fields}
    for key, e in exprs.items():
        if (bad := nonfinite_constant(e)) is not None:
            raise MapSpecError(f"{source}: {key}: '{print_expr(bad)}' "
                               "does not evaluate to a finite number")
        if (degree := poly_degree_bound(e)) is not None and degree > MAX_POLY_DEGREE:
            raise MapSpecError(f"{source}: {key}: a polynomial of degree up to {degree}, "
                               f"past the bound {MAX_POLY_DEGREE}")
    polys = {key: to_poly(e) for key, e in exprs.items()}
    declared = polys.get("hamiltonian")
    if "hamiltonian" in exprs and declared is None:
        raise MapSpecError(f"{source}: declared hamiltonian is not a polynomial expression")
    for key, poly in polys.items():
        _require_finite_coefficients(source, key, poly)
    pmap = PlanarMap(
        f1=exprs["f1"],
        f2=exprs["f2"],
        domain=domain,
        declared_hamiltonian=declared,
        name=fields.get("name", default_name),
    )
    if declared is not None:
        try:
            result = _declared_validation(pmap)
        except ValidationInconclusive as exc:
            raise MapSpecError(f"{source}: declared hamiltonian cannot be "
                               f"validated: {exc}") from None
        if not result.ok:
            raise MapSpecError(
                f"{source}: declared hamiltonian mismatch, residual "
                f"{result.worst_residual:.3g} at {result.worst_point}")
    _require_finite_coefficients(source, "H = (f1^2 + f2^2)/2",
                                 effective_hamiltonian_poly(pmap))
    return pmap


def load_map_spec(path: str | Path) -> PlanarMap:
    """:func:`parse_map_spec` of a UTF-8 map file; the map is named after
    the file's stem unless the file names it."""
    path = Path(path)
    return parse_map_spec(path.read_text(encoding="utf-8"), path.name, path.stem)


def _require_finite_coefficients(source: str, key: str, poly: Poly2 | None) -> None:
    """Reject a polynomial whose folded coefficients overflowed."""
    for c, i, j in poly.terms if poly is not None else ():
        if not math.isfinite(c):
            raise MapSpecError(f"{source}: {key}: the coefficient of x^{i}*y^{j} "
                               f"is {c}, not a finite number")

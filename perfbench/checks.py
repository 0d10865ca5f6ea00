"""Check one invocation's output against the closed-form truths.

Each checked fact is one operation.  A failed operation is labelled with
the fault whose signature it shows:

* ``F1``: on a map that is injective onto the plane, an escape from the
  window was taken for the annulus boundary (finite ell bracket,
  "not-global", or a type-A map whose routes disagree).
* ``F2``: on an annulus the window edge cuts, the bracket lies above the
  window-relative ell by more than the tolerance (an excursion out of the
  window between two accepted steps went unseen) but not above the plane
  value.
* ``false-collision``: the injectivity spot check reported collisions
  where f is one-to-one on the region.
* ``new``: anything else.

On seeded inputs only facts that hold whatever the draw are checked:
the strict ell bracket, the verdict of a whole-plane map and the spot
check of the exponential families depend on F1, F2 and the false
collisions in ways the draw decides, so those inputs get the weaker
``ell-between`` fact and no verdict or spot check where the faults reach
(see README.md).
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracles import TOL, WINDOW, CenterTruth, MapTruth, affine_contour_tolerance
from workloads import Invocation

EXIT_OK = 0
EXIT_INCONCLUSIVE = 3

_LOC_TOL = 1e-8
_DET_RTOL = 1e-8
_SVG_NS = "{http://www.w3.org/2000/svg}"
PORTRAIT_GRID = 160          # the portrait subcommand's default grid


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    fault: str = ""          # set when not ok
    detail: str = ""


def _fault(ok: bool, fault: str) -> str:
    """The fault label of an operation: empty when it passed."""
    return "" if ok else fault


# ---------------------------------------------------------------------------
# per-center facts

def _match_centers(blocks: list[dict], truth: MapTruth) -> list[tuple[CenterTruth, dict | None]]:
    """Pair each true center with the reported block nearest to it."""
    pairs = []
    for ct in truth.centers:
        best, best_d = None, math.inf
        for b in blocks:
            d = math.dist(b["location"], ct.location)
            if d < best_d:
                best, best_d = b, d
        pairs.append((ct, best))
    return pairs


def _ell_strict(ct: CenterTruth, ell: dict | None, plane_image: bool) -> Op:
    """The bracket holds the window or the plane value, within TOL."""
    if ell is None:
        return Op("ell", False, "new", "no bracket")
    lo, hi = ell["lo"], ell["hi"]
    hi_v = math.inf if hi == "budget" else hi
    ok = any(lo - TOL <= v <= hi_v + TOL
             for v in (ct.ell_window, ct.ell_plane))
    detail = f"[{lo!r}, {hi!r}] vs window {ct.ell_window!r}, plane {ct.ell_plane!r}"
    if ok:
        return Op("ell", True, "", detail)
    if plane_image and math.isfinite(hi_v):
        return Op("ell", False, "F1", detail)
    if ct.ell_window + TOL < lo and hi_v <= ct.ell_plane + TOL:
        return Op("ell", False, "F2", detail)
    return Op("ell", False, "new", detail)


def _ell_between(ct: CenterTruth, ell: dict | None) -> Op:
    """The bracket lies between the window and the plane values."""
    if ell is None:
        return Op("ell-between", False, "new", "no bracket")
    lo, hi = ell["lo"], ell["hi"]
    hi_v = math.inf if hi == "budget" else hi
    ok = lo >= ct.ell_window - TOL and hi_v <= ct.ell_plane + TOL
    return Op("ell-between", ok, _fault(ok, "new"),
              f"[{lo!r}, {hi!r}] vs window {ct.ell_window!r}, plane {ct.ell_plane!r}")


def _spot_warning(block: dict, warnings: list[str]) -> str | None:
    x, y = block["location"]
    prefix = f"center ({x:.6g}, {y:.6g}): injectivity spot check found"
    return next((w for w in warnings if w.startswith(prefix)), None)


def _center_ops(inv: Invocation, doc: dict, full: bool) -> list[Op]:
    truth = inv.map.truth
    seeded = inv.map.seeded
    ops = []
    for ct, block in _match_centers(doc["centers"], truth):
        if block is None:
            ops.append(Op("location", False, "new", f"missing {ct.location}"))
            continue
        d = math.dist(block["location"], ct.location)
        ok = d <= _LOC_TOL * (1.0 + math.hypot(*ct.location))
        ops.append(Op("location", ok, _fault(ok, "new"),
                      f"{block['location']} vs {ct.location}"))
        ok = math.isclose(block["det_df"], ct.det_df, rel_tol=_DET_RTOL)
        ops.append(Op("det_df", ok, _fault(ok, "new"),
                      f"{block['det_df']!r} vs {ct.det_df!r}"))
        if not full:
            continue
        ell = block["ell"]
        if seeded:
            ops.append(_ell_between(ct, ell))
        else:
            ops.append(_ell_strict(ct, ell, truth.plane_image))
        if not (seeded and truth.plane_image):
            ok = block["global"] == ct.verdict
            fault = "F1" if truth.plane_image and block["global"] == "not-global" else "new"
            ops.append(Op("verdict", ok, _fault(ok, fault),
                          f"{block['global']} vs {ct.verdict}"))
        if not (seeded and not truth.polynomial_h):
            warn = _spot_warning(block, doc["warnings"])
            ok = warn is None or not ct.injective_on_region
            ops.append(Op("spotcheck", ok,
                          _fault(ok, "false-collision"), warn or "clean"))
    return ops


def _count_op(doc: dict, truth: MapTruth) -> Op:
    n = len(doc["centers"])
    ok = n == len(truth.centers)
    return Op("center-count", ok, _fault(ok, "new"),
              f"{n} vs {len(truth.centers)}")


# ---------------------------------------------------------------------------
# compactification facts

def _compact_ops(inv: Invocation, doc: dict) -> list[Op]:
    truth = inv.map.truth
    block = doc["compactification"]
    if not truth.polynomial_h:
        ok = block == "not-applicable"
        return [Op("compactification", ok, _fault(ok, "new"), str(block)[:80])]
    if not isinstance(block, dict):
        return [Op("infinity", False, "new", str(block))]
    n = len(block["infinite_singularities"])
    ok = n == truth.infinite_singularities and block["degree"] == truth.field_degree
    ops = [Op("infinity", ok, _fault(ok, "new"),
              f"{n} points, degree {block['degree']} vs "
              f"{truth.infinite_singularities}, {truth.field_degree}")]
    if truth.conti_type is not None:
        verdicts = {c["global"] for c in doc["centers"]}
        ok = block["conti_type"] == truth.conti_type and block["routes_agree"]
        fault = "new"
        if (truth.plane_image and block["conti_type"] == "A"
                and "not-global" in verdicts):
            fault = "F1"
        if not (inv.map.seeded and truth.plane_image):
            ops.append(Op("conti", ok, _fault(ok, fault),
                          f"{block['conti_type']} agree={block['routes_agree']} "
                          f"vs {truth.conti_type}"))
        else:
            ok = block["conti_type"] == truth.conti_type
            ops.append(Op("conti-type", ok, _fault(ok, "new"),
                          f"{block['conti_type']} vs {truth.conti_type}"))
    return ops


# ---------------------------------------------------------------------------
# SVG facts

def _polylines(root: ET.Element, role: str) -> list[np.ndarray]:
    out = []
    for el in root.iter(f"{_SVG_NS}polyline"):
        if el.get("class") != role:
            continue
        pts = [tuple(float(v) for v in p.split(",")) for p in el.get("points").split()]
        arr = np.asarray(pts, dtype=float)
        arr[:, 1] = -arr[:, 1]           # the SVG flips y
        out.append(arr)
    return out


def _portrait_op(inv: Invocation, svg_text: str) -> Op:
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return Op("svg", False, "new", f"parse: {exc}")
    a = inv.map.affine
    markers = [el for el in root.iter(f"{_SVG_NS}circle") if el.get("class") == "center"]
    if len(markers) != len(inv.map.truth.centers):
        return Op("svg", False, "new", f"{len(markers)} center markers")
    if a is None:
        return Op("svg", True)
    # affine map: every drawn level point lies on an ellipse H = level
    ct = inv.map.truth.centers[0]
    m = a.T @ a
    cell = 2.0 * WINDOW / PORTRAIT_GRID
    tols = [affine_contour_tolerance(a, lv, cell) for lv in inv.levels]
    lines = _polylines(root, "level")
    if not lines:
        return Op("svg", False, "new", "no level curve drawn")
    for pts in lines:
        d = pts - np.asarray(ct.location)
        h = 0.5 * np.einsum("ni,ij,nj->n", d, m, d)
        err = np.min([np.abs(h - lv) / tol for lv, tol in zip(inv.levels, tols)], axis=0)
        if err.max() > 1.0:
            return Op("svg", False, "new",
                      f"level point off every ellipse by {err.max():.3g} tolerances")
    return Op("svg", True, "", f"{len(lines)} level curves")


def _disc_op(inv: Invocation, svg_text: str) -> Op:
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return Op("svg", False, "new", f"parse: {exc}")
    n = sum(1 for el in root.iter(f"{_SVG_NS}circle") if el.get("class") == "singularity")
    want = 2 * inv.map.truth.infinite_singularities   # each point and its antipode
    ok = n == want
    return Op("svg", ok, _fault(ok, "new"), f"{n} singularity markers vs {want}")


# ---------------------------------------------------------------------------

def expected_exit(inv: Invocation) -> set[int]:
    """Exit codes a correct program may return for this invocation.

    A map without a nondegenerate center leaves nothing to analyse; such
    a report may exit 0 or 3 (inconclusive).
    """
    if inv.subcommand in ("report", "global-check", "portrait") and not inv.map.truth.centers:
        return {EXIT_OK, EXIT_INCONCLUSIVE}
    return {EXIT_OK}


def check(inv: Invocation, rc: int, stdout: str, out: Path) -> list[Op]:
    """All checked facts of one invocation, in a fixed order."""
    allowed = expected_exit(inv)
    ok = rc in allowed
    ops = [Op("exit", ok, _fault(ok, "new"), f"exit {rc}")]
    if not ok or not out.exists():
        return ops + [Op("output", False, "new", "no output written")]
    text = out.read_text(encoding="utf-8")
    if inv.subcommand == "portrait":
        return ops + [_portrait_op(inv, text)]
    if inv.subcommand == "disc":
        return ops + [_disc_op(inv, text)]
    doc = json.loads(text)
    full = inv.subcommand in ("report", "global-check")
    ops.append(_count_op(doc, inv.map.truth))
    ops += _center_ops(inv, doc, full)
    if full:
        ops += _compact_ops(inv, doc)
    if inv.subcommand == "global-check":
        lines = [ln for ln in stdout.splitlines() if ln.startswith("center (")]
        ok = len(lines) == len(doc["centers"])
        ops.append(Op("verdict-lines", ok, _fault(ok, "new"),
                      f"{len(lines)} lines for {len(doc['centers'])} centers"))
    return ops

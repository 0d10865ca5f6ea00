"""Command-line front end: subcommands, run configuration, JSON reports.

Each pipeline stage gets its own subcommand (centers, annulus,
global-check, portrait, disc) and `report` runs everything.  All
analysis output lands in files; stdout carries one-line summaries only.
Exit codes separate wrong input (2) from numerical inconclusiveness (3,
report still written with the reasons) and a report that fails its own
schema (4, an internal bug guard).

Reports must be byte-identical across reruns with the same flags, so
the timings block holds deterministic work counters, not wall-clock
seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Sequence

import jsonschema

from . import annulus
from .annulus import (AnnulusBelowResolution, AnnulusReport, BoundaryUnevaluable,
                      DownwardClosureError, RegionTooCoarse,
                      build_annulus_report, image_shape)
from .centers import CenterRecord, search_zeros
from .compactify import (SCAN_N, EquatorDegenerate, classify_sectors,
                         compactification_for_map, conti_verdict,
                         infinite_singularities)
from .corpus import ExtendedGateError, builtin
from .expr import DomainError, ParseError, print_expr
from .field import (Box, MapSpecError, OverflowEvent, PlanarMap, det_sign_proof,
                    load_map_spec)
from .render import DiscRefusal, disc_portrait_for_map, plane_portrait, scene_to_svg
from .trace import AngleBudget, LevelUnreachable

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_SCHEMA = 4

SUBCOMMANDS = ("centers", "annulus", "global-check", "portrait", "disc", "report")


class InputError(ValueError):
    """Anything wrong with flags, map files or builtin names (exit 2)."""


class SchemaFailure(RuntimeError):
    """A report this tool built failed its own schema (exit 4)."""


@dataclass(frozen=True)
class RunConfig:
    """One run's knobs; everything downstream reads only this.

    ``grid_n=None`` keeps each stage's own default (search 32, region
    200, portrait 160).  A run draws no random numbers, so a fixed
    config pins the whole run.
    """

    map_source: str
    box: Box | None = None
    grid_n: int | None = None
    h_max: float | None = None
    tol: float = 1e-6
    max_winding: int = 3
    out_report: str | None = None
    out_svg: str | None = None
    enable_extended: bool = False
    levels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:     # also rejects nan
            raise InputError("tol must be finite and positive")
        if self.grid_n is not None and self.grid_n < 8:
            raise InputError("grid must be at least 8")
        if self.h_max is not None and not 0 < self.h_max < math.inf:
            raise InputError("h-max must be finite and positive")
        if self.max_winding < 1:
            raise InputError("max-winding must be at least 1")
        if self.levels is not None:
            for lv in self.levels:
                if not (math.isfinite(lv) and lv > 0):
                    raise InputError("levels must be finite and positive")

    def budget(self) -> AngleBudget:
        return AngleBudget(max_winding=self.max_winding)


def load_map(source: str, enable_extended: bool = False) -> PlanarMap:
    """Resolve --map: 'builtin:NAME' or a path to a map spec file."""
    if source.startswith("builtin:"):
        name = source[len("builtin:"):]
        try:
            return builtin(name, enable_extended)
        except ExtendedGateError as exc:
            raise InputError(str(exc)) from exc
        except KeyError as exc:
            raise InputError(str(exc.args[0])) from exc
    try:
        return load_map_spec(source)
    except OSError as exc:
        raise InputError(f"cannot read map file {source!r}: {exc}") from exc
    except (MapSpecError, ParseError) as exc:
        raise InputError(str(exc)) from exc


def _parse_box(text: str) -> Box:
    parts = text.split(",")
    if len(parts) != 4:
        raise InputError("box must be xmin,xmax,ymin,ymax")
    try:
        return Box(*(float(p) for p in parts))
    except ValueError as exc:
        raise InputError(f"bad box {text!r}: {exc}") from exc


def _parse_levels(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad levels {text!r}: {exc}") from exc
    if not values:
        raise InputError("levels must name at least one value")
    return tuple(sorted(set(values)))


# ---------------------------------------------------------------------------
# report schema

_NUM = {"type": "number"}
_STR = {"type": "string"}

_CENTER_CORE = {
    "location": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
    "det_df": _NUM,
    "eigen_omega": {"type": "number", "minimum": 0},
    "isochronous_hint": {"type": "boolean"},
    "residual": {"type": "number", "minimum": 0},
}

_CERTIFICATE = {
    "type": "object",
    "properties": {
        "h": _NUM,
        "closed": {"type": "boolean"},
        "winding": {"type": "integer"},
        "injective": {"type": "boolean"},
        "period": {"type": ["number", "null"]},
    },
    "required": ["h", "closed", "winding", "injective", "period"],
    "additionalProperties": False,
}

_ELL = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "properties": {
                "lo": {"type": "number", "minimum": 0},
                "hi": {"oneOf": [_NUM, {"const": "budget"}]},
                "closure": {"enum": ["covering", "probes"]},
            },
            "required": ["lo", "hi", "closure"],
            "additionalProperties": False,
        },
    ]
}

_IMAGE_SHAPE = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "properties": {
                "kind": {"enum": ["disc", "plane", "unknown"]},
                "radius": {"type": "number", "minimum": 0},
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
    ]
}

_CENTER_FULL = {
    "type": "object",
    "properties": {
        **_CENTER_CORE,
        "status": {"enum": ["ok", "below-resolution", "failed"]},
        "ell": _ELL,
        "image_shape": _IMAGE_SHAPE,
        "global": {"enum": ["global", "not-global", "inconclusive"]},
        "certificates": {"type": "array", "items": _CERTIFICATE},
        "note": _STR,
    },
    "required": [*_CENTER_CORE, "status", "ell", "image_shape", "global",
                 "certificates"],
    "additionalProperties": False,
}

_COMPACTIFICATION = {
    "oneOf": [
        {"const": "not-applicable"},
        {
            "type": "object",
            "properties": {
                "degree": {"type": "integer", "minimum": 1},
                "infinite_singularities": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "theta": {"type": "number", "minimum": 0},
                            "classification": {
                                "enum": ["has-nondegenerate-sector",
                                         "two-degenerate-hyperbolic",
                                         "unclassified"],
                            },
                            "confidence": {
                                "type": "number", "minimum": 0, "maximum": 1,
                            },
                        },
                        "required": ["theta", "classification", "confidence"],
                        "additionalProperties": False,
                    },
                },
                "conti_type": {"enum": ["A", "B", "not-applicable",
                                        "undetermined"]},
                "routes_agree": {"type": "boolean"},
            },
            "required": ["degree", "infinite_singularities", "conti_type",
                         "routes_agree"],
            "additionalProperties": False,
        },
    ]
}

_CONFIG = {
    "type": "object",
    "properties": {
        "subcommand": {"enum": list(SUBCOMMANDS)},
        "map": _STR,
        "box": {"oneOf": [{"type": "null"},
                          {"type": "array", "items": _NUM,
                           "minItems": 4, "maxItems": 4}]},
        "grid_n": {"type": ["integer", "null"]},
        "h_max": {"type": ["number", "null"]},
        "tol": _NUM,
        "max_winding": {"type": "integer"},
        "out_report": {"type": ["string", "null"]},
        "out_svg": {"type": ["string", "null"]},
        "enable_extended": {"type": "boolean"},
        "levels": {"oneOf": [{"type": "null"},
                             {"type": "array", "items": _NUM}]},
    },
    "required": ["subcommand", "map", "box", "grid_n", "h_max", "tol",
                 "max_winding", "out_report", "out_svg",
                 "enable_extended", "levels"],
    "additionalProperties": False,
}

_MAP_ECHO = {
    "type": "object",
    "properties": {
        "name": _STR,
        "f1": _STR,
        "f2": _STR,
        "domain": {"oneOf": [{"type": "null"},
                             {"type": "array", "items": _NUM,
                              "minItems": 4, "maxItems": 4}]},
        "declared_hamiltonian": {"type": ["string", "null"]},
    },
    "required": ["name", "f1", "f2", "domain", "declared_hamiltonian"],
    "additionalProperties": False,
}

_TIMINGS = {
    "type": "object",
    "properties": {
        "unit": {"const": "work-items"},
        "center_seeds": {"type": "integer", "minimum": 0},
        "orbit_points": {"type": "integer", "minimum": 0},
        "sign_proof_boxes": {"type": "integer", "minimum": 0},
        "equator_scan": {"type": "integer", "minimum": 0},
        "fate_runs": {"type": "integer", "minimum": 0},
    },
    "required": ["unit"],
    "additionalProperties": False,
}


def _doc_schema(kind: str, center_schema: dict, with_compactification: bool) -> dict:
    props = {
        "kind": {"const": kind},
        "config": _CONFIG,
        "map": _MAP_ECHO,
        "centers": {"type": "array", "items": center_schema},
        "warnings": {"type": "array", "items": _STR},
        "timings": _TIMINGS,
    }
    if with_compactification:
        props["compactification"] = _COMPACTIFICATION
    return {
        "type": "object",
        "properties": props,
        "required": list(props),
        "additionalProperties": False,
    }


_CENTER_ONLY = {
    "type": "object",
    "properties": dict(_CENTER_CORE),
    "required": list(_CENTER_CORE),
    "additionalProperties": False,
}

SCHEMAS = {
    "centers": _doc_schema("centers", _CENTER_ONLY, False),
    "annulus": _doc_schema("annulus", _CENTER_FULL, False),
    "report": _doc_schema("report", _CENTER_FULL, True),
}


# ---------------------------------------------------------------------------
# report assembly

def _box_list(box: Box | None) -> list[float] | None:
    if box is None:
        return None
    return [box.xmin, box.xmax, box.ymin, box.ymax]


def _config_echo(cfg: RunConfig, subcommand: str) -> dict:
    return {
        "subcommand": subcommand,
        "map": cfg.map_source,
        "box": _box_list(cfg.box),
        "grid_n": cfg.grid_n,
        "h_max": cfg.h_max,
        "tol": cfg.tol,
        "max_winding": cfg.max_winding,
        "out_report": cfg.out_report,
        "out_svg": cfg.out_svg,
        "enable_extended": cfg.enable_extended,
        "levels": list(cfg.levels) if cfg.levels is not None else None,
    }


def _map_echo(pmap: PlanarMap) -> dict:
    declared = pmap.declared_hamiltonian
    return {
        "name": pmap.name,
        "f1": print_expr(pmap.f1),
        "f2": print_expr(pmap.f2),
        "domain": _box_list(pmap.domain),
        "declared_hamiltonian":
            print_expr(declared.to_expr()) if declared is not None else None,
    }


def _center_core(rec: CenterRecord) -> dict:
    return {
        "location": [rec.location[0], rec.location[1]],
        "det_df": rec.det_df,
        "eigen_omega": abs(rec.eigenvalues[0].imag),
        "isochronous_hint": rec.isochronous_hint,
        "residual": rec.residual,
    }


def _certificate_block(cert) -> dict:
    return {
        "h": cert.h,
        "closed": cert.closed,
        "winding": cert.winding,
        "injective": cert.injective_on_orbit,
        "period": cert.period,
    }


def _loc_text(rec: CenterRecord) -> str:
    return f"({rec.location[0]:.6g}, {rec.location[1]:.6g})"


# how one center's annulus analysis can fail without failing the run
_CENTER_FAILURES = (AnnulusBelowResolution, LevelUnreachable, RegionTooCoarse,
                    BoundaryUnevaluable, DownwardClosureError, OverflowEvent,
                    DomainError)


def _analyze_center(pmap: PlanarMap, rec: CenterRecord, cfg: RunConfig,
                    warnings: list[str],
                    ) -> tuple[dict, AnnulusReport | None, bool]:
    """One center's block; returns (block, report or None, inconclusive)."""
    block = _center_core(rec)
    try:
        rep = build_annulus_report(
            pmap, rec, h_max=cfg.h_max, tol=cfg.tol,
            grid_n=cfg.grid_n if cfg.grid_n is not None else 200,
            box=cfg.box, budget=cfg.budget())
    except _CENTER_FAILURES as exc:
        below = isinstance(exc, AnnulusBelowResolution)
        text = str(exc) if below else f"analysis failed: {exc}"
        warnings.append(f"center {_loc_text(rec)}: {text}")
        block.update(status="below-resolution" if below else "failed",
                     ell=None, image_shape=None, certificates=[], note=str(exc))
        block["global"] = "inconclusive"
        return block, None, True

    est = rep.estimate
    ell_hi = "budget" if est.budget_exceeded else est.ell_hi
    image: dict = {"kind": rep.image.kind}
    if rep.image.radius is not None:
        image["radius"] = rep.image.radius
    block.update(status="ok", ell={"lo": est.ell_lo, "hi": ell_hi, "closure": est.closure},
                 image_shape=image,
                 certificates=[_certificate_block(c) for c in est.certificates])
    block["global"] = rep.verdict.verdict
    guess = est.guess
    if guess is not None and est.ell_lo > guess.h + est.tol:
        gx, gy = guess.point
        warnings.append(
            f"center {_loc_text(rec)}: certified bracket [{est.ell_lo:.9g}, "
            f"{est.ell_hi:.9g}] lies above the predicted window contact "
            f"h={guess.h:.9g} at ({gx:.6g}, {gy:.6g}); the prediction or the "
            f"orbits' window test is off")
    if not rep.spotcheck.clean:
        warnings.append(
            f"center {_loc_text(rec)}: injectivity spot check found "
            f"{len(rep.spotcheck.collisions)} collision(s)")
    inconclusive = rep.verdict.verdict == "inconclusive"
    if inconclusive:
        reasons = "; ".join(rep.verdict.reasons)
        warnings.append(f"center {_loc_text(rec)}: inconclusive: {reasons}")
    return block, rep, inconclusive


def _compactification_block(pmap: PlanarMap, reports: list[AnnulusReport],
                            warnings: list[str],
                            ) -> tuple[dict | str, int, int, bool]:
    """Returns (block, scan_work, fate_work, inconclusive)."""
    cf = compactification_for_map(pmap)
    if cf is None:
        return "not-applicable", 0, 0, False
    warnings.extend(cf.warnings)
    try:
        found = infinite_singularities(cf)
    except EquatorDegenerate as exc:
        warnings.append(f"compactification inconclusive: {exc}")
        return "not-applicable", SCAN_N, 0, True
    sings = [classify_sectors(cf, s) for s in found]
    fate_work = sum(len(s.evidence) for s in sings)
    if reports:
        verdict = conti_verdict(pmap, reports, sings)
        warnings.extend(f"conti: {note}" for note in verdict.notes)
        conti_type = verdict.conti_type
        routes_agree = verdict.routes_agree
    else:
        # no annulus route to compare the disc route with
        warnings.append("conti: skipped, no analyzed center")
        conti_type = "not-applicable"
        routes_agree = True
    block = {
        "degree": cf.degree,
        "infinite_singularities": [
            {"theta": s.theta, "classification": s.classification,
             "confidence": s.confidence}
            for s in sings
        ],
        "conti_type": conti_type,
        "routes_agree": routes_agree,
    }
    return block, SCAN_N, fate_work, False


def _search(pmap: PlanarMap, cfg: RunConfig):
    records, stats = search_zeros(
        pmap, cfg.box, cfg.grid_n if cfg.grid_n is not None else 32)
    warnings = [
        f"degenerate zero (det Df = 0) near ({x:.6g}, {y:.6g})"
        for x, y in stats.degenerate_points
    ]
    if not records:
        warnings.append("the zero search found no nondegenerate zero of f "
                        "in the search box")
    return records, stats, warnings


def _timings(**counts: int) -> dict:
    out: dict = {"unit": "work-items"}
    out.update(counts)
    return out


@cache
def _validator(kind: str):
    """The validator of one report kind, built on first use.

    The schemas are constants; the test suite checks them against their
    metaschema, so that check is not repeated for every report.
    """
    schema = SCHEMAS[kind]
    return jsonschema.validators.validator_for(schema)(schema)


def _write_json(doc: dict, path: str) -> None:
    """Validate against the published schema, then write; bug guard."""
    try:
        # the error jsonschema.validate would raise
        error = jsonschema.exceptions.best_match(
            _validator(doc["kind"]).iter_errors(doc))
        if error is not None:
            raise error
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except (jsonschema.ValidationError, ValueError) as exc:
        raise SchemaFailure(f"report failed schema validation: {exc}") from exc
    Path(path).write_text(text, encoding="utf-8")


def _write_svg(scene, path: str) -> None:
    Path(path).write_text(scene_to_svg(scene) + "\n", encoding="utf-8")


def _default_out(pmap: PlanarMap, subcommand: str, ext: str) -> str:
    base = pmap.name if pmap.name else "map"
    return f"{base}_{subcommand}.{ext}"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_centers(cfg: RunConfig) -> int:
    pmap = load_map(cfg.map_source, cfg.enable_extended)
    records, stats, warnings = _search(pmap, cfg)
    doc = {
        "kind": "centers",
        "config": _config_echo(cfg, "centers"),
        "map": _map_echo(pmap),
        "centers": [_center_core(r) for r in records],
        "warnings": warnings,
        "timings": _timings(center_seeds=stats.n_seeds),
    }
    out = cfg.out_report or _default_out(pmap, "centers", "json")
    _write_json(doc, out)
    print(f"{len(records)} center(s); wrote {out}")
    return EXIT_OK


def _assemble_report(pmap: PlanarMap, cfg: RunConfig, subcommand: str,
                     with_compactification: bool) -> tuple[dict, bool]:
    records, stats, warnings = _search(pmap, cfg)
    blocks: list[dict] = []
    reports: list[AnnulusReport] = []
    inconclusive = not records      # a report that analyzed nothing
    for rec in records:
        block, rep, flag = _analyze_center(pmap, rec, cfg, warnings)
        blocks.append(block)
        if rep is not None:
            reports.append(rep)
        inconclusive = inconclusive or flag
    timings = _timings(
        center_seeds=stats.n_seeds,
        orbit_points=sum(len(c.trace.points)
                         for rep in reports for c in rep.estimate.certificates),
        sign_proof_boxes=det_sign_proof(pmap).boxes if records else 0)
    doc = {
        "kind": "report" if with_compactification else "annulus",
        "config": _config_echo(cfg, subcommand),
        "map": _map_echo(pmap),
        "centers": blocks,
        "warnings": warnings,
        "timings": timings,
    }
    if with_compactification:
        cblock, scan_work, fate_work, cflag = _compactification_block(
            pmap, reports, warnings)
        doc["compactification"] = cblock
        timings.update(equator_scan=scan_work, fate_runs=fate_work)
        inconclusive = inconclusive or cflag
    return doc, inconclusive


def _cmd_annulus(cfg: RunConfig) -> int:
    pmap = load_map(cfg.map_source, cfg.enable_extended)
    doc, inconclusive = _assemble_report(pmap, cfg, "annulus", False)
    out = cfg.out_report or _default_out(pmap, "annulus", "json")
    _write_json(doc, out)
    print(f"{len(doc['centers'])} center(s); wrote {out}")
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _cmd_report(cfg: RunConfig, subcommand: str = "report",
                verdict_lines: bool = False) -> int:
    pmap = load_map(cfg.map_source, cfg.enable_extended)
    doc, inconclusive = _assemble_report(pmap, cfg, subcommand, True)
    out = cfg.out_report or _default_out(pmap, subcommand, "json")
    _write_json(doc, out)
    if verdict_lines:
        for block in doc["centers"]:
            verdict = block["global"]
            shown = "global(up-to-budget)" if verdict == "global" else verdict
            x, y = block["location"]
            print(f"center ({x:.6g}, {y:.6g}): {shown}")
        compact = doc["compactification"]
        conti = compact["conti_type"] if isinstance(compact, dict) else compact
        print(f"conti type: {conti}")
    print(f"wrote {out}")
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _cmd_global_check(cfg: RunConfig) -> int:
    return _cmd_report(cfg, subcommand="global-check", verdict_lines=True)


def _cmd_portrait(cfg: RunConfig) -> int:
    """Level sets with each disc-image center's rim dashed; per center it
    runs only the ell estimate, which carries the rim."""
    pmap = load_map(cfg.map_source, cfg.enable_extended)
    records, _, warnings = _search(pmap, cfg)
    kept: list[CenterRecord] = []
    estimates: list[annulus.EllEstimate] = []
    inconclusive = False
    for rec in records:
        try:
            # looked up on the module, where a tracer may wrap it
            est = annulus.estimate_ell(pmap, rec, h_max=cfg.h_max, tol=cfg.tol,
                                       budget=cfg.budget())
        except _CENTER_FAILURES as exc:
            warnings.append(f"center {_loc_text(rec)}: {exc}")
            inconclusive = True
            continue
        kept.append(rec)
        estimates.append(est)
    if cfg.levels is not None:
        levels: tuple[float, ...] = cfg.levels
    elif estimates:
        base = min(est.ell_lo for est in estimates)
        levels = tuple(f * base for f in (0.25, 0.5, 0.75))
    else:
        levels = ()
        inconclusive = True
    rims = [est.rim for est in estimates if image_shape(est).kind == "disc"]
    scene = plane_portrait(
        pmap, kept, rims, list(levels), box=cfg.box,
        grid_n=cfg.grid_n if cfg.grid_n is not None else 160,
        budget=cfg.budget())
    out = cfg.out_svg or _default_out(pmap, "portrait", "svg")
    _write_svg(scene, out)
    for line in (*warnings, *scene.warnings):
        print(line, file=sys.stderr)
    print(f"wrote {out}")
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def _cmd_disc(cfg: RunConfig) -> int:
    pmap = load_map(cfg.map_source, cfg.enable_extended)
    cf = compactification_for_map(pmap)
    sings = []
    if cf is not None:
        try:
            sings = [classify_sectors(cf, s)
                     for s in infinite_singularities(cf)]
        except EquatorDegenerate as exc:
            print(f"compactification inconclusive: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
    result = disc_portrait_for_map(pmap, cf, sings)
    if isinstance(result, DiscRefusal):
        print(result.reason, file=sys.stderr)
        return EXIT_INPUT
    out = cfg.out_svg or _default_out(pmap, "disc", "svg")
    _write_svg(result, out)
    print(f"wrote {out}")
    return EXIT_OK


_DISPATCH = {
    "centers": _cmd_centers,
    "annulus": _cmd_annulus,
    "global-check": _cmd_global_check,
    "portrait": _cmd_portrait,
    "disc": _cmd_disc,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# argv handling

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarham",
        description="centers, period annuli and injectivity certificates "
                    "for planar maps via their square-norm Hamiltonian")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    helps = {
        "centers": "find and classify the zeros of f",
        "annulus": "measure the period annulus around each center",
        "global-check": "decide global vs not-global for each center",
        "portrait": "SVG phase portrait of the Hamiltonian flow",
        "disc": "SVG portrait on the compactification disc",
        "report": "full pipeline, one JSON report",
    }
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--map", required=True, dest="map_source",
                       metavar="PATH|builtin:NAME",
                       help="map spec file, or one of the built-in examples")
        p.add_argument("--box", default=None, metavar="XMIN,XMAX,YMIN,YMAX",
                       help="working window (default: the map's domain)")
        p.add_argument("--grid", type=int, default=None, dest="grid_n",
                       help="grid resolution (default: per-stage)")
        p.add_argument("--h-max", type=float, default=None, dest="h_max",
                       help="energy ceiling for the level search")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="bracket width for the ell bisection")
        p.add_argument("--max-winding", type=int, default=3, dest="max_winding",
                       help="angle budget for orbit tracing, in turns")
        p.add_argument("--out", default=None,
                       help="output path (JSON report, or SVG for the "
                            "portrait and disc subcommands)")
        p.add_argument("--enable-extended", action="store_true",
                       help="allow the long-running extended fixtures")
        if name == "portrait":
            p.add_argument("--levels", default=None, metavar="H1,H2,...",
                           help="energy levels to draw (default: fractions "
                                "of the measured ell)")
    return parser


def _merge_value_flags(argv: list[str]) -> list[str]:
    """Join '--box -3,3,-3,3' into '--box=-3,3,-3,3'.

    argparse reads a bare value starting with '-' as an option name, so
    negative box corners only work in the '=' form; merging keeps the
    space-separated spelling usable too.
    """
    merged: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--box", "--levels") and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    box = _parse_box(ns.box) if ns.box is not None else None
    levels = None
    if getattr(ns, "levels", None) is not None:
        levels = _parse_levels(ns.levels)
    svg_command = ns.subcommand in ("portrait", "disc")
    return RunConfig(
        map_source=ns.map_source,
        box=box,
        grid_n=ns.grid_n,
        h_max=ns.h_max,
        tol=ns.tol,
        max_winding=ns.max_winding,
        out_report=None if svg_command else ns.out,
        out_svg=ns.out if svg_command else None,
        enable_extended=ns.enable_extended,
        levels=levels,
    )


def run_subcommand(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(_merge_value_flags(list(argv)))
    except SystemExit as exc:
        # argparse already printed usage; its error code is 2
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _config_from_args(ns)
        return _DISPATCH[ns.subcommand](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SchemaFailure as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


def main(argv: Sequence[str] | None = None) -> int:
    return run_subcommand(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    raise SystemExit(main())

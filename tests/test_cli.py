"""End-to-end checks of the command-line front end."""

import copy
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planarham.annulus as annulus_mod
import planarham.cli as cli
import planarham.compactify as compactify_mod
import planarham.field as field_mod
from planarham.cli import (InputError, RunConfig, SCHEMAS, _parse_box,
                           _parse_levels, load_map, run_subcommand)
from planarham.expr import MAX_POLY_DEGREE
from planarham.field import PLANE_BOX, Box, load_map_spec

TWO_PI = 2.0 * math.pi


def run(*argv):
    return run_subcommand(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- config plumbing -------------------------------------------------------

def test_run_config_invariants():
    good = RunConfig(map_source="builtin:identity")
    assert good.tol == 1e-6
    with pytest.raises(InputError):
        RunConfig(map_source="m", tol=0.0)
    with pytest.raises(InputError):
        RunConfig(map_source="m", tol=float("nan"))
    with pytest.raises(InputError):
        RunConfig(map_source="m", grid_n=7)
    with pytest.raises(InputError):
        RunConfig(map_source="m", h_max=-1.0)
    with pytest.raises(InputError):
        RunConfig(map_source="m", max_winding=0)
    with pytest.raises(InputError):
        RunConfig(map_source="m", levels=(0.1, -0.2))


def test_parse_box():
    box = _parse_box("-3,3,-1,1")
    assert (box.xmin, box.xmax, box.ymin, box.ymax) == (-3.0, 3.0, -1.0, 1.0)
    with pytest.raises(InputError):
        _parse_box("1,2,3")
    with pytest.raises(InputError):
        _parse_box("3,-3,0,1")
    with pytest.raises(InputError):
        _parse_box("a,b,c,d")


def test_parse_levels_sorts_and_dedupes():
    assert _parse_levels("0.3,0.1,0.3") == (0.1, 0.3)
    with pytest.raises(InputError):
        _parse_levels("0.1,x")


# --- full report on the bundled examples -----------------------------------

def test_report_example1(tmp_path):
    out = tmp_path / "r.json"
    assert run("report", "--map", "builtin:example1", "--tol", "1e-6",
               "--out", str(out)) == 0
    doc = read_json(out)
    jsonschema.validate(doc, SCHEMAS["report"])
    assert doc["map"]["f1"] == "exp(x) - 1"
    assert doc["compactification"] == "not-applicable"
    (center,) = doc["centers"]
    assert center["status"] == "ok"
    assert abs(center["ell"]["lo"] - 0.5) <= 1e-5
    assert abs(center["ell"]["hi"] - 0.5) <= 1e-5
    assert center["global"] == "not-global"
    assert center["image_shape"]["kind"] == "disc"
    assert abs(center["image_shape"]["radius"] - 1.0) <= 1e-5
    # the probe record keeps failed attempts above ell too
    good = [c for c in center["certificates"] if c["injective"]]
    assert good
    for cert in good:
        assert cert["closed"] and cert["winding"] == 1
        assert cert["h"] <= center["ell"]["lo"] + 1e-12
    assert any(not c["injective"] for c in center["certificates"])


def test_report_example2_compiles_each_interval_function_once(tmp_path, monkeypatch):
    # the sign proof and every bound of H at infinity share the map's two
    # compiled enclosures; a compile per call would cost 0.5-1.6 ms each
    compiles, calls = Counter(), Counter()
    compile_interval_jet = field_mod.compile_interval_jet
    h_bounds, det_sign = compactify_mod._h_bounds, field_mod.det_sign_on_cells

    def counted(f1, f2, values_only=False):
        compiles[values_only] += 1
        return compile_interval_jet(f1, f2, values_only)

    def tally(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(field_mod, "compile_interval_jet", counted)
    monkeypatch.setattr(compactify_mod, "_h_bounds", tally("h", h_bounds))
    monkeypatch.setattr(field_mod, "det_sign_on_cells", tally("det", det_sign))
    assert run("report", "--map", "builtin:example2", "--out", str(tmp_path / "r.json")) == 0
    assert compiles == {False: 1, True: 1}
    assert calls["det"] >= 1 and calls["h"] > 1


def test_report_example2_compactification(tmp_path):
    out = tmp_path / "r.json"
    assert run("report", "--map", "builtin:example2", "--out", str(out)) == 0
    doc = read_json(out)
    (center,) = doc["centers"]
    assert center["isochronous_hint"] is True
    assert center["global"] == "not-global"
    closed = [c for c in center["certificates"] if c["closed"]]
    assert closed
    for cert in closed:
        assert abs(cert["period"] - TWO_PI) <= 1e-4 * TWO_PI
    compact = doc["compactification"]
    assert compact["degree"] == 7
    assert compact["conti_type"] == "B"
    assert compact["routes_agree"] is True
    by_theta = {round(s["theta"], 6): s
                for s in compact["infinite_singularities"]}
    xdir = by_theta[0.0]
    ydir = by_theta[round(math.pi / 2, 6)]
    assert xdir["classification"] == "has-nondegenerate-sector"
    assert ydir["classification"] == "two-degenerate-hyperbolic"
    assert xdir["confidence"] >= 0.75 and ydir["confidence"] >= 0.75


def test_global_check_identity(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run("global-check", "--map", "builtin:identity",
               "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "global(up-to-budget)" in printed
    assert "conti type: A" in printed
    doc = read_json(out)
    (center,) = doc["centers"]
    assert center["global"] == "global"
    assert center["ell"]["hi"] == "budget"
    compact = doc["compactification"]
    assert compact["conti_type"] == "A"
    assert compact["infinite_singularities"] == []


def test_centers_example3_box(tmp_path):
    out = tmp_path / "c.json"
    # space-separated --box value starting with '-' must work
    assert run("centers", "--map", "builtin:example3",
               "--box", "-4,14,-4,14", "--out", str(out)) == 0
    doc = read_json(out)
    jsonschema.validate(doc, SCHEMAS["centers"])
    locs = [c["location"] for c in doc["centers"]]
    assert len(locs) == 3
    for k, (x, y) in enumerate(locs):
        assert abs(x) <= 1e-9
        assert abs(y - k * TWO_PI) <= 1e-9


def test_annulus_identity_budget_string(tmp_path):
    out = tmp_path / "a.json"
    assert run("annulus", "--map", "builtin:identity", "--out", str(out)) == 0
    doc = read_json(out)
    jsonschema.validate(doc, SCHEMAS["annulus"])
    assert doc["kind"] == "annulus"
    assert "compactification" not in doc
    assert doc["centers"][0]["ell"]["hi"] == "budget"


def test_report_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "same.json"
    argv = ("report", "--map", "builtin:identity", "--out", str(out))
    assert run(*argv) == 0
    first = out.read_bytes()
    assert run(*argv) == 0
    assert out.read_bytes() == first


def test_timings_are_work_counters(tmp_path):
    out = tmp_path / "t.json"
    assert run("report", "--map", "builtin:example1", "--out", str(out)) == 0
    timings = read_json(out)["timings"]
    assert timings["unit"] == "work-items"
    assert timings["center_seeds"] > 0
    assert timings["orbit_points"] > 0
    assert all(isinstance(v, int) for k, v in timings.items() if k != "unit")


@pytest.mark.parametrize("name,boxes", [
    ("example1", 64),               # det Df = e^x, proved on the first split
    ("example2", 5440 + 8596),      # undecided on the box, proved on the rim's disc
])
def test_center_block_counts_the_sign_proof_boxes(tmp_path, name, boxes):
    out = tmp_path / "a.json"
    assert run("annulus", "--map", f"builtin:{name}", "--out", str(out)) == 0
    doc = read_json(out)
    (center,) = doc["centers"]
    assert set(center["ell"]) == {"lo", "hi"}
    assert len(center["certificates"]) == 2
    assert doc["timings"]["sign_proof_boxes"] == boxes


def test_sign_proof_boxes_ignore_the_box(tmp_path):
    # --box sets no sign check of its own: the working box's check (5,440
    # boxes, undecided) and the rim disc's cover (8,596, proved)
    out = tmp_path / "r.json"
    assert run("report", "--map", "builtin:example2", "--box=-21,3,-3,3", "--grid", "64",
               "--out", str(out)) == 0
    assert read_json(out)["timings"]["sign_proof_boxes"] == 5440 + 8596


def test_domain_with_a_negative_exponent_echoes_back_as_a_spec(tmp_path):
    text = 'f1 = "x - 0.5"\nf2 = "y - 0.5"\ndomain = "box({})"\n'
    spec = tmp_path / "tiny.map"
    spec.write_text(text.format("1e-05, 1, 0, 1"), encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 0
    domain = read_json(out)["map"]["domain"]
    assert domain == [1e-05, 1.0, 0.0, 1.0]
    echo = tmp_path / "echo.map"
    echo.write_text(text.format(", ".join(map(repr, domain))), encoding="utf-8")
    assert load_map_spec(echo).domain == load_map_spec(spec).domain == Box(*domain)


# --- exit codes -------------------------------------------------------------

def test_input_errors_exit_2(tmp_path, capsys):
    assert run("report", "--map", "builtin:nope") == 2
    assert "unknown builtin" in capsys.readouterr().err
    assert run("report", "--map", str(tmp_path / "missing.map")) == 2
    assert run("report", "--map", "builtin:example1", "--tol", "0") == 2
    assert run("report", "--map", "builtin:example1", "--box", "3,-3,0,1") == 2
    assert run("report", "--map", "builtin:example1", "--grid", "4") == 2


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "out"
    argvs = [
        ("centers", "--map", "builtin:identity", "--grid", "8", "--out", str(out)),
        ("global-check", "--map", "builtin:identity", "--h-max", "0.3", "--out", str(out)),
        ("report", "--map", "builtin:identity", "--bogus"),        # usage error
        ("portrait", "--map", "builtin:identity", "--levels", "0.1,0.2",
         "--grid", "32", "--out", str(out)),
        ("centers", "--map", "builtin:identity", "--levels=0.1"),  # portrait-only flag
        ("disc", "--map", "builtin:identity", "--out", str(out)),
        ("centers", "--box", "-2,2,-2,2", "--map", "builtin:identity", "--out", str(out)),
    ]

    def results():
        got = []
        for argv in argvs:
            out.unlink(missing_ok=True)
            rc = run(*argv)
            captured = capsys.readouterr()
            body = out.read_bytes() if out.exists() else None
            got.append((rc, body, captured.out, captured.err))
        return got

    cached = results()
    assert [rc for rc, *_ in cached] == [0, 0, 2, 0, 2, 0, 0]
    assert "unrecognized arguments: --bogus" in cached[2][3]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert results() == cached


@pytest.mark.parametrize("argv, field", [
    (("report", "--box=-inf,inf,-1,1"), "box"),
    (("report", "--box=-1e400,1e400,-1,1"), "box"),
    (("report", "--h-max", "inf"), "h-max"),
    (("report", "--h-max", "1e400"), "h-max"),
    (("report", "--tol", "inf"), "tol"),
    (("report", "--tol", "1e400"), "tol"),
    (("portrait", "--box=-inf,inf,-1,1"), "box"),
    # finite corners, but a width that overflows to inf
    (("centers", "--box=-1e308,1e308,-1,1"), "box"),
])
def test_non_finite_flags_exit_2_without_output(tmp_path, capsys, argv, field):
    out = tmp_path / "out"
    assert run(argv[0], "--map", "builtin:identity", *argv[1:], "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not out.exists()


@pytest.mark.parametrize("domain", [
    "box(1, 0, 0, 1)", "box(-1e999, 1e999, -1, 1)", "box(-1e308, 1e308, -1, 1)",
])
def test_empty_or_non_finite_domain_exits_2(tmp_path, capsys, domain):
    spec = tmp_path / "d.map"
    spec.write_text(f'f1 = "x"\nf2 = "y"\ndomain = "{domain}"\n', encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "domain" in err
    assert not out.exists()


SHIFTED_ON_A_BOX = 'f1 = "x - 2"\nf2 = "y"\ndomain = "box(-1, 1, -1, 1)"\n'


def test_zero_search_keeps_to_the_domain(tmp_path):
    # f's only zero (2, 0) lies outside its domain: the box is clipped to
    # the domain, so no center is reported
    spec = tmp_path / "s.map"
    spec.write_text(SHIFTED_ON_A_BOX, encoding="utf-8")
    out = tmp_path / "r.json"
    assert run("report", "--map", str(spec), "--box=-3,3,-3,3", "--out", str(out)) == 3
    doc = read_json(out)
    assert doc["centers"] == []
    assert "the zero search found no nondegenerate zero of f in the search box" in doc["warnings"]


def test_box_missing_the_domain_exits_2(tmp_path, capsys):
    spec = tmp_path / "s.map"
    spec.write_text(SHIFTED_ON_A_BOX, encoding="utf-8")
    out = tmp_path / "r.json"
    assert run("report", "--map", str(spec), "--box=1.5,3,-1,1", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "misses the map's domain" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["centers", "portrait"])
@pytest.mark.parametrize("grid", [cli.MAX_GRID_N + 1, 20000, 10 ** 9])
def test_grid_past_the_cap_exits_2_without_output(tmp_path, capsys, subcommand, grid):
    # rejected before any grid is built
    out = tmp_path / "out"
    assert run(subcommand, "--map", "builtin:example1", "--grid", str(grid),
               "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: grid must be at most {cli.MAX_GRID_N}\n"
    assert not out.exists()


@pytest.mark.parametrize("f1", ["x + 1^1000000000", "(x + y + 1)^160"])
def test_map_past_the_degree_bound_exits_2_without_output(tmp_path, capsys, f1):
    spec = tmp_path / "big.map"
    spec.write_text(f'f1 = "{f1}"\nf2 = "y"\n', encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: big.map: f1: a polynomial of degree up to ")
    assert err.endswith(f", past the bound {MAX_POLY_DEGREE}\n")
    assert not out.exists()


def test_pinchuk_is_gated(tmp_path, monkeypatch, capsys):
    assert run("centers", "--map", "builtin:pinchuk200") == 2
    assert "--enable-extended" in capsys.readouterr().err
    with pytest.raises(InputError):
        load_map("builtin:pinchuk200")
    # the flag opens the gate (tiny box keeps it cheap); the environment
    # does not
    out = tmp_path / "p.json"
    assert run("centers", "--map", "builtin:pinchuk200", "--grid", "8",
               "--box", "-1,1,-1,1", "--enable-extended",
               "--out", str(out)) == 0
    monkeypatch.setenv("PLANARHAM_EXTENDED", "1")
    assert run("centers", "--map", "builtin:pinchuk200", "--grid", "8",
               "--box", "-1,1,-1,1", "--out", str(out)) == 2


def test_pinchuk200_report_analyzes_nothing_and_exits_3(tmp_path):
    # the grid-seeded search misses both zeros, so no center is analyzed;
    # both points at infinity are still classified, cheaply
    out = tmp_path / "p.json"
    assert run("report", "--map", "builtin:pinchuk200", "--enable-extended",
               "--out", str(out)) == 3
    doc = read_json(out)
    assert doc["centers"] == []
    compact = doc["compactification"]
    assert compact["conti_type"] == "not-applicable"
    assert "conti: skipped, no analyzed center" in doc["warnings"]
    assert [s["classification"] for s in compact["infinite_singularities"]] == [
        "has-nondegenerate-sector", "unclassified"]
    assert doc["timings"]["valley_depths"] == 20


def test_report_on_a_quintic_triangular_map_is_type_a(tmp_path):
    # (x, y + x^5) maps the plane onto itself: global, type A, and the
    # sector classifier must find H's valley along y = -x^5 to agree
    spec = tmp_path / "quintic.map"
    spec.write_text('f1 = "x"\nf2 = "y + x^5"\n', encoding="utf-8")
    out = tmp_path / "q.json"
    assert run("report", "--map", str(spec), "--out", str(out)) == 0
    doc = read_json(out)
    assert [c["global"] for c in doc["centers"]] == ["global"]
    compact = doc["compactification"]
    assert compact["conti_type"] == "A"
    assert compact["routes_agree"] is True


def test_inconclusive_exits_3_with_report(tmp_path):
    # det Df = 1 - 2x changes sign between the centers; (1, 0), where
    # det Df < 0, has its annulus bracketed as (0, 0) does
    spec = tmp_path / "flipper.map"
    spec.write_text('name = "flipper"\nf1 = "x*(1 - x)"\nf2 = "y"\n',
                    encoding="utf-8")
    out = tmp_path / "f.json"
    assert run("report", "--map", str(spec), "--h-max", "0.1",
               "--tol", "1e-3", "--out", str(out)) == 3
    doc = read_json(out)
    jsonschema.validate(doc, SCHEMAS["report"])
    statuses = {tuple(c["location"]): c["status"] for c in doc["centers"]}
    assert statuses == {(0.0, 0.0): "ok", (1.0, 0.0): "ok"}
    assert all(c["global"] == "inconclusive" for c in doc["centers"])
    assert any("jacobian-sign-change" in w for w in doc["warnings"])
    assert not any("below resolution" in w for w in doc["warnings"])


# maps with det Df < 0 on the plane: f reverses orientation
REVERSING = {"flip": ("x", "-y"),
             "affine": ("0.9*x + 0.2*y - 1", "0.3*x - 1.1*y + 2")}


@pytest.mark.parametrize("name", sorted(REVERSING))
def test_orientation_reversing_injective_map_is_global(tmp_path, name):
    spec = tmp_path / "m.map"
    f1, f2 = REVERSING[name]
    spec.write_text(f'f1 = "{f1}"\nf2 = "{f2}"\n', encoding="utf-8")
    out = tmp_path / "r.json"
    assert run("report", "--map", str(spec), "--out", str(out)) == 0
    doc = read_json(out)
    jsonschema.validate(doc, SCHEMAS["report"])
    (center,) = doc["centers"]
    assert center["status"] == "ok" and center["global"] == "global"
    assert center["ell"]["hi"] == "budget"
    assert doc["compactification"]["conti_type"] == "A"


def test_negated_example2_is_analyzed_as_example2(tmp_path):
    # (f1, -f2) has example2's H bit for bit and det Df of the other sign
    spec = tmp_path / "m.map"
    spec.write_text('f1 = "x/sqrt(1 + x^2)"\n'
                    'f2 = "-(x^2 + (1 + x^2)^2*y)/sqrt(1 + x^2)"\n'
                    'hamiltonian = "0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2"\n',
                    encoding="utf-8")
    docs = []
    for source in (str(spec), "builtin:example2"):
        out = tmp_path / "r.json"
        assert run("report", "--map", source, "--out", str(out)) == 0
        docs.append(read_json(out))
    (negated,), (original,) = (doc["centers"] for doc in docs)
    assert negated["global"] == "not-global"
    assert negated["ell"] == original["ell"]
    assert negated["ell"]["lo"] == pytest.approx(0.49875267, abs=1e-8)
    assert negated["image_shape"] == original["image_shape"]
    assert docs[0]["compactification"] == docs[1]["compactification"]


def test_conti_type_not_applicable_when_det_df_changes_sign(tmp_path):
    # three zeros, so f is not injective and type A would be false
    spec = tmp_path / "cubic.map"
    spec.write_text('name = "cubic"\nf1 = "x^3 - x"\nf2 = "y"\n',
                    encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("report", "--map", str(spec), "--out", str(out)) == 3
    doc = read_json(out)
    assert all(c["global"] == "inconclusive" for c in doc["centers"])
    compact = doc["compactification"]
    assert compact["conti_type"] == "not-applicable"
    assert compact["routes_agree"] is True


def test_schema_admits_an_undetermined_conti_type(tmp_path):
    out = tmp_path / "i.json"
    run("report", "--map", "builtin:identity", "--out", str(out))
    doc = read_json(out)
    doc["compactification"]["conti_type"] = "undetermined"
    jsonschema.validate(doc, SCHEMAS["report"])


def test_window_cut_bracket_holds_the_contact(tmp_path):
    # example3's center (0, -6 pi): the edge y = -20 cuts its annulus at
    # 1/2 sin^2 20, where its orbits leave the window between two
    # accepted steps; the window test on the step's interpolant sees it
    out = tmp_path / "e3.json"
    assert run("report", "--map", "builtin:example3", "--box=-2,2,-20,-17",
               "--out", str(out)) == 0
    doc = read_json(out)
    (center,) = doc["centers"]
    lo, hi, tol = center["ell"]["lo"], center["ell"]["hi"], doc["config"]["tol"]
    assert lo - tol <= 0.5 * math.sin(20.0) ** 2 <= hi + tol
    assert hi - lo <= tol
    assert not any("predicted window contact" in w for w in doc["warnings"])


@pytest.mark.parametrize("sub,ext", [("global-check", "json"), ("portrait", "svg")])
@pytest.mark.parametrize("source", ["builtin:identity", "affine"])
def test_budget_case_runs_skip_the_prediction(tmp_path, monkeypatch, sub, ext, source):
    # the least edge minimum is above 1, so it is h_max and no edge
    # minimum leaves room for a predicted pair below the top probe
    if source == "affine":
        source = str(tmp_path / "affine.map")
        (tmp_path / "affine.map").write_text(
            'f1 = "1.3*x + 0.3*y - 3.7"\nf2 = "-0.2*x + 0.8*y + 4.8"\n', encoding="utf-8")
    probes = []
    estimate_ell = annulus_mod.estimate_ell

    def recording(*args, **kwargs):
        est = estimate_ell(*args, **kwargs)
        probes.append(len(est.probes))
        return est

    def unexpected(pmap, center):
        raise AssertionError("predict_ell called")

    monkeypatch.setattr(annulus_mod, "estimate_ell", recording)
    monkeypatch.setattr(annulus_mod, "predict_ell", unexpected)
    assert run(sub, "--map", source, "--out", str(tmp_path / f"out.{ext}")) == 0
    assert probes == [1]


def test_bracket_above_the_predicted_contact_warns(tmp_path, monkeypatch):
    # a prediction below the certified bracket misses (both its probes
    # are certified), the bisection brackets the contact, and the report
    # says the two disagree
    guess = annulus_mod.EllGuess(h=0.3, point=(-0.5, -20.0))
    monkeypatch.setattr(annulus_mod, "predict_ell", lambda pmap, center: guess)
    out = tmp_path / "e3.json"
    assert run("report", "--map", "builtin:example3", "--box=-2,2,-20,-17",
               "--out", str(out)) == 0
    doc = read_json(out)
    (center,) = doc["centers"]
    lo, hi = center["ell"]["lo"], center["ell"]["hi"]
    assert lo > 0.3 + doc["config"]["tol"]
    (warning,) = [w for w in doc["warnings"] if "predicted" in w]
    assert warning.startswith("center (")
    assert "h=0.3 at (-0.5, -20)" in warning
    assert f"[{lo:.9g}, {hi:.9g}]" in warning
    assert warning.endswith("the prediction or the orbits' window test is off")


def test_predicted_bracket_does_not_warn(tmp_path):
    out = tmp_path / "e1.json"
    assert run("report", "--map", "builtin:example1", "--out", str(out)) == 0
    assert not any("predicted" in w for w in read_json(out)["warnings"])


def test_unevaluable_window_boundary_fails_the_center(tmp_path, capsys):
    # f is undefined outside the disc of radius 10, so on the whole edge of
    # the default window: there is no default h_max, and each center fails
    spec = tmp_path / "m.map"
    spec.write_text('f1 = "x*sqrt(100 - x^2 - y^2)/10"\n'
                    'f2 = "y*sqrt(100 - x^2 - y^2)/10"\n', encoding="utf-8")
    for sub, ext in (("report", "json"), ("annulus", "json"),
                     ("global-check", "json"), ("portrait", "svg")):
        out = tmp_path / f"{sub}.{ext}"
        capsys.readouterr()
        assert run(sub, "--map", str(spec), "--out", str(out)) == 3, sub
        assert out.exists(), sub
        if ext == "svg":
            assert "center (0, 0): could not evaluate f" in capsys.readouterr().err
            continue
        (center,) = read_json(out)["centers"]
        assert center["status"] == "failed", sub
        assert any(w.startswith("center (0, 0)") and "box boundary" in w
                   for w in read_json(out)["warnings"]), sub


def _assert_program_does_not_import(tmp_path, module):
    """Import the program, then run five subcommands on example2 in one
    subprocess; ``module`` must not be loaded after any step."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = [[]]
    for sub, ext in (("report", "json"), ("centers", "json"), ("global-check", "json"),
                     ("portrait", "svg"), ("disc", "svg")):
        # example2 has a polynomial H: its report scans the equator and
        # classifies sectors
        runs.append([sub, "--map", "builtin:example2", "--out", str(tmp_path / f"{sub}.{ext}")])
    code = ("import sys\n"
            "import planarham.cli as cli\n"
            f"for argv in {runs!r}:\n"
            "    if argv:\n"
            "        assert cli.run_subcommand(argv) == 0, argv\n"
            "    loaded = sorted(m for m in sys.modules\n"
            f"                    if m.split('.')[0] == {module!r})\n"
            "    assert not loaded, (argv, loaded[:3])\n")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / name).exists() for name in
               ("report.json", "centers.json", "global-check.json", "portrait.svg", "disc.svg"))


def test_program_does_not_import_sympy(tmp_path):
    # fiber elimination imports sympy on demand; a run must not load it,
    # which costs about a third more peak memory
    _assert_program_does_not_import(tmp_path, "sympy")


def test_program_does_not_import_scipy(tmp_path):
    # every call pays for its imports; scipy would more than double them
    _assert_program_does_not_import(tmp_path, "scipy")


def test_program_does_not_import_jsonschema(tmp_path):
    # reports are checked by cli._schema_error; jsonschema is the tests'
    # reference validator only
    _assert_program_does_not_import(tmp_path, "jsonschema")


def test_schemas_pass_their_metaschema():
    # reports are validated without this check, so it lives here
    for schema in SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)


# --- the report checker against jsonschema ---------------------------------

# what cli._schema_error implements; a schema keyword outside this set
# would go unchecked
CHECKED_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
                    "minItems", "maxItems", "minimum", "maximum", "enum", "const", "oneOf"}
JSON_TYPES = ("null", "boolean", "integer", "number", "string", "array", "object")


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    nested = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    if "items" in schema:
        nested.append(schema["items"])
    for sub in nested:
        yield from _subschemas(sub)


def test_schemas_use_only_checked_keywords():
    for kind, schema in SCHEMAS.items():
        subs = list(_subschemas(schema))
        assert any("minimum" in sub for sub in subs), kind    # the walk goes deep
        for sub in subs:
            assert set(sub) <= CHECKED_KEYWORDS, (kind, set(sub) - CHECKED_KEYWORDS)
            types = sub.get("type", [])
            assert set([types] if isinstance(types, str) else types) <= set(JSON_TYPES)
            assert sub.get("additionalProperties", False) is False
            assert isinstance(sub.get("items", {}), dict)
            for v in [*sub.get("enum", ()), *([sub["const"]] if "const" in sub else ())]:
                assert v is None or isinstance(v, (bool, int, float, str)), (kind, v)


def _agrees(schema, value) -> bool:
    """Whether the checker's verdict on ``value`` is jsonschema's."""
    oracle = jsonschema.validators.validator_for(schema)(schema)
    return (cli._schema_error(schema, value, "") is None) == oracle.is_valid(value)


@pytest.mark.parametrize("schema, value, valid", [
    ({"type": "integer"}, True, False),         # bool is not an integer
    ({"type": "number"}, False, False),         # nor a number
    ({"type": "integer"}, 1.0, True),           # an integral float is one
    ({"type": "integer"}, 1.5, False),
    ({"type": "integer"}, math.inf, False),
    ({"type": "number", "minimum": 0}, math.nan, True),   # json.dumps rejects nan
    ({"type": ["number", "null"]}, None, True),
    ({"const": 1}, True, False),                # true is not 1
    ({"const": 1}, 1.0, True),                  # but 1 is 1.0
    ({"enum": [0, "a"]}, False, False),
    ({"minimum": 0, "maxItems": 0, "required": ["a"]}, "x", True),  # keywords of other types
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 2, False),   # both branches
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 2.5, True),
    ({"oneOf": [{"type": "null"}, {"const": "a"}]}, "b", False),        # neither
    ({"type": "array", "items": {"type": "number"}, "minItems": 2}, [1.0], False),
    ({"type": "array", "maxItems": 1}, [1, 2], False),
    ({"properties": {"a": {"type": "string"}}, "additionalProperties": False},
     {"a": "x", "b": 1}, False),
    ({"properties": {"a": {"type": "string"}}}, {"a": "x", "b": 1}, True),
])
def test_checker_reads_keywords_as_json_schema(schema, value, valid):
    oracle = jsonschema.validators.validator_for(schema)(schema)
    assert oracle.is_valid(value) == valid
    assert (cli._schema_error(schema, value, "") is None) == valid


_SCALARS = st.sampled_from([None, True, False, 0, 1, 2, -1, 0.0, 1.0, 0.5, -0.5, "a", "b"])
_KEYS = st.sampled_from("abc")
_TYPES = st.sampled_from(JSON_TYPES)
_LEAF_KEYWORDS = {
    "type": _TYPES | st.lists(_TYPES, min_size=1, max_size=3, unique=True),
    "minimum": st.sampled_from([0, 0.5, 1]),
    "maximum": st.sampled_from([0, 1, 1.5]),
    "minItems": st.integers(0, 2),
    "maxItems": st.integers(0, 3),
    "enum": st.lists(_SCALARS, min_size=1, max_size=3),
    "const": _SCALARS,
    "required": st.lists(_KEYS, max_size=2, unique=True),
    "additionalProperties": st.just(False),
}
_SUBSET_SCHEMAS = st.recursive(
    st.fixed_dictionaries({}, optional=_LEAF_KEYWORDS),
    lambda inner: st.fixed_dictionaries({}, optional={
        **_LEAF_KEYWORDS,
        "properties": st.dictionaries(_KEYS, inner, max_size=2),
        "items": inner,
        "oneOf": st.lists(inner, min_size=1, max_size=3),
    }),
    max_leaves=5)
_JSON_VALUES = st.recursive(
    _SCALARS | st.sampled_from([1.5, math.nan, math.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=6)


@settings(max_examples=500, deadline=None)
@given(_SUBSET_SCHEMAS, _JSON_VALUES)
def test_checker_agrees_with_jsonschema_on_random_schemas(schema, value):
    assert _agrees(schema, value), cli._schema_error(schema, value, "")


@pytest.fixture(scope="module")
def real_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    # f is undefined outside the disc of radius 10: its center fails
    disc = tmp / "disc.map"
    disc.write_text('f1 = "x*sqrt(100 - x^2 - y^2)/10"\n'
                    'f2 = "y*sqrt(100 - x^2 - y^2)/10"\n', encoding="utf-8")
    docs = []
    for argv in (["report", "--map", "builtin:example2"],
                 ["report", "--map", str(disc)],           # a failed center
                 ["global-check", "--map", "builtin:example3", "--box=-3,3,-2,9",
                  "--grid", "64"],
                 ["annulus", "--map", "builtin:identity"],     # ell hi is "budget"
                 ["centers", "--map", "builtin:example3"]):
        out = tmp / f"{len(docs)}.json"
        assert run(*argv, "--out", str(out)) in (0, 3)
        docs.append(read_json(out))
    # the null ell and image shape and the note of a failed center
    assert any(c["status"] == "failed" for c in docs[1]["centers"])
    return docs


# wrong types, out-of-range values, other consts and enum values, wrong lengths
_REPLACEMENTS = (None, True, False, 0, 1, -1, 2, 1.0, 0.5, -0.5, 2.5, math.nan, -math.inf,
                 "x", "budget", "not-applicable", "work-items", "report", "centers", "ok",
                 "global", "disc", "A", [], [0.5], [0.5, 1.0], [0.5] * 4, [0.5] * 5, {},
                 {"kind": "disc"}, {"lo": 0.5, "hi": "budget"})


def _mutate(holder: list, path: tuple, data) -> None:
    """Apply one drawn mutation to the node at ``holder[path]``."""
    *head, key = path
    parent = holder
    for k in head:
        parent = parent[k]
    node = parent[key]
    op = data.draw(st.sampled_from(("replace", "retype", "drop", "extra", "grow", "shrink")))
    if op == "replace":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(_REPLACEMENTS)))
    elif op == "retype" and isinstance(node, (int, float)) and math.isfinite(node):
        # bool for a number, 1.0 for an integer, out of range below and above
        parent[key] = data.draw(st.sampled_from(
            [bool(node), int(node), float(node), -abs(node) - 1, node + 2]))
    elif op == "drop" and isinstance(node, dict) and node:
        del node[data.draw(st.sampled_from(sorted(node)))]
    elif op == "extra" and isinstance(node, dict):
        node["extra"] = 0
    elif op == "grow" and isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else 0.5)
    elif op == "shrink" and isinstance(node, list) and node:
        del node[data.draw(st.integers(0, len(node) - 1))]


def _paths(value, path=(0,)):
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, item in children:
        yield from _paths(item, (*path, key))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema_on_mutated_reports(real_reports, data):
    original = data.draw(st.sampled_from(real_reports))
    holder = [copy.deepcopy(original)]
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(holder, data.draw(st.sampled_from(list(_paths(holder[0])))), data)
    (doc,) = holder
    assert _agrees(SCHEMAS[original["kind"]], doc), cli._schema_error(
        SCHEMAS[original["kind"]], doc, "")


def test_report_scans_jacobian_sign_once(tmp_path, monkeypatch):
    # map-level facts are computed once per run, not once per center
    checks = []
    real = annulus_mod.jacobian_sign_change

    def checking(pmap):
        checks.append((pmap.working_box(), real(pmap)))
        return checks[-1][1]

    counts = Counter()

    def counted(name):
        real = getattr(annulus_mod, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(annulus_mod, name, wrapper)

    monkeypatch.setattr(annulus_mod, "jacobian_sign_change", checking)
    counted("eval_grid")
    out = tmp_path / "r.json"
    # the box reaches past the working window x >= -20, but the verdict
    # checks det Df's sign on the window alone
    run("report", "--map", "builtin:example3", "--box=-21,2,-2,9",
        "--out", str(out))
    doc = read_json(out)
    assert len(doc["centers"]) == 2
    assert all(c["status"] == "ok" for c in doc["centers"])
    distinct = list({id(c[1]): c for c in checks}.values())
    assert len(checks) == 2         # two centers, each judged once
    assert [(box, c.sign) for box, c in distinct] == [(PLANE_BOX, 1)]
    # one H grid over the working window for the ell prediction, and
    # one along the window's edges for its edge minima, f1 and f2
    # together: once per map
    assert counts == {"eval_grid": 2}


def test_report_traces_each_level_once(tmp_path, monkeypatch):
    # the rim is the estimate's own certified orbit, not a second trace
    calls = Counter()
    real = annulus_mod.winding_certificate

    def counting(pmap, center, h, **kwargs):
        calls[(center, h)] += 1
        return real(pmap, center, h, **kwargs)

    monkeypatch.setattr(annulus_mod, "winding_certificate", counting)
    out = tmp_path / "r.json"
    assert run("report", "--map", "builtin:example1", "--out", str(out)) == 0
    (center,) = read_json(out)["centers"]
    assert center["image_shape"]["kind"] == "disc"
    assert calls and max(calls.values()) == 1


def test_portrait_builds_no_region_spotcheck_or_verdict(tmp_path, monkeypatch):
    argv = ("portrait", "--map", "builtin:example1", "--out")
    plain, patched = tmp_path / "plain.svg", tmp_path / "patched.svg"
    assert run(*argv, str(plain)) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("portrait needs only the ell estimate")

    for name in ("region", "global_center_verdict"):
        monkeypatch.setattr(annulus_mod, name, refuse)
    assert run(*argv, str(patched)) == 0
    assert 'class="boundary"' in plain.read_text(encoding="utf-8")
    assert patched.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("sub", ["report", "annulus", "global-check"])
@pytest.mark.parametrize("name", ["example1", "example3"])
def test_reports_build_no_region(tmp_path, monkeypatch, capsys, sub, name):
    # the verdict's det Df sign proof guards injectivity: no stage
    # flood-fills the region, and the outputs do not depend on it
    out = tmp_path / "out.json"
    argv = (sub, "--map", f"builtin:{name}", "--out", str(out))
    capsys.readouterr()
    assert run(*argv) == 0
    plain, printed = out.read_bytes(), capsys.readouterr()
    assert len(read_json(out)["centers"]) == {"example1": 1, "example3": 7}[name]
    out.unlink()

    def refuse(*args, **kwargs):
        raise AssertionError("a report needs no region")

    monkeypatch.setattr(annulus_mod, "region", refuse)
    assert run(*argv) == 0
    assert out.read_bytes() == plain
    assert capsys.readouterr() == printed


def test_even_map_is_inconclusive_by_the_sign_check(tmp_path):
    # f = (x^2 - 1, y) folds along x = 0, where det Df = 2x changes sign:
    # the verdict says so, and no grid search for collisions warns
    spec = tmp_path / "even.map"
    spec.write_text('f1 = "x^2 - 1"\nf2 = "y"\n', encoding="utf-8")
    out = tmp_path / "r.json"
    assert run("report", "--map", str(spec), "--out", str(out)) == 3
    doc = read_json(out)
    (right,) = [c for c in doc["centers"] if c["location"] == [1.0, 0.0]]
    assert right["global"] == "inconclusive"
    assert any(w.startswith("center (1, 0): inconclusive: jacobian-sign-change")
               for w in doc["warnings"])
    assert not any("spot check" in w for w in doc["warnings"])
    # the mirror image (-1, 0), where det Df < 0, gets the same bracket
    assert [c["status"] for c in doc["centers"]] == ["ok", "ok"]
    left, right = doc["centers"]
    assert left["location"] == [-1.0, 0.0] and left["ell"] == right["ell"]
    assert right["ell"]["lo"] == pytest.approx(0.49999978, abs=1e-8)
    assert right["ell"]["hi"] == pytest.approx(0.50000052, abs=1e-8)


def test_declared_hamiltonian_validated_once(tmp_path, monkeypatch):
    calls = []
    real = field_mod.validate_hamiltonian

    def counting(pmap):
        calls.append(pmap.name)
        return real(pmap)

    monkeypatch.setattr(field_mod, "validate_hamiltonian", counting)
    spec = tmp_path / "round.map"
    spec.write_text('name = "round"\nf1 = "x"\nf2 = "y"\n'
                    'hamiltonian = "0.5*x^2 + 0.5*y^2"\n', encoding="utf-8")
    # a spec file's declared H is validated when it is loaded, and then
    # trusted by the compactification and the Conti verdict
    assert run("report", "--map", str(spec), "--out",
               str(tmp_path / "r.json")) == 0
    assert calls == ["round"]
    # a builtin's declared H is validated once, on first use
    calls.clear()
    assert run("disc", "--map", "builtin:example2", "--out",
               str(tmp_path / "d.svg")) == 0
    assert calls == ["example2"]


def test_schema_guard_exits_4(tmp_path, monkeypatch, capsys):
    def broken_core(rec):
        return {"location": [rec.location[0], rec.location[1]]}

    monkeypatch.setattr(cli, "_center_core", broken_core)
    out = tmp_path / "x.json"
    assert run("centers", "--map", "builtin:identity", "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert "schema" in err
    assert "centers[0]: 'det_df' is a required property" in err
    assert not out.exists()


@pytest.mark.parametrize("bad, named", [
    (math.nan, "centers[0].det_df: Out of range float"),
    (-math.inf, "centers[0].det_df: Out of range float"),
    # a number to JSON Schema that json cannot write
    (np.float32(0.5), "report: Object of type float32 is not JSON serializable"),
])
def test_report_value_json_cannot_carry_exits_4(tmp_path, monkeypatch, capsys, bad, named):
    center_core = cli._center_core

    def bad_core(rec):
        return {**center_core(rec), "det_df": bad}

    monkeypatch.setattr(cli, "_center_core", bad_core)
    out = tmp_path / "x.json"
    assert run("report", "--map", "builtin:identity", "--out", str(out)) == 4
    assert named in capsys.readouterr().err
    assert not out.exists()


# --- map spec files ---------------------------------------------------------

def test_map_file_with_declared_hamiltonian(tmp_path):
    spec = tmp_path / "clone.map"
    spec.write_text(
        'name = "ex2clone"\n'
        'f1 = "x/sqrt(1 + x^2)"\n'
        'f2 = "(x^2 + (1 + x^2)^2*y)/sqrt(1 + x^2)"\n'
        'hamiltonian = "0.5*(1 + x^2)^3*y^2 + x^2*(1 + x^2)*y + 0.5*x^2"\n'
        'domain = "plane"\n',
        encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["map"]["name"] == "ex2clone"
    assert doc["map"]["domain"] is None
    assert doc["map"]["declared_hamiltonian"] is not None


def test_no_center_where_f_is_undefined(tmp_path):
    # 0/y is undefined on y = 0, so (0, 0) is no zero of f, though every
    # other point of the line x = 0 is
    spec = tmp_path / "hole.map"
    spec.write_text('f1 = "x + 0/y"\nf2 = "y"\n', encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["centers"] == []
    assert doc["warnings"] == ["the zero search found no nondegenerate zero of f "
                               "in the search box"]


def test_declared_hamiltonian_on_a_domain_away_from_the_origin(tmp_path):
    # the domain does not meet [-3, 3]^2, so H is validated on the domain
    spec = tmp_path / "far.map"
    spec.write_text(
        'f1 = "x - 15"\nf2 = "y - 15"\n'
        'hamiltonian = "0.5*(x - 15)^2 + 0.5*(y - 15)^2"\n'
        'domain = "box(10, 20, 10, 20)"\n',
        encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 0
    assert [c["location"] for c in read_json(out)["centers"]] == [[15.0, 15.0]]


def test_unvalidatable_declared_hamiltonian_exits_2(tmp_path, capsys):
    # sqrt(x - 10) is undefined on the whole validation grid [-3, 3]^2
    spec = tmp_path / "far.map"
    spec.write_text('f1 = "sqrt(x - 10)"\nf2 = "y"\n'
                    'hamiltonian = "0.5*x - 5 + 0.5*y^2"\n', encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "declared hamiltonian" in err and "2500/2500" in err
    assert not out.exists()


def test_map_file_errors_exit_2(tmp_path, capsys):
    bad_key = tmp_path / "a.map"
    bad_key.write_text('f1 = "x"\nf2 = "y"\nfoo = "1"\n', encoding="utf-8")
    assert run("centers", "--map", str(bad_key)) == 2
    bad_expr = tmp_path / "b.map"
    bad_expr.write_text('f1 = "exp("\nf2 = "y"\n', encoding="utf-8")
    assert run("centers", "--map", str(bad_expr)) == 2
    missing_f2 = tmp_path / "c.map"
    missing_f2.write_text('f1 = "x"\n', encoding="utf-8")
    assert run("centers", "--map", str(missing_f2)) == 2
    bad_ham = tmp_path / "d.map"
    bad_ham.write_text('f1 = "x"\nf2 = "y"\nhamiltonian = "x"\n',
                       encoding="utf-8")
    assert run("centers", "--map", str(bad_ham)) == 2
    capsys.readouterr()


def test_non_finite_literal_exits_2(tmp_path, capsys):
    spec = tmp_path / "huge.map"
    spec.write_text('f1 = "1e999*x"\nf2 = "y"\n', encoding="utf-8")
    assert run("centers", "--map", str(spec)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'1e999' is not a finite float" in err
    # finite literals whose product overflows are as infinite
    for f1 in ("1e200*1e200*x", "1e200*1e200*exp(x) - 1"):
        spec.write_text(f'f1 = "{f1}"\nf2 = "y"\n', encoding="utf-8")
        for sub in ("centers", "report", "disc"):
            assert run(sub, "--map", str(spec),
                       "--out", str(tmp_path / "o")) == 2, (f1, sub)
            err = capsys.readouterr().err
            assert err.startswith("error:"), (f1, sub, err)
            assert "f1:" in err and "not evaluate to a finite number" in err
            assert not (tmp_path / "o").exists()


def test_overflowing_coefficient_exits_2(tmp_path, capsys):
    # the overflow folds across a variable: f1's own coefficient, or H's
    spec = tmp_path / "huge.map"
    for f1, field in (("1e200*x*1e200", "f1:"),
                      ("1e200*x", "H = (f1^2 + f2^2)/2:")):
        spec.write_text(f'f1 = "{f1}"\nf2 = "y"\n', encoding="utf-8")
        for sub in ("centers", "report", "disc"):
            assert run(sub, "--map", str(spec),
                       "--out", str(tmp_path / "o")) == 2, (f1, sub)
            err = capsys.readouterr().err
            assert err.startswith("error:"), (f1, sub, err)
            assert field in err and "not a finite number" in err, (f1, sub)
            assert not (tmp_path / "o").exists()


def test_overflowing_center_fails_as_that_center(tmp_path):
    # finite coefficients, but Df at the zero passes the overflow guard
    spec = tmp_path / "steep.map"
    spec.write_text('f1 = "1e152*x"\nf2 = "y"\n', encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 0
    (center,) = read_json(out)["centers"]
    assert center["det_df"] == 1e152 and center["eigen_omega"] == 1e152
    assert run("report", "--map", str(spec), "--out", str(out)) == 3
    doc = read_json(out)
    (center,) = doc["centers"]
    assert center["status"] == "below-resolution"
    assert center["global"] == "inconclusive"
    assert any(w.startswith("center (0, 0):") for w in doc["warnings"])


# H's coefficients are finite, but g = m H_m overflows (1e154 x^2), or
# its partial in x does (7.07e153 x^3, read on the touching-root branch)
OVERFLOWING_EQUATOR = ["1e154*x^2 + y", "7.07e153*x^3 + y"]


@pytest.mark.parametrize("f1", OVERFLOWING_EQUATOR)
def test_report_on_an_overflowing_equator_is_inconclusive(tmp_path, f1):
    spec = tmp_path / "m.map"
    spec.write_text(f'f1 = "{f1}"\nf2 = "x"\n', encoding="utf-8")
    out = tmp_path / "r.json"
    assert run("report", "--map", str(spec), "--out", str(out)) == 3
    doc = read_json(out)
    jsonschema.validate(doc, SCHEMAS["report"])
    assert doc["compactification"] == "not-applicable"
    assert ("compactification inconclusive: equator polynomial has a "
            "non-finite coefficient") in doc["warnings"]


@pytest.mark.parametrize("f1", OVERFLOWING_EQUATOR)
def test_disc_on_an_overflowing_equator_is_inconclusive(tmp_path, capsys, f1):
    spec = tmp_path / "m.map"
    spec.write_text(f'f1 = "{f1}"\nf2 = "x"\n', encoding="utf-8")
    out = tmp_path / "d.svg"
    assert run("disc", "--map", str(spec), "--out", str(out)) == 3
    assert "compactification inconclusive" in capsys.readouterr().err
    assert not out.exists()


def test_report_without_a_center_is_inconclusive(tmp_path):
    # f = (x^2, y): the only zero is degenerate, so no center is analyzed
    out = tmp_path / "r.json"
    for sub in ("report", "annulus", "global-check"):
        assert run(sub, "--map", "builtin:control_noninjective",
                   "--out", str(out)) == 3, sub
        doc = read_json(out)
        assert doc["centers"] == []
        assert ("the zero search found no nondegenerate zero of f in the search box"
                in doc["warnings"]), sub
        if sub != "annulus":
            # no annulus route was compared with the disc route
            assert doc["compactification"]["routes_agree"] is True


@pytest.mark.parametrize("f1", ["1e200*sin(x)*1e200", "1e200*exp(x)*1e200 - 1",
                                "sqrt(x - 19) - 0.5"])
def test_isochronous_hint_skips_unevaluable_samples(tmp_path, f1):
    # det Df overflows or leaves the domain at every (or almost every)
    # sampled point; the hint uses what evaluates and the run goes on
    spec = tmp_path / "m.map"
    spec.write_text(f'f1 = "{f1}"\nf2 = "y"\n', encoding="utf-8")
    out = tmp_path / "c.json"
    assert run("centers", "--map", str(spec), "--out", str(out)) == 0
    centers = read_json(out)["centers"]
    if f1.startswith("sqrt"):
        (center,) = centers
        assert center["location"] == [19.25, 0.0]
        assert center["isochronous_hint"] is False
    for sub, ext in (("report", "json"), ("portrait", "svg")):
        out = tmp_path / f"o.{ext}"
        assert run(sub, "--map", str(spec), "--out", str(out)) in (0, 3), (f1, sub)
        assert out.exists()


# --- figures ----------------------------------------------------------------

def test_portrait_svg(tmp_path):
    out = tmp_path / "p.svg"
    argv = ("portrait", "--map", "builtin:example1", "--box", "-3,3,-3,3",
            "--levels", "0.1,0.3", "--out", str(out))
    assert run(*argv) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    classes = {el.get("class") for el in root.iter() if el.get("class")}
    assert "level" in classes and "center" in classes
    first = out.read_bytes()
    assert run(*argv) == 0
    assert out.read_bytes() == first


def test_portrait_default_levels_from_ell(tmp_path):
    out = tmp_path / "p.svg"
    assert run("portrait", "--map", "builtin:example1", "--box", "-3,3,-3,3",
               "--out", str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert "level" in text


def test_disc_svg_example2(tmp_path):
    out = tmp_path / "d.svg"
    assert run("disc", "--map", "builtin:example2", "--out", str(out)) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    classes = [el.get("class") for el in root.iter() if el.get("class")]
    assert "equator" in classes
    assert classes.count("singularity") == 4
    texts = sorted(el.text for el in root.iter()
                   if el.tag.endswith("text") and el.get("class") == "label")
    assert texts == ["H", "H", "N", "N"]


def test_disc_refuses_nonpolynomial(tmp_path, capsys):
    assert run("disc", "--map", "builtin:example3",
               "--out", str(tmp_path / "d.svg")) == 2
    assert "polynomial" in capsys.readouterr().err
    assert not (tmp_path / "d.svg").exists()


def test_default_output_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("centers", "--map", "builtin:identity") == 0
    assert "wrote identity_centers.json" in capsys.readouterr().out
    assert (tmp_path / "identity_centers.json").exists()

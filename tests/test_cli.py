"""End-to-end checks of the command-line front end."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter

import jsonschema
import pytest

import planarham.annulus as annulus_mod
import planarham.cli as cli
import planarham.compactify as compactify_mod
import planarham.field as field_mod
from planarham.cli import (InputError, RunConfig, SCHEMAS, _parse_box,
                           _parse_levels, load_map, run_subcommand)
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


def test_sign_proof_boxes_count_the_verdict_box_too(tmp_path):
    # the working box's check (5,440 boxes, undecided), the verdict box's
    # own (5,184, proved) and the rim disc's cover (8,596, proved)
    out = tmp_path / "r.json"
    assert run("report", "--map", "builtin:example2", "--box=-21,3,-3,3", "--grid", "64",
               "--out", str(out)) == 0
    assert read_json(out)["timings"]["sign_proof_boxes"] == 5440 + 5184 + 8596


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
    spec = tmp_path / "flipper.map"
    spec.write_text('name = "flipper"\nf1 = "x*(1 - x)"\nf2 = "y"\n',
                    encoding="utf-8")
    out = tmp_path / "f.json"
    assert run("report", "--map", str(spec), "--h-max", "0.1",
               "--tol", "1e-3", "--out", str(out)) == 3
    doc = read_json(out)
    jsonschema.validate(doc, SCHEMAS["report"])
    statuses = {tuple(c["location"]): c["status"] for c in doc["centers"]}
    assert statuses[(0.0, 0.0)] == "ok"
    assert statuses[(1.0, 0.0)] == "below-resolution"
    assert all(c["global"] == "inconclusive" for c in doc["centers"])
    assert any("jacobian-sign-change" in w for w in doc["warnings"])
    assert any("below resolution" in w for w in doc["warnings"])


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


def test_coarse_region_grid_fails_the_center(tmp_path):
    # an 8x8 region grid cannot put example1's center cell below ell
    out = tmp_path / "r.json"
    assert run("report", "--map", "builtin:example1", "--grid", "8",
               "--out", str(out)) == 3
    doc = read_json(out)
    (center,) = doc["centers"]
    assert center["status"] == "failed"
    assert center["global"] == "inconclusive"
    assert any(w.startswith("center (") and "grid too coarse" in w
               for w in doc["warnings"])


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


def test_program_does_not_import_sympy(tmp_path):
    # fiber elimination imports sympy on demand; a run must not load it,
    # which costs about a third more peak memory
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = tmp_path / "r.json"
    code = ("import sys\n"
            "import planarham.cli as cli\n"
            f"rc = cli.run_subcommand(['report', '--map', 'builtin:identity', "
            f"'--out', {str(out)!r}])\n"
            "assert rc == 0, rc\n"
            "assert 'sympy' not in sys.modules\n")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_program_does_not_import_scipy(tmp_path):
    # every call pays for its imports; scipy would more than double them
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = [[]]
    for sub, ext in (("report", "json"), ("global-check", "json"),
                     ("portrait", "svg"), ("disc", "svg")):
        # example2 has a polynomial H: its report scans the equator and
        # classifies sectors, and runs the spot check
        runs.append([sub, "--map", "builtin:example2", "--out", str(tmp_path / f"{sub}.{ext}")])
    code = ("import sys\n"
            "import planarham.cli as cli\n"
            f"for argv in {runs!r}:\n"
            "    if argv:\n"
            "        cli.run_subcommand(argv)\n"
            "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "    assert not loaded, (argv, loaded[:3])\n")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / name).exists() for name in
               ("report.json", "global-check.json", "portrait.svg", "disc.svg"))


def test_schemas_pass_their_metaschema():
    # reports are validated without this check, so it lives here
    for schema in SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_report_scans_jacobian_sign_once(tmp_path, monkeypatch):
    # map-level facts are computed once per run, not once per center
    checks = []
    real = annulus_mod.jacobian_sign_change

    def checking(pmap, box=None):
        checks.append(real(pmap, box))
        return checks[-1]

    counts = Counter()

    def counted(name):
        real = getattr(annulus_mod, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(annulus_mod, name, wrapper)

    monkeypatch.setattr(annulus_mod, "jacobian_sign_change", checking)
    counted("default_h_max")
    counted("eval_grid")
    # the spot check samples a grid of its own per center: leave it out
    real_spotcheck = annulus_mod.injectivity_spotcheck

    def spotcheck_uncounted(*args, **kwargs):
        before = counts["eval_grid"]
        report = real_spotcheck(*args, **kwargs)
        counts["eval_grid"] = before
        return report

    monkeypatch.setattr(annulus_mod, "injectivity_spotcheck", spotcheck_uncounted)
    out = tmp_path / "r.json"
    # the box reaches past the working window x >= -20, so the verdict
    # checks det Df's sign on it, and its hypothesis on the window
    run("report", "--map", "builtin:example3", "--box=-21,2,-2,9",
        "--out", str(out))
    doc = read_json(out)
    assert len(doc["centers"]) == 2
    assert all(c["status"] == "ok" for c in doc["centers"])
    distinct = list({id(c): c for c in checks}.values())
    assert len(checks) == 4         # two centers, each judged on both boxes
    assert [(c.box, c.sign) for c in distinct] == [(Box(-21.0, 2.0, -2.0, 9.0), 1),
                                                  (PLANE_BOX, 1)]
    # one H grid for the region, which the verdict reads too, one over
    # the working window for the ell prediction, and one along the
    # window's edges for its edge minima, f1 and f2 each: once per map
    assert counts == {"default_h_max": 1, "eval_grid": 6}


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

    for name in ("region", "injectivity_spotcheck", "global_center_verdict"):
        monkeypatch.setattr(annulus_mod, name, refuse)
    assert run(*argv, str(patched)) == 0
    assert 'class="boundary"' in plain.read_text(encoding="utf-8")
    assert patched.read_bytes() == plain.read_bytes()


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
    assert "schema" in capsys.readouterr().err
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


def test_example3_report_has_no_spot_check_collision(tmp_path):
    # images of points near x = -12 are ~1e-6 apart because |Df| ~ e^x
    # is; the collision rule scales with Df, so this is no collision
    out = tmp_path / "e3.json"
    assert run("report", "--map", "builtin:example3", "--out", str(out)) == 0
    doc = read_json(out)
    assert len(doc["centers"]) == 7
    assert not any("injectivity spot check found" in w for w in doc["warnings"])


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

#!/usr/bin/env python3
"""Print one SHA-256 digest per benchmark invocation, to check byte identity.

    python3 tools/output_digest.py > new.txt
    python3 tools/output_digest.py --checkout ../other-checkout > old.txt
    diff old.txt new.txt

Runs every invocation of the three ``perfbench`` workloads for the given
seeds and rounds, then the runs of ``BUILTIN_RUNS`` (``report``,
``centers``, ``disc``, ``annulus``, ``portrait``, and ``report``,
``global-check`` and ``portrait`` with a window, grid, level list, level
ceiling, angle budget or tolerance of their own) on every builtin map
that needs no extended gate, the ``EXTENDED_RUNS`` on the gated ones,
and ``report`` on the ``SPEC_MAPS``, spec files written into the work
directory: two whose det Df < 0 (f reverses orientation), one whose
only center is below resolution and one undefined on a strip that its
orbits cross, all in one process through
``planarham.cli.run_subcommand``.
Each line is the invocation's label and a SHA-256 over its output file,
exit code, stdout and stderr, with the work directory's path replaced
by a fixed marker.  Two checkouts
whose programs write the same bytes print the same lines.

Every JSON output is also checked against its kind's schema in
``planarham.cli.SCHEMAS`` with jsonschema, the reference validator, when
jsonschema can be imported.  A mismatch is named on standard error and
the exit status is 1; the printed lines do not change.

``--checkout`` picks the source tree whose ``src/`` and
``perfbench/workloads.py`` are imported (default: the one holding this
script); neither is modified.

``--work`` prints, in place of the digests, each invocation's trial
orbit steps (``steps=``, counted by wrapping ``planarham.trace.dp5_step``),
then each JSON invocation's work and verdicts: its number of
certificates (summed over the centers), each analyzed
center's probes (``probes=``), how many of its certificates traced an
orbit (``traced=``) and how many the lift of an image ray settled alone
by leaving the window (``lift=``), its ``timings.sign_proof_boxes`` (the
boxes enclosed by every det Df sign check; ``-`` without the field),
its ``timings.orbit_points``, each center's ``global`` value and ``ell``
bracket as ``global[lo:hi]`` (``verdicts=``; ``-`` for a missing one)
and its infinite singular points as ``theta:classification``
(``sectors=``), then the totals and the most probes any one center
took.  The per-center counts come from wrapping
``planarham.annulus.estimate_ell``; a center whose estimate raises
``AnnulusBelowResolution`` counts the probes the exception keeps.  For
each ``disc`` SVG it prints the number of trajectories, how many of
them are closed (first point equal to the last) and their total points,
and for each ``portrait`` SVG the number of ``level`` polylines and
their total points, and adds these up in the totals.
Every invocation's line, portraits included, ends with the
``SearchStats.summary()`` of each zero search it ran (``search=``, ``-``
for none), from wrapping ``planarham.cli.search_zeros``, so that the
seed outcomes can be compared too.  Two checkouts that do different
amounts of work, or whose report bytes move only in confidences, can be
compared with it; where only the work moves, the exit codes and
``verdicts=`` stay put while ``steps=`` and the point counts differ:

    python3 tools/output_digest.py --work --checkout ../other-checkout > old.txt
    python3 tools/output_digest.py --work > new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

BUILTINS = ("example1", "example2", "example3", "identity", "control_noninjective")
# (subcommand, output extension, flags...) run on every builtin
BUILTIN_RUNS = (
    ("report", "json"),
    ("centers", "json"),
    ("disc", "svg"),
    ("annulus", "json"),
    ("portrait", "svg"),
    ("report", "json", "--box=-3,3,-2,9", "--grid", "64"),
    ("report", "json", "--box=-21,3,-3,3", "--grid", "64"),
    ("global-check", "json", "--h-max", "0.3", "--box=-4,4,-4,4"),
    ("portrait", "svg", "--box=-3,3,-2,9", "--grid", "64"),
    ("report", "json", "--max-winding", "2", "--tol", "1e-4"),
    ("portrait", "svg", "--grid", "400", "--levels=0.05,0.5,2"),
    ("report", "json", "--max-winding", "1"),
    # h_first = 0.4 leaves no room for the pair round ell = 0.5 below it:
    # top, bottom and bisection
    ("report", "json", "--tol", "0.4"),
)
# (builtin, subcommand, output extension, flags...): cheap runs on gated
# builtins, so their echoed components are digested too
EXTENDED_RUNS = (
    ("pinchuk200", "centers", "json", "--enable-extended", "--grid", "8", "--box=-1,1,-1,1"),
)
# (name, f1, f2): maps each reported from a spec file in the work
# directory: injective ones with det Df < 0 on the plane, one so steep
# that its only center's smallest probed level already fails, and one
# undefined on the strip |x| < 7.5e-5 that its orbits cross
SPEC_MAPS = (
    ("flip", "x", "-y"),
    ("affine-reversing", "0.9*x + 0.2*y - 1", "0.3*x - 1.1*y + 2"),
    ("steep", "1e152*x", "y"),
    ("domain-gap", "x - 1", "y + 0*sin(1e300*(1/(x*x)))"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="source tree to run (default: this script's)")
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    p.add_argument("--rounds", type=int, nargs="+", default=[0, 1])
    p.add_argument("--work", action="store_true",
                   help="print work counts and verdicts, not digests")
    return p.parse_args(argv)


def digest(run_subcommand, argv: list[str], out: Path, workdir: Path) -> tuple[int, str]:
    """Run one invocation; its exit code and the digest of what it wrote."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = run_subcommand(argv)
    marker = str(workdir).encode()
    h = hashlib.sha256()
    for part in (out.read_bytes() if out.exists() else b"<no output file>",
                 str(rc).encode(), stdout.getvalue().encode(), stderr.getvalue().encode()):
        part = part.replace(marker, b"<work>")
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return rc, h.hexdigest()


def work(out: Path) -> tuple[int, int | str, int, str, str] | None:
    """(certificates, sign proof boxes, orbit points, verdicts, sectors)
    of a JSON output; None without one.  ``verdicts`` lists each
    center's ``global[lo:hi]``.  ``sectors`` lists each infinite
    singular point's ``theta:classification``; it is ``-`` without a
    compactification block and the block itself when that is a string."""
    if not out.exists():
        return None
    doc = json.loads(out.read_text(encoding="utf-8"))
    certificates = sum(len(c.get("certificates", ())) for c in doc["centers"])
    timings = doc["timings"]
    block = doc.get("compactification", "-")
    sectors = block if isinstance(block, str) else ",".join(
        f"{s['theta']!r}:{s['classification']}" for s in block["infinite_singularities"])
    verdicts = ",".join(verdict(c) for c in doc["centers"])
    return (certificates, timings.get("sign_proof_boxes", "-"), timings.get("orbit_points", 0),
            verdicts, sectors)


def verdict(center: dict) -> str:
    """A center's ``global[lo:hi]``, ``-`` for what it lacks."""
    ell = center.get("ell") or {}
    return f"{center.get('global', '-')}[{ell.get('lo', '-')}:{ell.get('hi', '-')}]"


def svg_work(out: Path, disc: bool) -> dict[str, int] | None:
    """The polylines of a disc SVG (trajectories, closed ones, their
    points) or of a portrait SVG (levels, their points); None without
    one."""
    if not out.exists():
        return None
    role = "trajectory" if disc else "level"
    polylines = [el.get("points").split() for el in ET.parse(out).getroot().iter()
                 if el.tag.endswith("polyline") and el.get("class") == role]
    points = sum(map(len, polylines))
    if disc:
        return {"trajectories": len(polylines),
                "closed": sum(pts[0] == pts[-1] for pts in polylines), "disc_points": points}
    return {"levels": len(polylines), "level_points": points}


def probe_counts(estimates: list) -> tuple[list[int], list[int], list[int]]:
    """Per estimate (or the ``AnnulusBelowResolution`` that ended it): its
    probes, the certificates that traced an orbit and those whose lift
    left the window first (one escaped point)."""
    lifted = [[p.certificate.trace.outcome.kind == "escaped"
               and len(p.certificate.trace.points) == 1
               for p in est.probes if p.certificate is not None] for est in estimates]
    return ([len(est.probes) for est in estimates],
            [flags.count(False) for flags in lifted], [flags.count(True) for flags in lifted])


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = args.checkout.resolve()
    sys.dont_write_bytecode = True          # leave the checkout as it is
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    from planarham import annulus, cli, trace
    from planarham.cli import run_subcommand
    from workloads import WORKLOADS, argv_for, round_invocations, write_maps

    estimates: list = []            # those of the current invocation
    estimate_ell = annulus.estimate_ell

    def recording(*args_, **kwargs):
        try:
            est = estimate_ell(*args_, **kwargs)
        except annulus.AnnulusBelowResolution as exc:
            if hasattr(exc, "probes"):      # older checkouts keep only the last
                estimates.append(exc)
            raise
        estimates.append(est)
        return est

    annulus.estimate_ell = recording
    searches: list = []             # the SearchStats of the current invocation
    search_zeros = cli.search_zeros

    def searching(*args_, **kwargs):
        records, stats = search_zeros(*args_, **kwargs)
        searches.append(stats)
        return records, stats

    cli.search_zeros = searching
    steps = [0]                     # the trial orbit steps of the current invocation
    dp5_step = trace.dp5_step

    def stepping(*args_):
        steps[0] += 1
        return dp5_step(*args_)

    trace.dp5_step = stepping
    try:
        import jsonschema
    except ImportError:
        jsonschema = None
        print("jsonschema cannot be imported: JSON outputs are not checked against "
              "their schemas", file=sys.stderr)
    mismatches: list[str] = []

    def check_schema(label: str, out: Path) -> None:
        """Check a JSON output against its schema with jsonschema."""
        if jsonschema is None or out.suffix != ".json" or not out.exists():
            return
        doc = json.loads(out.read_text(encoding="utf-8"))
        schema = cli.SCHEMAS[doc["kind"]]
        error = jsonschema.exceptions.best_match(
            jsonschema.validators.validator_for(schema)(schema).iter_errors(doc))
        if error is not None:
            mismatches.append(label)
            print(f"{label}: {error.json_path}: {error.message}", file=sys.stderr)

    totals = dict.fromkeys(("steps", "certificates", "orbit_points", "probes", "traced", "lift",
                            "most_per_center", "trajectories", "closed", "disc_points",
                            "levels", "level_points"), 0)

    def run_one(label: str, argv_: list[str], out: Path, workdir: Path) -> None:
        estimates.clear()
        searches.clear()
        steps[0] = 0
        rc, hexd = digest(run_subcommand, argv_, out, workdir)
        check_schema(label, out)
        search = "search=" + ("; ".join(s.summary() for s in searches) or "-")
        totals["steps"] += steps[0]
        head = f"{label} rc={rc} steps={steps[0]}"
        if not args.work:
            print(f"{label} rc={rc} {hexd}", flush=True)
        elif argv_[0] in ("disc", "portrait"):
            listed = svg_work(out, argv_[0] == "disc")
            if listed is None:
                print(f"{head} <no output file> {search}", flush=True)
                return
            for key, n in listed.items():
                totals[key] += n
            print(f"{head} " + " ".join(f"{key}={n}" for key, n in listed.items())
                  + f" {search}", flush=True)
        else:
            counts = work(out)
            if counts is None:
                print(f"{head} <no output file> {search}", flush=True)
                return
            certificates, boxes, points, verdicts, sectors = counts
            per_center = dict(zip(("probes", "traced", "lift"), probe_counts(estimates)))
            totals["certificates"] += certificates
            totals["orbit_points"] += points
            for key, v in per_center.items():
                totals[key] += sum(v)
            totals["most_per_center"] = max([totals["most_per_center"], *per_center["probes"]])
            listed = " ".join(f"{key}={','.join(map(str, v)) or '-'}"
                              for key, v in per_center.items())
            print(f"{head} certificates={certificates} {listed} "
                  f"sign_proof_boxes={boxes} orbit_points={points} "
                  f"verdicts={verdicts or '-'} sectors={sectors or '-'} {search}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for workload in WORKLOADS:
            for seed in args.seeds:
                for index in args.rounds:
                    invs = round_invocations(workload, seed, index)
                    write_maps(invs, workdir)
                    for i, inv in enumerate(invs):
                        ext = "svg" if inv.subcommand in ("portrait", "disc") else "json"
                        out = workdir / f"out.{ext}"
                        run_one(f"{workload} seed={seed} round={index} #{i} {inv.label}",
                                argv_for(inv, workdir, out), out, workdir)
        runs = [(name, *run) for name in BUILTINS for run in BUILTIN_RUNS]
        for name, sub, ext, *flags in runs + list(EXTENDED_RUNS):
            out = workdir / f"out.{ext}"
            argv_ = [sub, "--map", f"builtin:{name}", *flags, "--out", str(out)]
            run_one(" ".join(["builtin", f"{sub}:{name}", *flags]),
                    argv_, out, workdir)
        for name, f1, f2 in SPEC_MAPS:
            spec, out = workdir / f"{name}.map", workdir / "out.json"
            spec.write_text(f'name = "{name}"\nf1 = "{f1}"\nf2 = "{f2}"\n', encoding="utf-8")
            run_one(f"spec report:{name}", ["report", "--map", str(spec), "--out", str(out)],
                    out, workdir)
    if args.work:
        print("total " + " ".join(f"{key}={n}" for key, n in totals.items()))
    if mismatches:
        print(f"{len(mismatches)} JSON output(s) failed their schema", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark's per-layer tracer still attaches to the program.

``perfbench/tracer.py`` reads the names of the program's layer functions
when it installs, and its callbacks read the shapes some of them return;
a renamed function or a changed result fails a traced benchmark run,
which this reproduces on small inputs.
"""

import sys
from pathlib import Path

import pytest

from planarham.cli import run_subcommand

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from tracer import Tracer, install
    finally:
        sys.path.remove(str(PERFBENCH))
    t = Tracer()
    try:
        install(t)
        t.enabled = True
        yield t
    finally:
        t.enabled = False
        t.restore()


def test_traced_runs_count_every_layer(tracer, tmp_path):
    # det Df's sign is proved for example1, but not for example2, whose
    # verdict scans for a sign change
    for argv in (["report", "--map", "builtin:example1"],
                 ["annulus", "--map", "builtin:example2"],
                 ["portrait", "--map", "builtin:identity", "--grid", "64"],
                 ["disc", "--map", "builtin:identity"]):
        out = tmp_path / f"{argv[0]}.out"
        assert run_subcommand([*argv, "--out", str(out)]) == 0, argv
    counts = tracer.counts
    assert counts["annulus.probes"] > 0
    assert counts["trace.steps"] > 0
    assert counts["trace.certificates"] > 0
    assert counts["trace.orbit_points"] > 0
    assert counts["expr.jet_compiles"] + counts["expr.jet_calls"] > 0
    # the report's stages are looked up through the modules' globals,
    # where the tracer patches them
    assert {span[0] for span in tracer.spans} >= {
        "trace.certificate", "trace.start", "annulus.estimate_ell",
        "annulus.region", "annulus.spotcheck", "annulus.verdict",
        "field.sign_scan", "render.portrait", "render.disc", "centers.search"}

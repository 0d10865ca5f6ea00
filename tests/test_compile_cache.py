"""Maps of one family compile their generated code once.

The benchmark's workloads run parameter families of maps, whose
generated code differs only in the constants it reads by name, so once
a round has compiled a family's sources no later round compiles again.
Counts misses of the cache of compiled sources; times nothing.
"""

import contextlib
import io
import sys
from pathlib import Path

from planarham import cli
from planarham.expr import compile_jet_pair

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    from workloads import argv_for, round_invocations, write_maps
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def _compiles(workload: str, round_index: int, workdir: Path) -> int:
    """Run one round of ``workload`` (seed 1) through ``run_subcommand``;
    the sources it compiled."""
    invs = round_invocations(workload, 1, round_index)
    write_maps(invs, workdir)
    misses = compile_jet_pair.cache_info().misses
    for k, inv in enumerate(invs):
        argv = argv_for(inv, workdir, workdir / f"out{k}")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run_subcommand(argv)
    return compile_jet_pair.cache_info().misses - misses


def test_fresh_small_maps_compile_nothing_after_the_first_round(tmp_path):
    _compiles("small-maps", 0, tmp_path)
    assert _compiles("small-maps", 1, tmp_path) == 0


def test_a_repeated_polynomial_round_compiles_nothing(tmp_path):
    _compiles("polynomial", 0, tmp_path)
    assert _compiles("polynomial", 0, tmp_path) == 0

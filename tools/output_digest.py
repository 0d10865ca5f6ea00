#!/usr/bin/env python3
"""Print one SHA-256 digest per benchmark invocation, to check byte identity.

    python3 tools/output_digest.py > new.txt
    python3 tools/output_digest.py --checkout ../other-checkout > old.txt
    diff old.txt new.txt

Runs every invocation of the three ``perfbench`` workloads for the given
seeds and rounds, then the runs of ``BUILTIN_RUNS`` (``report``, ``disc``,
``annulus``, ``portrait``, and ``report``, ``global-check`` and
``portrait`` with a window, grid, level ceiling, angle budget or
tolerance of their own) on every builtin map that
needs no extended gate, all in one process through
``planarham.cli.run_subcommand``.  Each line is the invocation's label
and a SHA-256 over its output file, exit code, stdout and stderr, with
the work directory's path replaced by a fixed marker.  Two checkouts
whose programs write the same bytes print the same lines.

``--checkout`` picks the source tree whose ``src/`` and
``perfbench/workloads.py`` are imported (default: the one holding this
script); neither is modified.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

BUILTINS = ("example1", "example2", "example3", "identity", "control_noninjective")
# (subcommand, output extension, flags...) run on every builtin
BUILTIN_RUNS = (
    ("report", "json"),
    ("disc", "svg"),
    ("annulus", "json"),
    ("portrait", "svg"),
    ("report", "json", "--box=-3,3,-2,9", "--grid", "64"),
    ("global-check", "json", "--h-max", "0.3", "--box=-4,4,-4,4"),
    ("portrait", "svg", "--box=-3,3,-2,9", "--grid", "64"),
    ("report", "json", "--max-winding", "2", "--tol", "1e-4"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent,
                   help="source tree to run (default: this script's)")
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    p.add_argument("--rounds", type=int, nargs="+", default=[0, 1])
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


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = args.checkout.resolve()
    sys.dont_write_bytecode = True          # leave the checkout as it is
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    from planarham.cli import run_subcommand
    from workloads import WORKLOADS, argv_for, round_invocations, write_maps

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
                        rc, hexd = digest(run_subcommand, argv_for(inv, workdir, out),
                                          out, workdir)
                        print(f"{workload} seed={seed} round={index} #{i} {inv.label} "
                              f"rc={rc} {hexd}", flush=True)
        for name in BUILTINS:
            for sub, ext, *flags in BUILTIN_RUNS:
                out = workdir / f"out.{ext}"
                argv_ = [sub, "--map", f"builtin:{name}", *flags, "--out", str(out)]
                rc, hexd = digest(run_subcommand, argv_, out, workdir)
                label = " ".join([f"{sub}:{name}", *flags])
                print(f"builtin {label} rc={rc} {hexd}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

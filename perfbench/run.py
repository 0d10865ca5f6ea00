#!/usr/bin/env python3
"""Run one benchmark workload through ``planarham.cli.run_subcommand``.

    python3 perfbench/run.py --workload transcendental --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run

1. times the set-up (a fresh interpreter importing ``planarham.cli`` and
   writing the workload's map files) five times in child processes and
   keeps the median;
2. runs one untimed warm-up round;
3. repeats whole rounds of the workload until ``--seconds`` have passed,
   timing each invocation and checking its output against the closed
   forms of ``oracles.py``;
4. prints one JSON object as the last line of standard output: the
   end-to-end metrics with ``--trace 0``, the per-layer metrics with
   ``--trace 1``.

The machine's speed drifts by a quarter within minutes, so every timed
invocation is bracketed by a fixed reference computation
(``reference_kernel``, pure-Python arithmetic that does not touch
``planarham``) and reported at reference speed: measured seconds times
``REF_S`` over the mean of the kernel's two durations around it.  The
raw times go to the results file as well.  ``setup_s`` is raw wall time.

With ``--trace 1`` untraced and traced rounds alternate, so the tracing
overhead is measured against the same run.  Each run also appends its
result, with every failed operation, to ``.bench_out/results.jsonl``
(``--results`` moves it); ``compare.py`` reads two such files.  Traced
runs write their spans to ``.bench_out/trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import check  # noqa: E402
from workloads import WORKLOADS, argv_for, round_invocations, write_maps  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60.0
REF_ITERS = 25_000
REF_S = 0.005          # reported times are seconds at the speed where the kernel takes this


def reference_kernel() -> float:
    """Wall time of a fixed interpreter-bound computation (a few ms)."""
    t0 = time.perf_counter()
    x, y, acc = 0.1, 0.2, 0.0
    for _ in range(REF_ITERS):
        x, y = y, math.sin(x) * 0.5 + math.exp(-abs(y)) * 0.3
        acc += math.hypot(x, y)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_S / (0.5 * (ref_before + ref_after))


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(ROOT / ".bench_out" / "results.jsonl"))
    p.add_argument("--setup-only", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)   # the child process of a set-up timing
    return p.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path) -> None:
    """What ``setup_s`` measures: import the CLI, write the map files."""
    import planarham.cli  # noqa: F401

    workdir.mkdir(parents=True, exist_ok=True)
    write_maps(round_invocations(workload, seed, 0), workdir)


def time_setup(args: argparse.Namespace, workdir: Path) -> float:
    """Median wall time of the set-up in fresh child interpreters."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0",
               "--setup-only", str(workdir / f"setup{i}")]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def invoke(run_subcommand, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = run_subcommand(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


class Run:
    """The rounds of one run: timings, checked operations, failures."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from planarham import cli
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.times: list[float] = []           # at reference speed
        self.raw_times: list[float] = []
        self.by_input: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: Counter = Counter()     # (input, op, fault, seeded, detail) -> count

    def round(self, index: int, timed: bool, tracer=None) -> float:
        """Run one round; returns the summed invocation time."""
        invs = round_invocations(self.workload, self.seed, index)
        write_maps(invs, self.workdir)
        total = 0.0
        ref = reference_kernel() if timed else 0.0
        for i, inv in enumerate(invs):
            out = self.workdir / (f"out{i}.svg" if inv.subcommand in ("portrait", "disc")
                                  else f"out{i}.json")
            out.unlink(missing_ok=True)
            argv = argv_for(inv, self.workdir, out)
            root = tracer.open_root("cli.run_subcommand") if tracer else None
            rc, stdout, dt = invoke(self.cli.run_subcommand, argv)
            if root is not None:
                tracer.close_root(root)
            total += dt
            if not timed:
                continue
            ref_after = reference_kernel()
            self.times.append(at_reference_speed(dt, ref, ref_after))
            self.raw_times.append(dt)
            self.by_input.setdefault(inv.label, []).append(dt)
            ref = ref_after
            for op in check(inv, rc, stdout, out):
                self.attempted += 1
                if not op.ok:
                    self.failures[(inv.label, op.name, op.fault, inv.map.seeded,
                                   op.detail)] += 1
        return total

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        """No failure outside the known faults, and none on a seeded input."""
        return all(fault != "new" and not seeded
                   for (_, _, fault, seeded, _) in self.failures)

    def failure_list(self) -> list[dict]:
        return [{"input": label, "op": op, "fault": fault, "seeded": seeded,
                 "detail": detail, "count": n}
                for (label, op, fault, seeded, detail), n in sorted(self.failures.items())]


def end_to_end(run: Run, setup_s: float) -> dict:
    """The end-to-end metrics; times at reference speed."""
    times = run.times
    return {
        "invocation_s_p50": {"value": statistics.median(times), "unit": "s"},
        "invocations_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }


def measure(run: Run, seconds: float) -> None:
    run.round(0, timed=False)                      # warm-up
    start = time.perf_counter()
    index = 1
    while index == 1 or time.perf_counter() - start < seconds:
        run.round(index, timed=True)
        index += 1


def measure_traced(run: Run, seconds: float, trace_dir: Path) -> dict:
    from tracer import Tracer, install, layer_metrics

    tracer = Tracer()
    install(tracer)
    try:
        run.round(0, timed=False)                  # warm-up, untraced
        start = time.perf_counter()
        untraced = traced = 0.0
        rounds = 0
        first_counts: Counter | None = None
        index = 1
        while rounds == 0 or time.perf_counter() - start < seconds:
            untraced += run.round(index, timed=True)
            tracer.enabled = True
            traced += run.round(index + 1, timed=True, tracer=tracer)
            tracer.enabled = False
            if first_counts is None:
                first_counts = Counter(tracer.counts)
                first_counts["tracer.spans"] = len(tracer.spans)
            rounds += 1
            index += 2
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer, rounds, first_counts)
    metrics["tracer.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    metrics["tracer.spans"] = float(first_counts["tracer.spans"])
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{run.workload}-seed{run.seed}-{os.getpid()}.json"
    path.write_text(json.dumps({"workload": run.workload, "seed": run.seed,
                                "rounds": rounds, "fields": ["name", "start", "end", "parent"],
                                "spans": tracer.spans}) + "\n", encoding="utf-8")
    units = {"_s": "s", "_pct": "%", "_ratio": "ratio", "_per_step": "1/step"}
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.setup_only is not None:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0
    try:
        import planarham.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import planarham from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, workdir)
        if args.trace:
            metrics = measure_traced(run, args.seconds, ROOT / ".bench_out" / "trace")
        else:
            setup_s = time_setup(args, workdir)
            measure(run, args.seconds)
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "failures": run.failure_list(),
              "median_s_by_input": {label: statistics.median(ts)
                                    for label, ts in sorted(run.by_input.items())}}
    if not args.trace:
        record["raw"] = {"invocation_s_p50": statistics.median(run.raw_times),
                         "invocations_per_s": len(run.raw_times) / sum(run.raw_times)}
    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for f in record["failures"]:
        print(f"failed x{f['count']}: {f['input']} {f['op']} [{f['fault']}] {f['detail']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

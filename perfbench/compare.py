#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py`` appends (one JSON object per run).
For every workload and end-to-end metric it prints both medians, each
set's spread (distance between the quartiles as a share of the median)
and whether NEW is worse than BASE by more than the metric's bound.  It
lists each workload's failed operations by fault (F1, F2,
false-collision, new), checks that both sets fail the same share of
operations, and that traced runs of the same seed give identical
counts.  Exits 1 when a bound is broken or the shares or counts differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    return (new - base) / base if better == "lower" else (base - new) / base


def by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]].append(r)
    return out


def fault_table(records: list[dict]) -> Counter:
    """Failed operations per (fault, input, op), per run on average."""
    table: Counter = Counter()
    for r in records:
        for f in r["failures"]:
            table[(f["fault"], f["input"], f["op"])] += f["count"]
    return table


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_all, new_all = load(argv[0]), load(argv[1])
    base, new = by_workload(base_all, 0), by_workload(new_all, 0)
    ok = True
    for wl in [w["name"] for w in bench["workloads"]]:
        b_runs, n_runs = base.get(wl, []), new.get(wl, [])
        if not b_runs or not n_runs:
            print(f"{wl}: missing runs (base {len(b_runs)}, new {len(n_runs)})")
            continue
        print(f"{wl}: {len(b_runs)} base runs, {len(n_runs)} new runs")
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = [r["result"]["metrics"][name]["value"] for r in b_runs]
            nv = [r["result"]["metrics"][name]["value"] for r in n_runs]
            bmed, nmed = statistics.median(bv), statistics.median(nv)
            w = worse_by(bmed, nmed, m["better"])
            verdict = "ok" if w <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"  {name:18s} base {bmed:10.5g} (spread {spread(bv):.3f})  "
                  f"new {nmed:10.5g} (spread {spread(nv):.3f})  "
                  f"worse by {w:+.3f} / bound {m['bound']}  {verdict}")
        shares = []
        for label, runs in (("base", b_runs), ("new", n_runs)):
            att = sum(r["result"]["attempted"] for r in runs)
            fail = sum(r["result"]["failed"] for r in runs)
            correct = all(r["result"]["correct"] for r in runs)
            per_run = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
            shares.append(per_run)
            print(f"  {label}: failed {fail}/{att} operations, correct={correct}, "
                  f"per-run failed shares {sorted(per_run)}")
            ok = ok and correct
            for (fault, inp, op), n in sorted(fault_table(runs).items()):
                print(f"    [{fault}] {inp} {op}: {n / len(runs):g} per run")
        if len(shares[0] | shares[1]) != 1:
            print("  failed shares differ between runs")
            ok = False

    tb, tn = by_workload(base_all, 1), by_workload(new_all, 1)
    for wl in sorted(set(tb) & set(tn)):
        bseed = {r["seed"]: r["result"]["metrics"] for r in tb[wl]}
        for r in tn[wl]:
            other = bseed.get(r["seed"])
            if other is None:
                continue
            diff = [k for k, v in r["result"]["metrics"].items()
                    if v["unit"] == "count" and other.get(k, {}).get("value") != v["value"]]
            status = "identical counts" if not diff else f"counts differ: {diff}"
            ok = ok and not diff
            print(f"{wl} traced seed {r['seed']}: {status}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

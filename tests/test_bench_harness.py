"""The benchmark harness runs every workload, checked and traced.

A deletion in the program that breaks a checked or traced benchmark run
(a name the tracer reads, an output the oracles check) fails here on a
one-second run of each workload.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(ROOT / "perfbench"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1",
         "--results", str(tmp_path / "results.jsonl")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] > 0

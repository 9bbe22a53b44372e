"""Per-layer counts repeat exactly between two traced runs of one seed.

Only the ``*_ms`` metrics and the tracing overhead may differ.  Run from
the repository root:

    python3 -m pytest perfbench/test_determinism.py -q

Each case makes two short traced runs (one untraced and one traced pass
each), about two minutes for all three workloads on a 2-core box.
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return result["metrics"]


def deterministic(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] != "ms" and not name.startswith("trace.overhead")}


@pytest.mark.parametrize("workload", ["corpus", "adjunct", "trace"])
def test_counts_repeat_between_traced_runs(workload):
    first, second = traced_run(workload, 7), traced_run(workload, 7)
    assert set(first) == set(second)
    counts = deterministic(first)
    assert counts == deterministic(second)
    assert counts["parser.edges"] > 0

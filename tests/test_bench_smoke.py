"""The benchmark runs end to end on the current sources.

``bench/run.py --trace 1`` wraps kmatch functions at the module attributes
the layers call each other through, for every workload, so these short runs
fail as soon as any of those names is renamed or deleted.  The generator
run also checks the matching the bench keeps from ``generator_algorithm``
through its ``sorted_edges()``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["oracle-n6", "generator-n1e5-d20"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, proc.stdout
    assert report["failed"] == 0
    assert report["attempted"] == 2

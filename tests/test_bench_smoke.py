"""The benchmark runs end to end on the current sources.

``bench/run.py --trace 1`` wraps kmatch functions at the module attributes
the layers call each other through, for every workload, so this one short
oracle run fails as soon as any of those names is renamed or deleted.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_workload_traced_run_is_correct():
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "oracle-n6",
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

"""The benchmark runs end to end on the current sources.

``bench/run.py --trace 1`` wraps kmatch functions at the module attributes
the layers call each other through, for every workload, so these short runs
fail as soon as any of those names is renamed or deleted.  The generator
run also checks the matching the bench keeps from ``generator_algorithm``
through its ``sorted_edges()``, and the greedy trial below checks the
graph's ``eu`` and ``ev``, the edge arrays the bench's checker reads.
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


_GREEDY_TRIAL = """
import json, sys
import numpy as np
sys.path.insert(0, "bench")
import probe, run
from spans import Tracer

km = probe.import_kmatch()
tracer = Tracer()
run.install_spans(tracer, km, True)
probe.RUNS.mkdir(exist_ok=True)
kind = run.TrialKind("greedy", 3000, 8, 2)
rc = kind.run(km, 5)
g = tracer.last["sample_gnp"]
failed, problems, _ = kind.finish(km, tracer.last, rc, True)
upper = [v for u in range(g.n) for v in g.neighbors(u).tolist() if v > u]
print(json.dumps({
    "rc": rc, "failed": failed, "problems": problems, "m": g.edge_count,
    "dtypes": [g.eu.dtype.name, g.ev.dtype.name], "sizes": [g.eu.size, g.ev.size],
    "eu": bool(np.array_equal(g.eu, np.repeat(np.arange(g.n), np.diff(g.upper_ptr)))),
    "ev": g.ev.tolist() == upper,
}))
"""


def test_traced_greedy_trial_exposes_the_edge_arrays():
    # the checker reads graph.eu and graph.ev of the graph the trial sampled
    proc = subprocess.run(
        [sys.executable, "-c", _GREEDY_TRIAL],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    m = got["m"]
    assert m > 0 and (got["rc"], got["failed"], got["problems"]) == (0, False, [])
    assert got["dtypes"] == ["int32", "int32"] and got["sizes"] == [m, m]
    assert got["eu"] and got["ev"]

"""Set-up probe: import ``kmatch`` from the checkout's ``src/`` and make
one warm-up call for a workload.

``run.py`` times ``python3 bench/probe.py <workload>`` in a fresh
interpreter as ``setup_s`` and calls ``warm_up`` in its own process before
it times anything.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"


def import_kmatch():
    """Import kmatch from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "kmatch" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kmatch
    import kmatch.cli
    import kmatch.oracle

    if Path(kmatch.__file__).resolve().parent != SRC / "kmatch":
        raise ImportError(f"kmatch was imported from {kmatch.__file__}")
    return kmatch


def warm_up(km, workload: str) -> None:
    """One small call through the same code paths as the workload."""
    if workload.startswith("oracle"):
        km.oracle.exact_expected_Xm(4, Fraction(1, 2), 3, 2, exact=True)
        km.oracle.exact_umk_distribution(4, 0.5, 2)
        return
    algorithm = workload.split("-")[0]
    RUNS.mkdir(exist_ok=True)
    for k in (2, 3):
        argv = [
            "--threads", "1", "experiment", "--n", "4000", "--d", "8",
            "--k", str(k), "--trials", "1", "--seed", "1",
            "--algorithm", algorithm, "--out", str(RUNS / "warm-up.csv"),
        ]
        rc = km.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"warm-up {argv} exited with {rc}")


if __name__ == "__main__":
    warm_up(import_kmatch(), sys.argv[1])

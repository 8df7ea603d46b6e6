"""The kmatch benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's two operation kinds against the
``kmatch`` sources in ``src/`` for about S seconds, checks every output
with ``checks.py`` in a forked child, and prints as its last line a JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from
spans recorded by ``spans.py``.  A report with every operation, its input
seed and output digest, and the per-kind figures goes to
``.bench_runs/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import probe
from spans import Tracer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
SETUP_PROBES = 11
RAISED = object()  # marks an operation that raised


def op_seed(seed: int, round_index: int, kind_index: int) -> int:
    """splitmix64 of the workload seed at offset 2*round + kind + 1."""
    z = (seed + (2 * round_index + kind_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def in_child(fn):
    """``fn()`` run in a forked child, its JSON-able result sent back through
    a pipe.  The checks run this way so that ``ru_maxrss`` of this process
    leaves the checker's arrays out of ``peak_rss_mb``, and so that the
    checker's allocations cannot change the heap later operations run on."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                out = fn()
            except Exception:
                out = [False, [f"the check raised {traceback.format_exc()}"], ""]
            with os.fdopen(wfd, "wb") as pipe:
                pipe.write(json.dumps(out).encode())
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return [False, [f"the checker ended with wait status {status}"], ""]
    return json.loads(data)


class TrialKind:
    """One ``kmatch experiment`` trial, run in-process through
    ``kmatch.cli.main`` with one worker thread and CSV to a file."""

    def __init__(self, algorithm: str, n: int, d: int, k: int) -> None:
        self.name = f"{algorithm}_k{k}_trial_s"
        self.algorithm, self.n, self.d, self.k = algorithm, n, d, k
        self.out = probe.RUNS / f"{algorithm}-k{k}.csv"

    def run(self, km, seed: int):
        argv = [
            "--threads", "1", "experiment", "--n", str(self.n), "--d", str(self.d),
            "--k", str(self.k), "--trials", "1", "--seed", str(seed),
            "--algorithm", self.algorithm, "--out", str(self.out),
        ]
        with contextlib.redirect_stderr(io.StringIO()):
            return km.cli.main(argv)

    def finish(self, km, last: dict, rc, first: bool) -> tuple[bool, list[str], str]:
        """(failed, problems, digest) of the trial just run, from the values
        its layers returned last."""
        graph = last.get("sample_gnp")
        matching = last.get(
            "greedy_k_matching" if self.algorithm == "greedy" else "generator_algorithm"
        )
        data = self.out.read_bytes() if rc == 0 else b""
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if rc != 0 or graph is None or matching is None or len(rows) != 1:
            return True, [], ""
        row = rows[0]
        if row["succeeded"] != "true":
            return True, [], ""
        pairs = matching.sorted_edges()
        mu = [u for u, _ in pairs]
        mv = [v for _, v in pairs]
        check = checks.check_greedy if self.algorithm == "greedy" else checks.check_generator
        problems = check(self.n, self.d, self.d / self.n, self.k, graph.eu, graph.ev, mu, mv)
        if (row["n"], row["k"], row["matching_size"]) != (
            str(self.n), str(self.k), str(len(pairs))
        ):
            problems.append(f"CSV row {row} disagrees with the trial's output")
        return False, problems, hashlib.sha256(data).hexdigest()


class OracleKind:
    """One exhaustive oracle call at n = 6."""

    def __init__(self, name: str, event: str) -> None:
        self.name, self.event = name, event

    def run(self, km, seed: int):
        if self.event == "xm":
            return km.oracle.exact_expected_Xm(6, Fraction(1, 2), 3, 2, exact=True)
        return km.oracle.exact_umk_distribution(6, 0.5, 2)

    def finish(self, km, last: dict, value, first: bool) -> tuple[bool, list[str], str]:
        digest = hashlib.sha256(repr(value).encode()).hexdigest()
        if self.event == "xm":
            janson = km.analytic.janson_matching(
                km.analytic.AsymptoticParams.from_np(6, 0.5, 3), 2
            )
            problems = checks.check_xm_sandwich(
                value, 6, 0.5, 2, janson.u, janson.u_exp_delta
            )
            small = km.oracle.exact_expected_Xm(5, Fraction(1, 2), 2, 2, exact=True)
            problems += checks.check_xm_k2_closed_form(small, 5, Fraction(1, 2), 2)
            return False, problems, digest
        problems = checks.check_umk_distribution(value, 6, 0.5)
        if first:
            # the same for every seed, so once per run
            problems += checks.check_umk_against(
                km.oracle.exact_umk_distribution(5, 0.5, 2),
                checks.umk_distribution_networkx(5, 0.5, 2),
            )
        return False, problems, digest


WORKLOADS = {
    "greedy-n1e6-d50": (TrialKind("greedy", 10**6, 50, 2), TrialKind("greedy", 10**6, 50, 3)),
    "generator-n1e5-d20": (
        TrialKind("generator", 10**5, 20, 2),
        TrialKind("generator", 10**5, 20, 3),
    ),
    "oracle-n6": (OracleKind("oracle_xm_s", "xm"), OracleKind("oracle_umk_s", "umk")),
}

# per-layer metric -> (unit, the per-operation span totals it sums)
LAYERS = {
    "graph.sample_gnp.s": ("s", ["graph.sample_gnp.s"]),
    "graph.distance_to_set.s": ("s", ["graph.distance_to_set.s"]),
    "graph.distance_to_set.calls": ("count", ["graph.distance_to_set.calls"]),
    "matching.generator_algorithm.far_rebuilds": (
        "count", ["graph.distance_to_set<matching.generator_algorithm.calls"]
    ),
    "matching.generator_algorithm.self_s": ("s", ["matching.generator_algorithm.self_s"]),
    "graph.bounded_ball.s": ("s", ["graph.bounded_ball.s"]),
    "graph.bounded_ball.calls": ("count", ["graph.bounded_ball.calls"]),
    "graph.bounded_ball.vertices": ("count", ["graph.bounded_ball.size"]),
    "matching.greedy_k_matching.self_s": ("s", ["matching.greedy_k_matching.self_s"]),
    "matching.is_k_matching.s": ("s", ["matching.is_k_matching.s"]),
    "experiments.far_check.s": (
        "s",
        [
            "graph.distance_to_set<experiments.run_trials.s",
            "graph.induced_edge_from_mask<experiments.run_trials.s",
        ],
    ),
    "oracle.exact_event_probability.s": ("s", ["oracle.exact_event_probability.s"]),
    "oracle.exact_event_probability.calls": ("count", ["oracle.exact_event_probability.calls"]),
    "oracle.masks": ("count", ["oracle.masks"]),
    "oracle.exact_umk_distribution.self_s": ("s", ["oracle.exact_umk_distribution.self_s"]),
    "matching.exact_um_k.s": ("s", ["matching.exact_um_k.s"]),
    "matching.exact_um_k.calls": ("count", ["matching.exact_um_k.calls"]),
    "graph.from_edges.s": ("s", ["graph.from_edges.s"]),
    "graph.from_edges.calls": ("count", ["graph.from_edges.calls"]),
    "experiments.run_trials.self_s": ("s", ["experiments.run_trials.self_s"]),
    "experiments.emit.s": ("s", ["experiments.emit.s"]),
    "cli.main.self_s": ("s", ["cli.main.self_s"]),
}


KEPT = {"sample_gnp", "greedy_k_matching", "generator_algorithm"}


def install_spans(tracer: Tracer, km, trace: bool) -> None:
    """Spans, when ``trace``, at the module attributes through which the
    layers call each other; the benchmark itself calls through kmatch.cli
    and kmatch.oracle.  Traced or not, the graph and the matching a trial's
    layers return are kept for the checks."""
    ex, mt, orc = km.experiments, km.matching, km.oracle
    for module, attr, name in [
        (km.cli, "main", "cli.main"),
        (ex, "run_trials", "experiments.run_trials"),
        (ex, "emit", "experiments.emit"),
        (ex, "sample_gnp", "graph.sample_gnp"),
        (ex, "greedy_k_matching", "matching.greedy_k_matching"),
        (ex, "generator_algorithm", "matching.generator_algorithm"),
        (ex, "is_k_matching", "matching.is_k_matching"),
        (ex, "distance_to_set", "graph.distance_to_set"),
        (ex, "_induced_edge_from_mask", "graph.induced_edge_from_mask"),
        (mt, "distance_to_set", "graph.distance_to_set"),
        (orc, "exact_expected_Xm", "oracle.exact_expected_Xm"),
        (orc, "exact_event_probability", "oracle.exact_event_probability"),
        (orc, "exact_umk_distribution", "oracle.exact_umk_distribution"),
        (orc, "exact_um_k", "matching.exact_um_k"),
        (orc, "from_edges", "graph.from_edges"),
    ]:
        keep = module is ex and attr in KEPT
        if trace or keep:
            tracer.span(module, attr, name if trace else None, keep=keep)
    if trace:
        tracer.span(mt, "bounded_ball", "graph.bounded_ball", size=len)
        tracer.count(orc, "MaskGraph", "oracle.masks")


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter running the set-up probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls, in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(Path(probe.__file__)), workload],
            cwd=probe.ROOT, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    kinds = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    try:
        setup_s = None if args.trace else measure_setup(args.workload)
        km = probe.import_kmatch()
    except (OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    probe.RUNS.mkdir(exist_ok=True)

    tracer = Tracer()
    install_spans(tracer, km, bool(args.trace))
    with contextlib.redirect_stderr(io.StringIO()):
        probe.warm_up(km, args.workload)
    start = time.perf_counter()
    if isinstance(kinds[0], TrialKind):
        # The first full-size trial in a process ran up to 1.6 s slower than
        # later ones; take it untimed, inside the measured window.
        kinds[0].run(km, op_seed(args.seed, -1, 0))
    tracer.last.clear()

    ops, problems = [], []
    while True:
        r = len(ops) // len(kinds)
        for j, kind in enumerate(kinds):
            seed = op_seed(args.seed, r, j)
            gc.collect()
            tracer.op = len(ops)
            t0 = time.perf_counter()
            try:
                out = kind.run(km, seed)
            except Exception:  # a failed operation; the run goes on
                traceback.print_exc()
                out = RAISED
            wall = time.perf_counter() - t0
            tracer.op = -1
            if out is RAISED:
                failed, found, digest = True, [], ""
            else:
                failed, found, digest = in_child(
                    lambda: kind.finish(km, tracer.last, out, first=r == 0)
                )
            tracer.last.clear()
            del out
            check_s = time.perf_counter() - t0 - wall
            problems += [f"{kind.name} seed {seed}: {p}" for p in found]
            ops.append({"kind": kind.name, "round": r, "seed": seed, "wall_s": wall,
                        "check_s": check_s, "failed": failed, "digest": digest})
        elapsed = time.perf_counter() - start
        if elapsed * (r + 2) / (r + 1) > args.seconds:
            break  # another round would overrun --seconds
    rounds = len(ops) // len(kinds)
    round_wall = [sum(o["wall_s"] for o in ops[r * len(kinds):(r + 1) * len(kinds)])
                  for r in range(rounds)]
    by_kind = {k.name: statistics.median(o["wall_s"] for o in ops if o["kind"] == k.name)
               for k in kinds}
    figures = {"wall_s": statistics.median(round_wall), **by_kind}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "ops": ops, "problems": problems, "figures": figures}

    if args.trace:
        per_op = tracer.metrics_by_op()
        per_kind = {}
        for kind in kinds:
            mine = [per_op.get(i, {}) for i, o in enumerate(ops) if o["kind"] == kind.name]
            per_kind[kind.name] = {k: v for k, v in layer_values(mine).items() if v}
        per_round = [
            {key: sum(per_op.get(r * len(kinds) + j, {}).get(key, 0.0)
                      for j in range(len(kinds)))
             for key in {k for m in per_op.values() for k in m}}
            for r in range(rounds)
        ]
        values = layer_values(per_round)
        report["layers_per_kind"] = per_kind
        untraced = probe.RUNS / f"{tag}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["figures"]["wall_s"]
            report["trace_overhead_s"] = figures["wall_s"] - base
        tracer.dump(str(probe.RUNS / f"{tag}-spans.npz"))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in LAYERS.items()}
    else:
        figures["setup_s"] = setup_s
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": figures["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": figures["peak_rss_mb"], "unit": "MB"},
            "op1_s": {"value": by_kind[kinds[0].name], "unit": "s"},
            "op2_s": {"value": by_kind[kinds[1].name], "unit": "s"},
        }
    (probe.RUNS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    for name, value in figures.items():
        print(f"{args.workload} {name} {value!r}")
    for kind, values in report.get("layers_per_kind", {}).items():
        for name, value in values.items():
            print(f"{args.workload} {kind} {name} {value!r}")
    if "trace_overhead_s" in report:
        print(f"{args.workload} trace_overhead_s {report['trace_overhead_s']!r}")
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(o["failed"] for o in ops),
        "metrics": metrics,
    }))
    return 0


def layer_values(per_op: list[dict]) -> dict[str, float]:
    """Each per-layer metric over a list of per-operation (or per-round)
    span totals: times are the median, counts are the first entry's, so
    they repeat exactly for a fixed seed."""
    out = {}
    for name, (unit, keys) in LAYERS.items():
        vals = [sum(m.get(k, 0.0) for k in keys) for m in per_op]
        out[name] = (statistics.median(vals) if unit == "s" else int(vals[0])) if vals else 0
    return out


if __name__ == "__main__":
    sys.exit(main())

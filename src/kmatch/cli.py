"""Command-line front end.

Subcommands: gen, greedy, generator, exact, bounds, oracle, experiment,
theorem51, layers.  Every randomized subcommand requires --seed so runs are
reproducible by default.  Exit codes: 0 success, 1 usage error, 2
algorithmic failure (e.g. the generator stalled).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from . import analytic, experiments, matching, oracle
from .graph import GnpParams, read_edge_list, sample_gnp, write_edge_list

__all__ = ["main", "entry_point"]


class _Parser(argparse.ArgumentParser):
    # Flags are spelled in full: with abbreviations --s would bind to --seed.
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # algorithmic failures, so remap.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """Integer flag that accepts scientific notation ('1e6')."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    out = int(round(value))
    if abs(value - out) > 1e-6 * max(1.0, abs(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    return out


def _pairs(text: str) -> int:
    """--s: a pair count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_graph_source(p: argparse.ArgumentParser, need_seed: bool) -> None:
    p.add_argument("--input", help="read the graph from an edge-list file")
    p.add_argument("--n", type=_count, help="vertex count (scientific notation ok)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--d", type=float, help="expected degree d = n*p")
    group.add_argument("--p", type=float, help="edge probability")
    p.add_argument(
        "--seed",
        type=int,
        required=need_seed,
        help="64-bit seed; required, runs are reproducible by default",
    )


def _add_scale(p: argparse.ArgumentParser, with_k: bool = True) -> None:
    """--n, exactly one of --d and --p, and --k unless with_k is False."""
    p.add_argument("--n", type=_count, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=float)
    group.add_argument("--p", type=float)
    if with_k:
        p.add_argument("--k", type=int, required=True)


def _resolve_graph(args: argparse.Namespace):
    # gen, greedy, generator and exact hand --seed to numpy unmasked
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    if getattr(args, "input", None):
        if args.n is not None or args.d is not None or args.p is not None:
            raise ValueError("--input cannot be combined with --n, --d or --p")
        return read_edge_list(args.input)
    if args.n is None:
        raise ValueError("one of --input or --n is required")
    if args.seed is None:
        raise ValueError("--seed is required when sampling a graph")
    if args.p is not None:
        p = args.p
    elif args.d is not None:
        p = args.d / args.n if args.n else 0.0
    else:
        raise ValueError("one of --d or --p is required")
    return sample_gnp(GnpParams(args.n, p, args.seed))


def _params_from_args(args: argparse.Namespace) -> analytic.AsymptoticParams:
    if args.d is not None:
        return analytic.AsymptoticParams.from_nd(args.n, args.d, args.k)
    return analytic.AsymptoticParams.from_np(args.n, args.p, args.k)


def _cmd_gen(args) -> int:
    g = _resolve_graph(args)
    write_edge_list(g, args.out or sys.stdout)
    print(f"sampled n={g.n} m={g.edge_count}", file=sys.stderr)
    return 0


def _cmd_matching(args) -> int:
    """greedy, generator and exact: one k-matching of one graph."""
    g = _resolve_graph(args)
    if args.command == "greedy":
        m = matching.greedy_k_matching(g, args.k, args.seed)
    elif args.command == "generator":
        s = args.s
        if s is None:
            # a sampled graph targets its configured degree, as `experiment`
            # does; an --input graph its mean degree
            params = (
                analytic.AsymptoticParams.from_nd(g.n, g.mean_degree(), args.k)
                if args.input
                else _params_from_args(args)
            )
            s = analytic.default_pair_count(params)
        m = matching.generator_algorithm(g, args.k, args.seed, s)
    else:
        _, m = matching.exact_um_k(g, args.k, edge_cap=args.edge_cap)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(m.to_text())
    print(f"size {m.size}")
    if not args.out:
        sys.stdout.write(m.to_text())
    return 0


def _cmd_bounds(args) -> int:
    params = _params_from_args(args)
    b = analytic.bounds(params, eps=args.eps)
    payload = {
        "upper": b.upper,
        "lower_maximal": b.lower_maximal,
        "generator_target": b.generator_size_target,
        "m_star": b.m_star,
        "s": b.s,
        "A": b.a_far,
        "p_d": b.p_d,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key.ljust(width)} : {value!r}")
    return 0


def _cmd_oracle(args) -> int:
    if args.event == "dist":
        if args.u is None or args.v is None:
            raise ValueError("--event dist needs --u and --v")
        value = oracle.exact_prob_distance_ge_k(args.n, args.p, args.k, args.u, args.v)
    elif args.event == "kmatch":
        if not args.edges:
            raise ValueError("--event kmatch needs at least one --edge u,v")
        pairs = [_parse_edge(e) for e in args.edges]
        value = oracle.exact_prob_k_matching(args.n, args.p, args.k, pairs)
    elif args.event == "xm":
        if args.m is None:
            raise ValueError("--event xm needs --m")
        value = oracle.exact_expected_Xm(args.n, args.p, args.k, args.m)
    else:  # umk; argparse restricts the choices
        value = {
            str(size): prob
            for size, prob in oracle.exact_umk_distribution(
                args.n, args.p, args.k
            ).items()
        }
    print(
        json.dumps(
            {"event": args.event, "n": args.n, "p": args.p, "k": args.k, "value": value}
        )
    )
    return 0


def _parse_edge(text: str) -> tuple[int, int]:
    parts = text.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(f"--edge expects 'u,v', got {text!r}")
    return int(parts[0]), int(parts[1])


def _cmd_trials(args) -> int:
    """experiment, theorem51 and layers: seeded trials at one (n, d, k)."""
    cfg = experiments.TrialConfig(
        n=args.n,
        k=args.k,
        trials=args.trials,
        base_seed=args.seed,
        algorithm=args.algorithm,
        d=args.d,
        p=args.p,
        measure_runtime=args.measure_runtime,
        s_override=args.s,
    )
    # built per call, so a rebound experiments attribute (bench/run.py wraps
    # them by name) is the one that runs
    run = {
        "experiment": experiments.run_trials,
        "theorem51": experiments.verify_theorem_5_1,
        "layers": experiments.verify_layer_growth,
    }[args.command]
    records, summary = run(cfg, workers=args.threads)
    experiments.emit(records, summary, args.format, args.out or sys.stdout, cfg)
    print(json.dumps(asdict(summary)), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kmatch",
        description=(
            "Distance-k matchings in G(n,p): sampling, construction, exact "
            "tiny-instance oracles, closed-form size bounds, and Monte Carlo "
            "verification runs."
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=os.cpu_count() or 1,
        help="cap on worker parallelism for multi-trial commands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample G(n,p) and write an edge list")
    _add_scale(p, with_k=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="output edge-list path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    for name, text in (
        ("greedy", "maximal k-matching by randomized greedy edge scan"),
        ("generator",
         "size-targeted k-matching by pairing 2s vertices and repairing"),
        ("exact", "exact k-matching number (small graphs)"),
    ):
        p = sub.add_parser(name, help=text)
        _add_graph_source(p, need_seed=name != "exact")
        p.add_argument("--k", type=int, required=True, help="minimum endpoint distance")
        if name == "generator":
            p.add_argument("--s", type=_pairs, help="target size (default: closed form)")
        if name == "exact":
            p.add_argument("--edge-cap", type=int, default=36)
        p.add_argument("--out", help="write the matching to this path")
        p.set_defaults(func=_cmd_matching)

    p = sub.add_parser(
        "bounds",
        help="print the closed-form size bounds at (n, d, k)",
    )
    _add_scale(p)
    p.add_argument("--eps", type=float, default=0.1, help="slack in the m* cutoff")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "oracle",
        help="exact tiny-n probabilities by exhaustive enumeration (n <= 6)",
    )
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--event",
        required=True,
        choices=["dist", "kmatch", "xm", "umk"],
        help="dist: P[d(u,v)>=k]; kmatch: P[edge set is a k-matching]; "
        "xm: E[#size-m k-matchings]; umk: distribution of the k-matching number",
    )
    p.add_argument("--u", type=int)
    p.add_argument("--v", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--edge", dest="edges", action="append", help="u,v (repeatable)")
    p.set_defaults(func=_cmd_oracle)

    for name, count_flag, text, s_text in (
        ("experiment", "--trials", "seeded Monte Carlo trials",
         "generator target size; needs --algorithm generator"),
        ("theorem51", "--samples",
         "measure far-set size and induced-edge frequency for random 2s-sets",
         "pairs s in each random 2s-set whose far set is measured"),
        ("layers", "--samples",
         "measure |{v : d(v,S)=i}| / (2 s d^i) growth for random 2s-sets",
         "pairs s in each random 2s-set whose distance layers are measured"),
    ):
        p = sub.add_parser(name, help=text)
        _add_scale(p)
        p.add_argument(
            count_flag, dest="trials", metavar=count_flag[2:].upper(),
            type=_count, required=True,
        )
        p.add_argument("--seed", type=int, required=True)
        if name == "experiment":
            p.add_argument(
                "--algorithm", required=True, choices=list(experiments.ALGORITHMS)
            )
        p.add_argument("--s", type=_pairs, help=f"{s_text} (default: closed form)")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--out", help="output path (default: stdout)")
        if name == "experiment":
            p.add_argument(
                "--measure-runtime",
                action="store_true",
                help="record wall-clock times (breaks byte-identical reruns)",
            )
        else:
            p.set_defaults(algorithm="generator", measure_runtime=False)
        p.set_defaults(func=_cmd_trials)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"kmatch: error: {exc}", file=sys.stderr)
        return 1
    except matching.GeneratorStalled as exc:
        print(f"kmatch: generator stalled: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

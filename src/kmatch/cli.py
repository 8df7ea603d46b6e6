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


def _add_graph_source(p: argparse.ArgumentParser, need_seed: bool = True) -> None:
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
        return read_edge_list(args.input)
    if args.n is None:
        raise ValueError("one of --input or --n is required")
    if args.seed is None:
        raise ValueError("--seed is required when sampling a graph")
    p = _resolve_p(args)
    return sample_gnp(GnpParams(args.n, p, args.seed))


def _resolve_p(args: argparse.Namespace) -> float:
    if args.p is not None:
        return args.p
    if args.d is not None:
        if not args.n:
            return 0.0
        return args.d / args.n
    raise ValueError("one of --d or --p is required")


def _params_from_args(args: argparse.Namespace) -> analytic.AsymptoticParams:
    if args.d is not None:
        return analytic.AsymptoticParams.from_nd(args.n, args.d, args.k)
    return analytic.AsymptoticParams.from_np(args.n, args.p, args.k)


def _cmd_gen(args) -> int:
    g = _resolve_graph(args)
    if args.out:
        write_edge_list(g, args.out)
    else:
        write_edge_list(g, sys.stdout)
    print(f"sampled n={g.n} m={g.edge_count}", file=sys.stderr)
    return 0


def _cmd_greedy(args) -> int:
    g = _resolve_graph(args)
    m = matching.greedy_k_matching(g, args.k, args.seed)
    _print_matching(m, args.out)
    return 0


def _cmd_generator(args) -> int:
    g = _resolve_graph(args)
    s = args.s
    if s is None and not args.input:
        # a sampled graph targets its configured degree, as `experiment` does;
        # only an --input graph falls back to its mean degree
        s = matching.default_pair_count(_params_from_args(args))
    cfg = matching.GeneratorConfig(k=args.k, seed=args.seed, s_override=s)
    try:
        m = matching.generator_algorithm(g, cfg)
    except matching.GeneratorStalled as exc:
        print(f"generator stalled: {exc}", file=sys.stderr)
        return 2
    _print_matching(m, args.out)
    return 0


def _cmd_exact(args) -> int:
    g = _resolve_graph(args)
    _, m = matching.exact_um_k(g, args.k, edge_cap=args.edge_cap)
    _print_matching(m, args.out)
    return 0


def _print_matching(m: matching.KMatching, out: Optional[str]) -> None:
    text = m.to_text()
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
        print(f"size {m.size}")
    else:
        print(f"size {m.size}")
        sys.stdout.write(text)


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


def _trial_config(args, algorithm: str) -> experiments.TrialConfig:
    return experiments.TrialConfig(
        n=args.n,
        k=args.k,
        trials=getattr(args, "trials", getattr(args, "samples", 1)),
        base_seed=args.seed,
        algorithm=algorithm,
        d=args.d,
        p=args.p,
        measure_runtime=getattr(args, "measure_runtime", False),
        s_override=getattr(args, "s", None),
    )


def _cmd_experiment(args) -> int:
    cfg = _trial_config(args, args.algorithm)
    records, summary = experiments.run_trials(cfg, workers=args.threads)
    text = experiments.emit(records, summary, args.format, args.out, cfg)
    if not args.out:
        sys.stdout.write(text)
    print(
        f"trials={summary.trials} success_rate={summary.success_rate!r} "
        f"mean_size={summary.mean_size!r}",
        file=sys.stderr,
    )
    return 0


def _cmd_sampled_sets(args) -> int:
    """theorem51 and layers: statistics of random 2s-sets."""
    verify = {
        "theorem51": experiments.verify_theorem_5_1,
        "layers": experiments.verify_layer_growth,
    }[args.command]
    cfg = _trial_config(args, "generator")
    records, summary = verify(cfg, workers=args.threads)
    text = experiments.emit(records, summary, args.format, args.out, cfg)
    if not args.out:
        sys.stdout.write(text)
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

    p = sub.add_parser(
        "greedy",
        help="maximal k-matching by randomized greedy edge scan",
    )
    _add_graph_source(p)
    p.add_argument("--k", type=int, required=True, help="minimum endpoint distance")
    p.add_argument("--out", help="write the matching to this path")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser(
        "generator",
        help="size-targeted k-matching by pairing 2s vertices and repairing",
    )
    _add_graph_source(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, help="target size (default: closed form)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generator)

    p = sub.add_parser("exact", help="exact k-matching number (small graphs)")
    _add_graph_source(p, need_seed=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--edge-cap", type=int, default=36)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exact)

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

    p = sub.add_parser("experiment", help="seeded Monte Carlo trials")
    _add_scale(p)
    p.add_argument("--trials", type=_count, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--algorithm", required=True, choices=list(experiments.ALGORITHMS))
    p.add_argument("--s", type=int, help="generator size override")
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument(
        "--measure-runtime",
        action="store_true",
        help="record wall-clock times (breaks byte-identical reruns)",
    )
    p.set_defaults(func=_cmd_experiment)

    for name, text in (
        ("theorem51", "measure far-set size and induced-edge frequency for random 2s-sets"),
        ("layers", "measure |{v : d(v,S)=i}| / (2 s d^i) growth for random 2s-sets"),
    ):
        p = sub.add_parser(name, help=text)
        _add_scale(p)
        p.add_argument("--samples", type=_count, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--s", type=int, help="pair-count override")
        p.add_argument("--format", default="csv", choices=["csv", "json"])
        p.add_argument("--out")
        p.set_defaults(func=_cmd_sampled_sets)

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

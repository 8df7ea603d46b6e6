"""Seeded Monte Carlo harness: sample graphs, run the matching algorithms,
measure layer/far-set sizes, aggregate, and emit CSV/JSON.

Determinism contract: the seed of trial i is
``splitmix64_mix(base_seed + (i+1) * 0x9E3779B97F4A7C15 mod 2^64)`` where
``splitmix64_mix`` is the standard splitmix64 output permutation, and each
trial derives its graph/algorithm/vertex-draw streams from that seed the
same way.  Identical configs therefore produce identical record sequences
(and identical CSV bytes) regardless of worker count; wall-clock timing is
off by default so the default output is byte-stable.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import IO, Optional, Sequence, Union

import numpy as np

from . import analytic
from .graph import (
    GnpParams,
    _induced_edge_from_mask,
    distance_to_set,
    sample_gnp,
)
from .matching import (  # bench/run.py wraps experiments.is_k_matching by name
    GeneratorStalled,
    KMatching,
    _matched_distance,
    exact_um_k,
    greedy_k_matching,
    generator_algorithm,
    is_k_matching,
)

__all__ = [
    "LayerGrowthSummary",
    "Theorem51Summary",
    "TrialConfig",
    "TrialRecord",
    "TrialSummary",
    "derive_seed",
    "emit",
    "run_trials",
    "verify_layer_growth",
    "verify_theorem_5_1",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

ALGORITHMS = ("greedy", "generator", "exact")

_EXACT_N_GUARD = 16


def _splitmix64_mix(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial seed: splitmix64 output at offset trial_index+1 from the
    base seed.  Documented so any implementation can reproduce the runs."""
    return _splitmix64_mix((base_seed + (trial_index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class TrialConfig:
    """One experiment: graph scale, distance parameter, algorithm, seeds.

    Exactly one of ``d`` (expected degree) and ``p`` must be given; the
    other is derived.  ``measure_runtime`` is off by default so reruns are
    byte-identical; switching it on fills the runtime_ms column with
    wall-clock times at the cost of that stability.
    """

    n: int
    k: int
    trials: int
    base_seed: int
    algorithm: str
    d: Optional[float] = None
    p: Optional[float] = None
    measure_runtime: bool = False
    s_override: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.d is None) == (self.p is None):
            raise ValueError("exactly one of d and p must be given")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.algorithm == "exact" and self.n > _EXACT_N_GUARD:
            raise ValueError(
                f"exact search is guarded to n <= {_EXACT_N_GUARD}, got {self.n}"
            )
        if not 0.0 <= self.edge_probability() <= 1.0:
            raise ValueError("edge probability outside [0, 1]")

    def edge_probability(self) -> float:
        if self.p is not None:
            return self.p
        return self.d / self.n if self.n else 0.0

    def expected_degree(self) -> float:
        if self.d is not None:
            return self.d
        return self.n * self.p

    def asymptotic_params(self) -> analytic.AsymptoticParams:
        return analytic.AsymptoticParams.from_nd(
            self.n, self.expected_degree(), self.k
        )


@dataclass(frozen=True)
class TrialRecord:
    """One trial's measurements.  ``auxiliary`` holds named extras
    (far_set_size, induced_edge, layer_ratio_i, ...)."""

    trial_index: int
    seed: int
    matching_size: Optional[int]
    runtime_ms: Optional[float]
    succeeded: bool
    auxiliary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrialSummary:
    trials: int
    successes: int
    success_rate: float
    mean_size: Optional[float]
    std_size: Optional[float]
    min_size: Optional[int]
    max_size: Optional[int]
    size_unit: Optional[float]  # n ln d / d^(k-1)
    bound_ratio_mean: Optional[float]
    bounds: Optional[analytic.BoundSet]


@dataclass(frozen=True)
class Theorem51Summary:
    samples: int
    s: int
    a_value: float
    mean_far_ratio: float
    induced_edge_frequency: float


@dataclass(frozen=True)
class LayerGrowthSummary:
    samples: int
    s: int
    mean_ratio: tuple
    min_ratio: tuple
    max_ratio: tuple


def _summary_bounds(cfg: TrialConfig) -> Optional[analytic.BoundSet]:
    try:
        return analytic.bounds(cfg.asymptotic_params())
    except (ValueError, analytic.RegimeError):
        return None


def _pair_count(cfg: TrialConfig, mode: str) -> int:
    """s for one run: the override, else ``default_pair_count``.  The
    generator clamps the pair target to 1; theorem51 and layers describe
    random 2s-sets where the target is at least 1, so below that they
    raise."""
    if cfg.s_override is not None:
        return cfg.s_override
    params = cfg.asymptotic_params()
    if mode != "experiment":
        s_real = analytic.generator_pair_target(params)
        if s_real < 1.0:
            raise analytic.RegimeError(
                f"pair target s = {s_real} < 1 at n={cfg.n}, "
                f"d={cfg.expected_degree()}, k={cfg.k}"
            )
    return analytic.default_pair_count(params)


def _trial(
    cfg: TrialConfig, mode: str, s: Optional[int], a_value: Optional[float], index: int
) -> TrialRecord:
    """One seeded trial: sample G(n,p), pick a source set, take its
    distances up to k, and fill the record fields of ``mode``.

    The sources are the matched vertices for "experiment", whose distances
    come from the pass that validates the matching, and 2s uniform distinct
    vertices (stream 2) for "theorem51" and "layers".
    """
    seed = derive_seed(cfg.base_seed, index)
    # derive_seed(seed, stream), stream 0: graph, 1: algorithm, 2: vertex draws
    g = sample_gnp(GnpParams(cfg.n, cfg.edge_probability(), derive_seed(seed, 0)))
    aux: dict = {}
    if mode == "experiment":
        t0 = time.perf_counter() if cfg.measure_runtime else None
        matching: Optional[KMatching] = None
        if cfg.algorithm == "greedy":
            matching = greedy_k_matching(g, cfg.k, derive_seed(seed, 1))
        elif cfg.algorithm == "generator":
            try:
                matching = generator_algorithm(g, cfg.k, derive_seed(seed, 1), s)
            except GeneratorStalled:
                pass
        else:
            _, matching = exact_um_k(g, cfg.k)
        runtime_ms = (time.perf_counter() - t0) * 1e3 if t0 is not None else None
        if matching is None:
            return TrialRecord(index, seed, 0, runtime_ms, False, aux)
        dist, valid = _matched_distance(g, matching)
    else:
        rng = np.random.default_rng(np.random.PCG64(derive_seed(seed, 2)))
        sources = rng.choice(cfg.n, size=2 * s, replace=False)
        dist = distance_to_set(g, sources, cfg.k)
    if mode == "layers":
        d = cfg.expected_degree()
        for level in range(cfg.k - 1):
            size = int(np.count_nonzero(dist == level))
            denom = 2.0 * s * d**level
            aux[f"layer_ratio_{level}"] = size / denom if denom > 0.0 else 0.0
        return TrialRecord(index, seed, None, None, True, aux)
    far = dist == cfg.k
    induced = _induced_edge_from_mask(g, far) is not None
    aux["far_set_size"] = int(np.count_nonzero(far))
    aux["induced_edge"] = induced
    if mode == "theorem51":
        aux["far_ratio"] = aux["far_set_size"] / a_value
        return TrialRecord(index, seed, None, None, True, aux)
    ok = valid
    if cfg.algorithm == "greedy":
        ok = ok and not induced  # maximality: far set induces no edge
    if cfg.algorithm == "generator":
        ok = ok and matching.size == s
    return TrialRecord(index, seed, matching.size, runtime_ms, ok, aux)


def _map_trials(
    cfg: TrialConfig,
    workers: int,
    mode: str,
    s: Optional[int] = None,
    a_value: Optional[float] = None,
) -> list[TrialRecord]:
    """cfg.trials seeded trials of ``mode``, ordered by trial_index whatever
    the worker count."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    trial = partial(_trial, cfg, mode, s, a_value)
    indices = range(cfg.trials)
    if workers == 1:
        return [trial(i) for i in indices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(trial, indices))


def run_trials(
    cfg: TrialConfig, workers: int = 1
) -> tuple[list[TrialRecord], TrialSummary]:
    """Run cfg.trials independent seeded trials; records come back ordered
    by trial_index whatever the worker count."""
    if cfg.algorithm != "generator" and cfg.s_override is not None:
        raise ValueError(f"s_override (--s) needs the generator, got {cfg.algorithm}")
    s = _pair_count(cfg, "experiment") if cfg.algorithm == "generator" else None
    records = _map_trials(cfg, workers, "experiment", s)
    sizes = [r.matching_size for r in records if r.succeeded]
    successes = len(sizes)
    unit = None
    d = cfg.expected_degree()
    if d > 1.0 and cfg.n:
        unit = cfg.n * math.log(d) / d ** (cfg.k - 1)
    mean = float(np.mean(sizes)) if sizes else None
    summary = TrialSummary(
        trials=cfg.trials,
        successes=successes,
        success_rate=successes / cfg.trials,
        mean_size=mean,
        std_size=float(np.std(sizes)) if sizes else None,
        min_size=int(min(sizes)) if sizes else None,
        max_size=int(max(sizes)) if sizes else None,
        size_unit=unit,
        bound_ratio_mean=(mean / unit) if (sizes and unit) else None,
        bounds=_summary_bounds(cfg),
    )
    return records, summary


def verify_theorem_5_1(
    cfg: TrialConfig, *, workers: int = 1
) -> tuple[list[TrialRecord], Theorem51Summary]:
    """Per sample (cfg.trials of them): fresh graph, 2s uniform distinct
    vertices S, then measure |{v : d(v,S) >= k}| / A and whether that far
    set induces an edge.  A and s come from the (n, d, k) closed forms."""
    s = _pair_count(cfg, "theorem51")
    a_value = analytic.far_set_size_scale(cfg.asymptotic_params())
    records = _map_trials(cfg, workers, "theorem51", s, a_value)
    summary = Theorem51Summary(
        samples=cfg.trials,
        s=s,
        a_value=a_value,
        mean_far_ratio=float(
            np.mean([r.auxiliary["far_ratio"] for r in records])
        ),
        induced_edge_frequency=float(
            np.mean([1.0 if r.auxiliary["induced_edge"] else 0.0 for r in records])
        ),
    )
    return records, summary


def verify_layer_growth(
    cfg: TrialConfig, *, workers: int = 1
) -> tuple[list[TrialRecord], LayerGrowthSummary]:
    """Per sample (cfg.trials of them): fresh graph, 2s uniform vertices S,
    and the ratios |{v : d(v,S) = i}| / (2 s d^i) for 0 <= i <= k-2.  Needs
    k >= 3 so at least one grown layer exists."""
    if cfg.k < 3:
        raise ValueError("layer growth check needs k >= 3")
    s = _pair_count(cfg, "layers")
    records = _map_trials(cfg, workers, "layers", s)
    ratios = [
        [r.auxiliary[f"layer_ratio_{level}"] for r in records]
        for level in range(cfg.k - 1)
    ]
    summary = LayerGrowthSummary(
        samples=cfg.trials,
        s=s,
        mean_ratio=tuple(float(np.mean(v)) for v in ratios),
        min_ratio=tuple(float(np.min(v)) for v in ratios),
        max_ratio=tuple(float(np.max(v)) for v in ratios),
    )
    return records, summary


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(records: Sequence[TrialRecord], cfg: TrialConfig) -> str:
    layer_cols = [f"layer_ratio_{i}" for i in range(max(cfg.k - 1, 1))]
    header = [
        "trial_index",
        "seed",
        "n",
        "d",
        "p",
        "k",
        "algorithm",
        "matching_size",
        "succeeded",
        "runtime_ms",
        "far_set_size",
        "induced_edge",
        *layer_cols,
    ]
    lines = [",".join(header)]
    d = cfg.expected_degree()
    p = cfg.edge_probability()
    for r in records:
        row = [
            _fmt(r.trial_index),
            _fmt(r.seed),
            _fmt(cfg.n),
            _fmt(float(d)),
            _fmt(float(p)),
            _fmt(cfg.k),
            cfg.algorithm,
            _fmt(r.matching_size),
            _fmt(r.succeeded),
            _fmt(r.runtime_ms),
            _fmt(r.auxiliary.get("far_set_size")),
            _fmt(r.auxiliary.get("induced_edge")),
            *(_fmt(r.auxiliary.get(c)) for c in layer_cols),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _json_obj(records, summary, cfg: TrialConfig) -> dict:
    return {
        "config": asdict(cfg),
        "records": [asdict(r) for r in records],
        "summary": asdict(summary) if summary is not None else None,
    }


def emit(
    records: Sequence[TrialRecord],
    summary,
    fmt: str,
    target: Union[str, IO[str], None],
    cfg: TrialConfig,
) -> str:
    """Serialize records (+ summary for JSON) and optionally write them.

    CSV carries one row per record with the documented columns; the JSON
    document is {config, records, summary}.  Returns the serialized text.
    """
    if fmt == "csv":
        text = _csv_text(records, cfg)
    elif fmt == "json":
        text = json.dumps(_json_obj(records, summary, cfg), indent=2) + "\n"
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if target is not None:
        if isinstance(target, str):
            with open(target, "w", newline="\n") as fh:
                fh.write(text)
        else:
            target.write(text)
    return text

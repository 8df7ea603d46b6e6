"""Distance-k matchings: an edge set is a k-matching when every two member
edges have minimum endpoint-to-endpoint distance >= k (equivalently edge
distance >= k+1).  k=1 gives ordinary matchings, k=2 induced matchings.

Three constructions live here:

* ``greedy_k_matching`` -- scan the edges in a seeded uniform random order,
  keeping each edge compatible with everything kept so far.  Output is
  always maximal.
* ``generator_algorithm`` -- pair 2s random vertices into s tentative pairs,
  then repeatedly replace the lowest-index invalid pair by a random edge
  whose endpoints a per-vertex coverage counter puts at distance >= k from
  the selection, until the s pairs form a k-matching of exactly that size.
* ``exact_um_k`` -- branch-and-bound over the edge compatibility graph,
  for small instances only; returns the k-matching number and a witness.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import analytic
from .graph import (
    Graph,
    bounded_ball,
    distance_to_set,
    edge,
    _gather_neighbors,
    _induced_edge_from_mask,
)

__all__ = [
    "GeneratorConfig",
    "GeneratorStalled",
    "InstanceTooLargeError",
    "InvalidMatchingError",
    "KMatching",
    "exact_um_k",
    "gamma_independence_check",
    "generator_algorithm",
    "greedy_k_matching",
    "is_k_matching",
    "is_maximal_k_matching",
    "matched_vertices",
]


class InvalidMatchingError(ValueError):
    """A precondition (valid k-matching / maximal k-matching) failed."""


class GeneratorStalled(RuntimeError):
    """The repair loop ran out of candidate edges or iterations; the
    with-high-probability guarantee did not materialize at this (n, d, k)."""

    def __init__(self, message: str, iterations: int, far_size: int) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.far_size = far_size


class InstanceTooLargeError(ValueError):
    """Guard against runaway exact search."""


@dataclass(frozen=True)
class KMatching:
    """A distance parameter k >= 1 plus a set of normalized edges."""

    k: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @classmethod
    def of(cls, k: int, pairs: Iterable[tuple[int, int]]) -> "KMatching":
        return cls(k, frozenset(edge(u, v) for u, v in pairs))

    @property
    def size(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_text(self) -> str:
        lines = [f"{self.k} {self.size}"]
        lines.extend(f"{u} {v}" for u, v in self.sorted_edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "KMatching":
        lines = text.split("\n")
        k, m = (int(x) for x in lines[0].split())
        pairs = []
        for i in range(1, m + 1):
            u, v = (int(x) for x in lines[i].split())
            if u >= v:
                raise ValueError(f"edge {u} {v} is not normalized")
            pairs.append((u, v))
        return cls.of(k, pairs)


def matched_vertices(m: KMatching) -> list[int]:
    return sorted({v for e in m.edges for v in e})


def is_k_matching(g: Graph, m: KMatching) -> bool:
    """True iff every member is an edge of g and every two members have
    minimum endpoint distance >= k.  Malformed members yield False."""
    members = m.sorted_edges()
    if not members:
        return True
    verts = []
    for u, v in members:
        if not (0 <= u < v < g.n) or not g.has_edge(u, v):
            return False
        verts.extend((u, v))
    if len(set(verts)) != len(verts):
        return False  # shared endpoint: distance 0
    if len(members) == 1:
        return True
    mask = np.zeros(g.n, dtype=bool)
    mask[verts] = True
    radius = m.k - 1
    for u, v in members:
        for w in bounded_ball(g, (u, v), radius):
            if mask[w] and w != u and w != v:
                return False
    return True


def is_maximal_k_matching(g: Graph, m: KMatching) -> bool:
    """True iff no edge of g can be added: every edge has an endpoint
    within distance k-1 of a matched vertex.  Raises InvalidMatchingError
    when m is not a k-matching of g."""
    if not is_k_matching(g, m):
        raise InvalidMatchingError("not a k-matching of this graph")
    if g.edge_count == 0:
        return True
    far = distance_to_set(g, matched_vertices(m), m.k) == m.k
    return not bool(np.any(far[g.eu] & far[g.ev]))


def gamma_independence_check(g: Graph, m: KMatching) -> bool:
    """For a maximal k-matching the vertices at distance >= k from the
    matched set induce no edge; exposed as a test hook.  Raises
    InvalidMatchingError if m is not maximal."""
    if not is_maximal_k_matching(g, m):
        raise InvalidMatchingError("not a maximal k-matching of this graph")
    far = distance_to_set(g, matched_vertices(m), m.k) == m.k
    return _induced_edge_from_mask(g, far) is None


# ---------------------------------------------------------------------------
# Randomized greedy maximal construction
# ---------------------------------------------------------------------------

_SCAN_CHUNK = 1 << 16


def greedy_k_matching(g: Graph, k: int, seed: int) -> KMatching:
    """Scan the edges in a seeded uniform random order and keep every edge
    whose endpoints are still at distance >= k from all kept edges.

    A vertex once within distance k-1 of the matching stays so, which lets
    the scan discard blocked edges in vectorized chunks; the output is
    always a maximal k-matching.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = g.edge_count
    if m == 0:
        return KMatching(k, frozenset())
    rng = np.random.default_rng(np.random.PCG64(seed))
    order = rng.permutation(m)
    blocked = np.zeros(g.n, dtype=bool)
    chosen: list[tuple[int, int]] = []
    for start in range(0, m, _SCAN_CHUNK):
        idx = order[start : start + _SCAN_CHUNK]
        cu = g.eu[idx]
        cv = g.ev[idx]
        live = ~(blocked[cu] | blocked[cv])
        for u, v in zip(cu[live].tolist(), cv[live].tolist()):
            if blocked[u] or blocked[v]:
                continue
            chosen.append((u, v))
            blocked[bounded_ball(g, (u, v), k - 1)] = True
    return KMatching(k, frozenset(chosen))


# ---------------------------------------------------------------------------
# The pair-and-repair generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for ``generator_algorithm``.

    ``s_override`` fixes the target size; otherwise s is computed from the
    graph's mean degree via the pair-target formula, floored and clamped
    to >= 1.  ``max_repair_iterations`` defaults to max(10*s, 1000).
    """

    k: int
    seed: int
    s_override: Optional[int] = None
    max_repair_iterations: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("generator needs k >= 2")
        if self.s_override is not None and self.s_override < 1:
            raise ValueError("s_override must be >= 1")
        if self.max_repair_iterations is not None and self.max_repair_iterations < 1:
            raise ValueError("max_repair_iterations must be >= 1")


_REJECTION_TRIES = 256


def default_pair_count(g: Graph, k: int) -> int:
    """Floor of the pair-target formula at the graph's mean degree,
    clamped to >= 1."""
    d = g.mean_degree()
    params = analytic.AsymptoticParams.from_nd(g.n, d, k)
    return max(1, math.floor(analytic.generator_pair_target(params)))


def generator_algorithm(g: Graph, cfg: GeneratorConfig) -> KMatching:
    """Build a k-matching of exactly s edges by pairing 2s random vertices
    and repairing invalid pairs one at a time.

    A coverage counter holds, per vertex, the number of selected vertices
    within distance k-1: the set F of vertices at distance >= k from the
    selection is where it reads 0, and a pair is valid (an edge with no
    other selected vertex within distance k-1) iff it reads 2 at both
    endpoints.  Each repair takes the lowest-index invalid pair's two balls
    off the counter and adds those of a uniformly random edge induced by F
    (drawn by rejection from the edge list, with an exact scan fallback):
    O(d^(k-1)) work, not O(n).  Inserted pairs are valid against everything
    selected and stay valid, so the invalid count strictly decreases.

    Raises GeneratorStalled, carrying |F|, when F induces no edge or the
    iteration budget is exhausted.
    """
    k = cfg.k
    s = cfg.s_override if cfg.s_override is not None else default_pair_count(g, k)
    if 2 * s > g.n:
        raise ValueError(f"need 2s={2 * s} <= n={g.n} distinct vertices")
    max_iter = (
        cfg.max_repair_iterations
        if cfg.max_repair_iterations is not None
        else max(10 * s, 1000)
    )
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    draw = rng.choice(g.n, size=2 * s, replace=False)
    pu = np.minimum(draw[0::2], draw[1::2]).astype(np.int64)
    pv = np.maximum(draw[0::2], draw[1::2]).astype(np.int64)
    # selected vertices stay distinct (drawn without replacement, inserted
    # from F); each adds 1 over its ball, deduplicated at every level so a
    # ball grows with its vertex count, not with its number of walks
    cover = np.zeros(g.n, dtype=np.int32)

    def shift(i: int, step: int) -> None:
        for x in (int(pu[i]), int(pv[i])):
            ball = np.concatenate(([x], g.neighbors(x)))
            for _ in range(k - 2):
                ball = np.unique(np.concatenate([ball, _gather_neighbors(g, ball)]))
            cover[ball] += step

    for i in range(s):
        shift(i, 1)

    def pair_valid(i: int) -> bool:
        u, v = int(pu[i]), int(pv[i])
        return g.has_edge(u, v) and cover[u] == 2 and cover[v] == 2

    def stalled(message: str) -> GeneratorStalled:
        return GeneratorStalled(message, iterations, int(np.count_nonzero(cover == 0)))

    invalid = [i for i in range(s) if not pair_valid(i)]
    heapq.heapify(invalid)
    iterations = 0
    while invalid:
        i = heapq.heappop(invalid)
        if pair_valid(i):
            continue  # the conflicting pair was repaired away
        iterations += 1
        if iterations > max_iter:
            raise stalled(f"exceeded {max_iter} repair iterations")
        shift(i, -1)
        picked = None
        if g.edge_count:
            for _ in range(_REJECTION_TRIES):
                j = int(rng.integers(g.edge_count))
                if cover[g.eu[j]] == 0 and cover[g.ev[j]] == 0:
                    picked = j
                    break
            if picked is None:
                far = cover == 0
                hits = np.flatnonzero(far[g.eu] & far[g.ev])
                if hits.size:
                    picked = int(hits[rng.integers(hits.size)])
        if picked is None:
            raise stalled("no edge induced by the distance->=k vertex set")
        pu[i] = int(g.eu[picked])
        pv[i] = int(g.ev[picked])
        shift(i, 1)
    return KMatching(k, frozenset(zip(pu.tolist(), pv.tolist())))


# ---------------------------------------------------------------------------
# Exact k-matching number for small instances
# ---------------------------------------------------------------------------


def exact_um_k(
    g: Graph, k: int, edge_cap: int = 36
) -> tuple[int, KMatching]:
    """Maximum k-matching size and a witness, by branch and bound over
    edges in index order with a remaining-candidates prune.  Deterministic.
    Instances with more than ``edge_cap`` edges are refused."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = g.edge_count
    if m > edge_cap:
        raise InstanceTooLargeError(
            f"{m} edges exceeds the exact-search cap {edge_cap}"
        )
    if m == 0:
        return 0, KMatching(k, frozenset())
    members = list(zip(g.eu.tolist(), g.ev.tolist()))
    balls = [frozenset(bounded_ball(g, e, k - 1)) for e in members]
    compat = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            u, v = members[j]
            if u not in balls[i] and v not in balls[i]:
                compat[i] |= 1 << j
                compat[j] |= 1 << i
    best_size = 0
    best_set = 0

    def grow(cand: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if size > best_size:
            best_size = size
            best_set = chosen
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            grow(cand & compat[i], chosen | low, size + 1)

    grow((1 << m) - 1, 0, 0)
    witness = [members[i] for i in range(m) if best_set >> i & 1]
    return best_size, KMatching(k, frozenset(witness))

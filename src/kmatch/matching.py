"""Distance-k matchings: an edge set is a k-matching when every two member
edges have minimum endpoint-to-endpoint distance >= k (equivalently edge
distance >= k+1).  k=1 gives ordinary matchings, k=2 induced matchings.

Three constructions live here:

* ``greedy_k_matching`` -- random-order greedy: keep seeded uniform picks
  among the edges compatible with everything kept so far (uniform draws
  with replacement, then one shuffle of the edges still compatible) until
  none is left.  Output is always maximal.
* ``generator_algorithm`` -- pair 2s random vertices into s tentative pairs,
  then, in one ascending pass over the pairs invalid at the start, replace
  each one still invalid by a random edge whose endpoints a per-vertex
  coverage counter puts at distance >= k from the selection; the s pairs
  then form a k-matching of exactly that size after at most s repairs.
* ``exact_um_k`` -- branch-and-bound over the edge compatibility graph,
  for small instances only; returns the k-matching number and a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import analytic
from .graph import (  # bench/run.py wraps matching.distance_to_set by name
    Graph,
    bounded_ball,
    distance_to_set,
    edge,
    _ball,
    _bfs,
    _gather_neighbors,
    _induced_edge_from_mask,
    _induced_edges,
    _ints,
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
]


class InvalidMatchingError(ValueError):
    """A precondition (valid k-matching / maximal k-matching) failed."""


class GeneratorStalled(RuntimeError):
    """A repair found no edge induced by the far set F (``far_size`` = |F|)
    after ``iterations`` repairs; the with-high-probability guarantee did
    not materialize at this (n, d, k)."""

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
        """Parse ``to_text`` output; a malformed line raises ValueError
        naming its line number."""
        lines = text.split("\n")
        header = lines[0].split()
        if len(header) != 2:
            raise ValueError("matching header must be 'k m' at line 1")
        k, m = _ints(header, 1)
        if m < 0:
            raise ValueError(f"negative edge count {m} at line 1")
        pairs = []
        for i in range(1, m + 1):
            parts = lines[i].split() if i < len(lines) else []
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {i + 1}")
            u, v = _ints(parts, i + 1)
            if u >= v:
                raise ValueError(f"edge {u} {v} is not normalized at line {i + 1}")
            pairs.append((u, v))
        for i, line in enumerate(lines[m + 1 :], start=m + 2):
            if line.strip():
                raise ValueError(f"content after the declared edge count at line {i}")
        return cls.of(k, pairs)


def _matched_distance(g: Graph, m: KMatching) -> tuple[np.ndarray, bool]:
    """Distance from every vertex to the matched vertices, truncated at k
    as ``distance_to_set`` gives it, and whether m is a k-matching of g.
    The distances come with either verdict.  Raises InvalidMatchingError
    when a member is not a pair of vertex ids of g.

    One multi-source BFS from the matched vertices labels each vertex with
    the member that owns a nearest matched vertex.  Two members lie within
    endpoint distance k-1 exactly when some graph edge (x, y) joins
    vertices of different owners with dist[x] + 1 + dist[y] <= k-1: a
    shortest path between the two members changes owner along some edge,
    and the labelled distances on either side of it are at most the path's
    lengths to its ends (the Voronoi boundary-edge test of Mehlhorn, IPL
    1988).  The test reads owners only at distance <= k-2, so the BFS
    leaves its last level unlabelled.  Such an edge has an endpoint at
    distance <= (k-2)//2, so only the neighbours of those vertices are
    scanned; the same scan finds each member's own edge and, by counting
    them, shared endpoints.
    """
    k = m.k
    try:
        pairs = np.array(list(m.edges), dtype=np.int64).reshape(-1, 2)
        in_range = np.all((0 <= pairs) & (pairs < g.n))
    except OverflowError:  # a member beyond any vertex id
        in_range = False
    if not in_range:
        raise InvalidMatchingError("a member is not a pair of vertices of this graph")
    mu, mv = pairs[:, 0], pairs[:, 1]
    src = np.concatenate([mu, mv])
    owner = np.full(g.n, -1, dtype=np.int32)
    owner[src] = np.tile(np.arange(mu.size, dtype=np.int32), 2)
    dist = _bfs(g, src, k, owner)
    partner = np.full(g.n, -1, dtype=np.int64)
    partner[mu], partner[mv] = mv, mu
    near = np.flatnonzero(dist <= max(k - 2, 0) // 2)
    y, x = _gather_neighbors(g, near, near)
    # at most one hit per distinct matched vertex: fewer than 2|m| hits
    # mean a member is not an edge or two members share an endpoint
    if not np.all(mu < mv) or np.count_nonzero(y == partner[x]) < src.size:
        return dist, False
    close = dist[x] + dist[y] <= k - 2
    return dist, not np.any(owner[x[close]] != owner[y[close]])


def is_k_matching(g: Graph, m: KMatching) -> bool:
    """True iff every member is an edge of g and every two members have
    minimum endpoint distance >= k.  Malformed members yield False.

    Checked in one owner-labelled BFS from the matched vertices; see
    ``_matched_distance`` for the boundary-edge test.
    """
    try:
        return _matched_distance(g, m)[1]
    except InvalidMatchingError:
        return False


def _far_mask(g: Graph, m: KMatching) -> np.ndarray:
    """Vertices at distance >= k from the matched set, from the same pass
    that validates m; raises InvalidMatchingError if m is not a k-matching
    of g."""
    dist, valid = _matched_distance(g, m)
    if not valid:
        raise InvalidMatchingError("not a k-matching of this graph")
    return dist == m.k


def is_maximal_k_matching(g: Graph, m: KMatching) -> bool:
    """True iff no edge of g can be added: every edge has an endpoint
    within distance k-1 of a matched vertex.  Raises InvalidMatchingError
    when m is not a k-matching of g."""
    return _induced_edge_from_mask(g, _far_mask(g, m)) is None


def gamma_independence_check(g: Graph, m: KMatching) -> bool:
    """For a maximal k-matching the vertices at distance >= k from the
    matched set induce no edge; exposed as a test hook.  Raises
    InvalidMatchingError if m is not maximal."""
    if _induced_edge_from_mask(g, _far_mask(g, m)) is not None:
        raise InvalidMatchingError("not a maximal k-matching of this graph")
    return True


# ---------------------------------------------------------------------------
# Randomized greedy maximal construction
# ---------------------------------------------------------------------------

_SCAN_CHUNK = 1 << 16


def greedy_k_matching(g: Graph, k: int, seed: int) -> KMatching:
    """Random-order greedy: keep edges one at a time, each a seeded uniform
    pick among the available edges (endpoints at distance >= k from all
    kept edges), until none is left.  The output is a maximal k-matching.

    A kept edge blocks its radius-(k-1) ball, endpoints included, and
    blocking only grows.  A scan of all m edges in uniform random order
    keeps the first available edge of the uniform order still to come,
    which holds every available edge: a uniform pick.  This scan makes the
    same picks without permuting the m edges.  It draws edge ids uniformly
    with replacement, min(2^16, m) at a time, skipping repeated and blocked
    draws, while more than half of a chunk's draws were available at its
    start; then it shuffles the edges still available and scans them in
    that uniform order, compacting the rest to the available edges after
    each chunk.  Each chunk is prefiltered by its endpoints' blocked flags.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = g.edge_count
    if m == 0:
        return KMatching(k, frozenset())
    rng = np.random.default_rng(np.random.PCG64(seed))
    chunk = min(_SCAN_CHUNK, m)
    blocked = np.zeros(g.n, dtype=bool)
    chosen: list[tuple[int, int]] = []

    def scan(idx: np.ndarray) -> int:
        """Keep the available edges of idx in order; returns how many of
        idx were available at the start."""
        cu = g.eu[idx]
        cv = g.ev[idx]
        live = ~(blocked[cu] | blocked[cv])
        for u, v in zip(cu[live].tolist(), cv[live].tolist()):
            if blocked[u] or blocked[v]:
                continue
            chosen.append((u, v))
            blocked[_ball(g, (u, v), k - 1)] = True
        return int(np.count_nonzero(live))

    while 2 * scan(rng.integers(m, size=chunk)) > chunk:
        pass
    rest = _induced_edges(g, ~blocked)
    rng.shuffle(rest)
    while rest.size:
        scan(rest[:chunk])
        rest = rest[chunk:]
        if rest.size > chunk:
            rest = rest[~(blocked[g.eu[rest]] | blocked[g.ev[rest]])]
    return KMatching(k, frozenset(chosen))


# ---------------------------------------------------------------------------
# The pair-and-repair generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for ``generator_algorithm``.

    ``s_override`` fixes the target size; otherwise s is
    ``default_pair_count`` at the graph's mean degree.  The repair loop
    needs no budget: it makes at most s repairs.
    """

    k: int
    seed: int
    s_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("generator needs k >= 2")
        if self.s_override is not None and self.s_override < 1:
            raise ValueError("s_override must be >= 1")


_REJECTION_TRIES = 256


def default_pair_count(params: analytic.AsymptoticParams) -> int:
    """The generator's pair count s: floor of the pair-target formula at
    (n, d, k), clamped to >= 1.  A graph sampled at a configured degree
    takes that d; a given graph takes its mean degree."""
    return max(1, math.floor(analytic.generator_pair_target(params)))


def generator_algorithm(g: Graph, cfg: GeneratorConfig) -> KMatching:
    """Build a k-matching of exactly s edges by pairing 2s random vertices
    and repairing invalid pairs one at a time.

    A coverage counter holds, per vertex, the number of selected vertices
    within distance k-1: the set F of vertices at distance >= k from the
    selection is where it reads 0, and a pair is valid (an edge with no
    other selected vertex within distance k-1) iff it reads 2 at both
    endpoints.  One ascending pass visits the pairs invalid at the start;
    each one still invalid has its two balls taken off the counter and
    replaced by those of a uniformly random edge induced by F (drawn by
    rejection from the edge list, with an exact scan fallback): O(d^(k-1))
    work, not O(n).  The new endpoints read 0 once the old balls are off
    and exactly 2 (the pair itself) after the insertion, whose balls hold
    no other selected vertex; removals only lower counts.  So a repaired
    pair is valid, a valid pair stays valid, and the pass ends with every
    pair valid after at most s repairs.

    Raises GeneratorStalled, carrying |F|, when F induces no edge.
    """
    k = cfg.k
    s = cfg.s_override
    if s is None:
        params = analytic.AsymptoticParams.from_nd(g.n, g.mean_degree(), k)
        s = default_pair_count(params)
    if 2 * s > g.n:
        raise ValueError(f"need 2s={2 * s} <= n={g.n} distinct vertices")
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    draw = rng.choice(g.n, size=2 * s, replace=False)
    pu = np.minimum(draw[0::2], draw[1::2]).astype(np.int64)
    pv = np.maximum(draw[0::2], draw[1::2]).astype(np.int64)
    # selected vertices stay distinct (drawn without replacement, inserted
    # from F); each adds 1 over its ball, where a repeated index adds once
    cover = np.zeros(g.n, dtype=np.int32)

    def shift(i: int, step: int) -> None:
        for x in (int(pu[i]), int(pv[i])):
            cover[_ball(g, (x,), k - 1)] += step

    for i in range(s):
        shift(i, 1)

    def pair_valid(i: int) -> bool:
        u, v = int(pu[i]), int(pv[i])
        return g.has_edge(u, v) and cover[u] == 2 and cover[v] == 2

    invalid = [i for i in range(s) if not pair_valid(i)]
    iterations = 0
    for i in invalid:
        if pair_valid(i):
            continue  # the conflicting pair was repaired away
        iterations += 1
        shift(i, -1)
        picked = None
        if g.edge_count:
            for _ in range(_REJECTION_TRIES):
                j = int(rng.integers(g.edge_count))
                if cover[g.eu[j]] == 0 and cover[g.ev[j]] == 0:
                    picked = j
                    break
            if picked is None:
                hits = _induced_edges(g, cover == 0)
                if hits.size:
                    picked = int(hits[rng.integers(hits.size)])
        if picked is None:
            raise GeneratorStalled(
                "no edge induced by the distance->=k vertex set",
                iterations,
                int(np.count_nonzero(cover == 0)),
            )
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

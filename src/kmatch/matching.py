"""Distance-k matchings: an edge set is a k-matching when every two member
edges have minimum endpoint-to-endpoint distance >= k (equivalently edge
distance >= k+1).  k=1 gives ordinary matchings, k=2 induced matchings.

Three constructions live here, each returning a ``KMatching`` (k plus two
sorted int32 endpoint arrays) built from the edge ids or arrays it holds:

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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import (  # bench/run.py wraps matching.distance_to_set by name
    Graph,
    bounded_ball,
    distance_to_set,
    edge,
    _ball,
    _bfs,
    _blocks,
    _distinct,
    _edge_rows,
    _freeze,
    _gather_neighbors,
    _induced_edge_from_mask,
    _induced_edges,
    _ints,
    _upper_hits,
)

__all__ = [
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


@dataclass(frozen=True, eq=False)
class KMatching:
    """k >= 1 plus members ``(u[i], v[i])`` as read-only int32 arrays, put in
    ascending lexicographic order by the one ``np.lexsort`` here but kept as
    given otherwise (reversed pairs, loops, repeats) for the validators to
    reject; an id beyond int32 raises ValueError.  ``of`` normalizes them."""

    k: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        uv = np.asarray([self.u, self.v])
        if uv.size and not -(2**31) <= uv.min() <= uv.max() < 2**31:
            raise ValueError("a vertex id does not fit in int32")
        uv = _freeze(uv[:, np.lexsort(uv[::-1])].astype(np.int32, copy=False))
        object.__setattr__(self, "u", uv[0])
        object.__setattr__(self, "v", uv[1])

    @classmethod
    def of(cls, k: int, pairs: Iterable[tuple[int, int]]) -> "KMatching":
        members = {edge(u, v) for u, v in pairs}
        return cls(k, [u for u, _ in members], [v for _, v in members])

    @property
    def size(self) -> int:
        return self.u.size

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(zip(self.u.tolist(), self.v.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KMatching):
            return NotImplemented
        same = np.array_equal(self.u, other.u) and np.array_equal(self.v, other.v)
        return self.k == other.k and same

    def to_text(self) -> str:
        body = "".join(f"{u} {v}\n" for u, v in self.sorted_edges())
        return f"{self.k} {self.size}\n{body}"

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
        pairs = set()
        for i in range(1, m + 1):
            parts = lines[i].split() if i < len(lines) else []
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {i + 1}")
            u, v = _ints(parts, i + 1)
            if u >= v:
                raise ValueError(f"edge {u} {v} is not normalized at line {i + 1}")
            if u < -(2**31) or v >= 2**31:
                raise ValueError(f"edge {u} {v} does not fit in int32 at line {i + 1}")
            if (u, v) in pairs:
                raise ValueError(f"repeated edge {u} {v} at line {i + 1}")
            pairs.add((u, v))
        for i, line in enumerate(lines[m + 1 :], start=m + 2):
            if line.strip():
                raise ValueError(f"content after the declared edge count at line {i}")
        return cls.of(k, pairs)


def _matched_distance(g: Graph, m: KMatching) -> tuple[np.ndarray, bool]:
    """Distance from every vertex to the matched vertices, truncated at k
    as ``distance_to_set`` gives it, and whether m is a k-matching of g.
    The distances come with either verdict.  Raises InvalidMatchingError
    when a member is not a pair of vertex ids of g.

    m is a k-matching when three checks pass:

    * every member (u, v) is an edge: a bisection finds v in u's sorted
      upper row, which holds only neighbours larger than u, so never a
      reversed pair or a loop;
    * no two members share an endpoint: each matched vertex, labelled
      with its member's index, reads that index back;
    * no two members lie within endpoint distance k-1.  One multi-source
      BFS from the matched vertices labels each vertex with the member
      that owns a nearest matched vertex.  Two members lie that close
      exactly when some graph edge (x, y) joins vertices of different
      owners with dist[x] + 1 + dist[y] <= k-1: a shortest path between
      the two members changes owner along some edge, and the labelled
      distances on either side of it are at most the path's lengths to
      its ends (the Voronoi boundary-edge test of Mehlhorn, IPL 1988).
      The test reads owners only at distance <= k-2, so the BFS leaves its
      last level unlabelled.  Such an edge has an endpoint at distance
      <= (k-2)//2, so only the neighbours of those vertices are scanned,
      in ``_blocks``; at k=1 there are none.  Which neighbour one level
      closer a vertex takes its owner from does not change the verdict.
    """
    k, mu, mv = m.k, m.u, m.v
    if not np.all((0 <= mu) & (mu < g.n) & (0 <= mv) & (mv < g.n)):
        raise InvalidMatchingError("a member is not a pair of vertices of this graph")
    edges = bool(np.all(_upper_hits(g, mu, mv)))
    src = np.concatenate([mu, mv])
    labels = np.tile(np.arange(mu.size, dtype=np.int32), 2)
    owner = np.full(g.n, -1, dtype=np.int32)
    owner[src] = labels
    disjoint = np.array_equal(owner[src], labels)
    dist = _bfs(g, src, k, owner)
    if not (edges and disjoint):
        return dist, False
    near = np.flatnonzero(dist <= (k - 2) // 2)
    for part in _blocks(near, g.lower_ptr, g.upper_ptr):
        y, x = _gather_neighbors(g, part, part)
        close = dist[x] + dist[y] <= k - 2
        if np.any(owner[x[close]] != owner[y[close]]):
            return dist, False
    return dist, True


def is_k_matching(g: Graph, m: KMatching) -> bool:
    """True iff every member is an edge of g and every two members have
    minimum endpoint distance >= k.  Malformed members yield False.

    Checked in one owner-labelled BFS from the matched vertices; see
    ``_matched_distance`` for the three checks.
    """
    try:
        return _matched_distance(g, m)[1]
    except InvalidMatchingError:
        return False


def is_maximal_k_matching(g: Graph, m: KMatching) -> bool:
    """True iff no edge of g can be added: every edge has an endpoint
    within distance k-1 of a matched vertex.  Raises InvalidMatchingError
    when m is not a k-matching of g."""
    dist, valid = _matched_distance(g, m)
    if not valid:
        raise InvalidMatchingError("not a k-matching of this graph")
    return _induced_edge_from_mask(g, dist == m.k) is None


def gamma_independence_check(g: Graph, m: KMatching) -> bool:
    """For a maximal k-matching the vertices at distance >= k from the
    matched set induce no edge; exposed as a test hook.  Raises
    InvalidMatchingError if m is not maximal."""
    if not is_maximal_k_matching(g, m):
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
    that uniform order, compacting the rest after each chunk.  Each chunk
    is prefiltered by its endpoints' blocked flags: the larger endpoint's
    first, which is all the compaction reads, as the graph holds no smaller
    endpoints; those are bisected from ``upper_ptr`` only for the ids that
    pass.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = g.edge_count
    if m == 0:
        return KMatching(k, [], [])
    rng = np.random.default_rng(np.random.PCG64(seed))
    chunk = min(_SCAN_CHUNK, m)
    blocked = np.zeros(g.n, dtype=bool)
    kept_u: list[np.ndarray] = []
    kept_v: list[np.ndarray] = []

    def scan(idx: np.ndarray) -> int:
        """Keep the available edges of idx in order; returns how many of
        idx were available at the start."""
        idx = idx[~blocked[g.ev[idx]]]
        # the smaller endpoints, bisected in ascending id order
        order = np.argsort(idx)
        us = np.empty_like(idx)
        us[order] = _edge_rows(g, idx[order])
        live = ~blocked[us]
        us, vs = us[live], g.ev[idx[live]]
        keep = []
        for j, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
            if blocked[u] or blocked[v]:
                continue
            keep.append(j)
            blocked[_ball(g, (u, v), k - 1)] = True
        kept_u.append(us[keep])
        kept_v.append(vs[keep])
        return us.size

    while 2 * scan(rng.integers(m, size=chunk)) > chunk:
        pass
    rest = _induced_edges(g, ~blocked)
    rng.shuffle(rest)
    while rest.size:
        scan(rest[:chunk])
        rest = rest[chunk:]
        if rest.size > chunk:
            rest = rest[~blocked[g.ev[rest]]]
    return KMatching(k, np.concatenate(kept_u), np.concatenate(kept_v))


# ---------------------------------------------------------------------------
# The pair-and-repair generator
# ---------------------------------------------------------------------------


_REJECTION_TRIES = 256


def _kept_balls(g: Graph, src: np.ndarray, radius: int):
    """The radius balls of the distinct sources as one int32 array, source
    i's at ``balls[ptr[i] : ptr[i + 1]]``, and the int32 count of balls
    holding each vertex.  Up to radius 2 they grow on int64 keys source * n
    + vertex in ``_blocks`` of about ``_BATCH_CAP / 8`` expected keys, each
    sorted by one ``_distinct``; beyond, one ``_ball`` a source is faster."""
    n, cover = g.n, np.zeros(g.n, dtype=np.int32)
    if radius >= 3:
        parts = [_ball(g, (x,), radius) for x in src.astype(np.int32)]
        for ball in parts:
            cover[ball] += 1
        ptr = np.cumsum([0] + [ball.size for ball in parts])
        return np.concatenate(parts), ptr, cover
    deg = sum(p[src + 1] - p[src] for p in (g.lower_ptr, g.upper_ptr))
    # expected sizes (a few per cent off on G(n,p)) size the one buffer
    size = (1 + deg) * (1 + round(g.mean_degree())) ** (radius - 1)
    balls = np.empty(size.sum(), dtype=np.int32)
    ptr = np.zeros(src.size + 1, dtype=np.int64)
    for block in _blocks(np.arange(src.size), np.cumsum(np.r_[0, 8 * size])):
        levels = [block * n + src[block]]
        for _ in range(radius):  # one source's neighbours are distinct keys
            x = levels[-1] % n
            nbrs, base = _gather_neighbors(g, x, levels[-1] - x)
            levels.append(base + nbrs)
        keys = _distinct(np.concatenate(levels))
        at, stop = ptr[block[0]], ptr[block[0]] + keys.size
        if stop > balls.size:
            balls.resize(2 * stop, refcheck=False)
        balls[at:stop] = keys % n
        np.add.at(cover, balls[at:stop], np.int32(1))  # int32 1: numpy's fast path
        counts = np.bincount(keys // n - block[0], minlength=block.size)
        ptr[block + 1] = at + np.cumsum(counts)
    balls.resize(ptr[-1], refcheck=False)
    return balls, ptr, cover


def generator_algorithm(g: Graph, k: int, seed: int, s: int) -> KMatching:
    """Build a k-matching of exactly s edges by pairing 2s random vertices
    and repairing invalid pairs one at a time.  The caller chooses s, the
    paper's at (n, d, k) being ``analytic.default_pair_count``; the repair
    loop needs no budget, as it makes at most s repairs.

    A coverage counter holds, per vertex, the number of selected vertices
    within distance k-1: the set F of vertices at distance >= k from the
    selection is where it reads 0, and a pair is valid (an edge with no
    other selected vertex within distance k-1) iff it reads 2 at both
    endpoints.  The start grows and keeps each selected vertex's ball
    (``_kept_balls``) and checks all s pairs at once.  One ascending pass
    visits the pairs invalid at the start (only edges can have turned
    valid); each one still invalid has its two kept balls taken off the
    counter and is replaced by a uniformly random edge induced by F (drawn
    by rejection from the edge list, with an exact scan fallback), whose
    balls are grown and counted: O(d^(k-1)) work, not O(n).  The new
    endpoints read 0 once the old balls are off and exactly 2 (the pair
    itself) after the insertion, whose balls hold no other selected vertex;
    removals only lower counts.  So a repaired pair is valid, a valid pair
    stays valid, and the pass ends with every pair valid after at most s
    repairs.

    Raises GeneratorStalled, carrying |F|, when F induces no edge.
    """
    if k < 2:
        raise ValueError("generator needs k >= 2")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if 2 * s > g.n:
        raise ValueError(f"need 2s={2 * s} <= n={g.n} distinct vertices")
    rng = np.random.default_rng(np.random.PCG64(seed))
    draw = rng.choice(g.n, size=2 * s, replace=False)
    pu = np.minimum(draw[0::2], draw[1::2]).astype(np.int64)
    pv = np.maximum(draw[0::2], draw[1::2]).astype(np.int64)
    # selected vertices stay distinct (drawn without replacement, inserted
    # from F); each adds 1 over its ball.  Pair i's ends own balls i, s + i
    balls, ptr, cover = _kept_balls(g, np.concatenate([pu, pv]), k - 1)
    edges = _upper_hits(g, pu, pv)
    invalid = np.flatnonzero(~(edges & (cover[pu] == 2) & (cover[pv] == 2)))
    iterations, m = 0, g.edge_count
    for i in invalid.tolist():
        if edges[i] and cover[pu[i]] == 2 and cover[pv[i]] == 2:
            continue  # the conflicting pair was repaired away
        iterations += 1
        for b in (i, s + i):
            cover[balls[ptr[b] : ptr[b + 1]]] -= 1
        picked = None
        if m:
            for _ in range(_REJECTION_TRIES):
                j = int(rng.integers(m))
                # the row is bisected only when the larger end is far
                if cover[g.ev[j]] == 0 and cover[_edge_rows(g, j)] == 0:
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
        pu[i], pv[i] = _edge_rows(g, picked), g.ev[picked]
        for x in (pu[i], pv[i]):
            cover[_ball(g, (x,), k - 1)] += 1
    return KMatching(k, pu, pv)


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
    # j fits with i iff i's ball misses j's endpoints: symmetric, never j = i
    members = list(g.edges())
    balls = [frozenset(bounded_ball(g, e, k - 1)) for e in members]
    compat = [
        sum(1 << j for j, (u, v) in enumerate(members) if u not in b and v not in b)
        for b in balls
    ]
    best_size = best_set = 0

    def grow(cand: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_set
        if size > best_size:
            best_size, best_set = size, chosen
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            grow(cand & compat[i], chosen | low, size + 1)

    grow((1 << m) - 1, 0, 0)
    witness = [e for i, e in enumerate(members) if best_set >> i & 1]
    return best_size, KMatching.of(k, witness)

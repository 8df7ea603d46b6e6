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

from .graph import (  # bench/run.py wraps bounded_ball and distance_to_set here by name
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
    _induced_runs,
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
    reject; an id beyond int32 or a non-empty array that is not of integers
    raises ValueError.  ``of`` normalizes them.
    ``to_text`` writes a "k m" header and one "u v" line per member; no
    command reads a matching back."""

    k: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        uv = np.asarray([self.u, self.v])
        if uv.size and not -(2**31) <= uv.min() <= uv.max() < 2**31:
            raise ValueError("a vertex id does not fit in int32")
        if uv.size and uv.dtype.kind not in "iu":
            raise ValueError(f"vertex ids must be integers, not {uv.dtype}")
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
      last level unlabelled.  ``_close_edges`` reads those edges: at k=1
      there are none; at k=2 both endpoints are matched vertices, so each
      is read once from their upper rows; beyond, an endpoint lies at
      distance <= (k-2)//2, so only the neighbours of those vertices are
      scanned, in ``_blocks``.  Which neighbour one level closer a vertex
      takes its owner from does not change the verdict.
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
    for x, y in _close_edges(g, dist, k):
        if np.any(owner[x] != owner[y]):
            return dist, False
    return dist, True


def _close_edges(g: Graph, dist: np.ndarray, k: int):
    """The edges (x, y) with dist[x] + dist[y] <= k-2, as endpoint arrays
    in blocks.  At k=2 they join two vertices at distance 0, so each is read
    once, from the upper rows of those vertices (``_induced_runs``): at
    n=10^6, d=50 that took 27-35 ms against 66-94 ms for a gather of all
    their neighbours.  Beyond, an endpoint lies at distance <= (k-2)//2,
    and the neighbours of those vertices are gathered in ``_blocks``, so
    an edge between two of them comes twice."""
    if k == 2:
        for ids in _induced_runs(g, dist == 0):
            yield _edge_rows(g, ids), g.ev[ids]
        return
    near = np.flatnonzero(dist <= (k - 2) // 2)
    for part in _blocks(near, *[ptr for ptr, _ in g.runs]):
        y, x = _gather_neighbors(g, part, part)
        close = dist[x] + dist[y] <= k - 2
        yield x[close], y[close]


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

#: ``owner`` of a vertex that no alive candidate has as an endpoint.
_NO_OWNER = np.iinfo(np.int32).max


def _sub_block(g: Graph, k: int) -> int:
    """Candidates per prefix-round block at k <= 2: n // (4 * ball), where
    ball = 2 (1 + d)^(k-1) is about an edge's radius-(k-1) ball at mean
    degree d, clamped to [512, 4096].  A block's balls then cover at most
    about a quarter of the vertices, so few of its candidates conflict with
    an earlier one; such a candidate's gather is repeated in the next
    round.  Smaller blocks pay numpy's per-call overhead in more rounds.
    Greedy calls on 2 CPUs, the rule's size in parentheses:

    * n=10^6, d=50, k=2 (2450): blocks of 1024-2048 took 204 ms, of 4096
      220 ms, of 8192 350 ms and of 16384 390 ms;
    * n=2000, d=20, k=2 (512): blocks of 512 took 3.4 ms, of 256 4.2 ms,
      of 1024 4.0 ms and of 4096 8.0 ms, against 4.4 ms for a Python loop;
    * k=1 (n=10^6: 4096; n=2000: 512): blocks of 1024 to 2^16 took the
      same 1.3 s at n=10^6, and 2.1-2.5 ms at n=2000.
    """
    ball = 2 * (1 + g.mean_degree()) ** (k - 1)
    return int(min(max(g.n // (4 * ball), 512), 4096))


def _rounds(
    g: Graph,
    k: int,
    us: np.ndarray,
    vs: np.ndarray,
    blocked: np.ndarray,
    owner: np.ndarray,
) -> np.ndarray:
    """Positions of the candidates ``(us[i], vs[i])``, k <= 2, that a scan
    in position order keeps, found in prefix rounds (Blelloch, Fineman and
    Shun, SPAA 2012) over consecutive blocks of ``_sub_block`` of them;
    ``blocked`` gains their balls.  ``owner`` holds ``_NO_OWNER`` at every
    vertex, before and after.

    A round reads a block's candidates still alive (no blocked endpoint),
    ranked in position order.  Each vertex's owner is the least rank of an
    alive candidate with it as an endpoint (one ``np.minimum.at``), and a
    candidate is a root when no vertex of its radius-(k-1) ball has a
    smaller owner: its endpoints, and at k=2 their neighbours, gathered
    once and labelled by rank.  No earlier alive candidate conflicts with a
    root, so the scan keeps it, and every candidate a root blocks comes
    after that root, so the scan skips it.  The round keeps all roots,
    blocks their balls from the same gather, and drops the candidates they
    block.
    """
    kept = [np.empty(0, dtype=np.int64)]
    block = _sub_block(g, k)
    for lo in range(0, us.size, block):
        bu, bv = us[lo : lo + block], vs[lo : lo + block]
        pos = np.flatnonzero(~(blocked[bu] | blocked[bv]))
        while pos.size:
            ends = np.concatenate([bu[pos], bv[pos]])
            rank = np.tile(np.arange(pos.size, dtype=np.int32), 2)
            np.minimum.at(owner, ends, rank)
            ball, label = [ends], [rank]
            if k == 2:
                nbrs, at = _gather_neighbors(g, ends, rank)
                ball.append(nbrs)
                label.append(at)
            late = np.zeros(pos.size, dtype=bool)
            for x, r in zip(ball, label):
                late[r[owner.take(x) < r]] = True
            owner[ends] = _NO_OWNER
            root = ~late
            for x, r in zip(ball, label):
                # take and compress: the rounds took 8% less at k=2 than
                # with fancy and boolean indexing
                blocked[np.compress(root.take(r), x)] = True
            kept.append(lo + pos[root])
            pos = pos[late]
            pos = pos[~(blocked[bu[pos]] | blocked[bv[pos]])]
    return np.concatenate(kept)


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
    pass.  At k <= 2 the candidates left are resolved in prefix rounds
    (``_rounds``), with no Python step per candidate, and the kept edges are
    those of the scan one at a time.  Beyond, a Python loop keeps them one
    at a time, blocking each ball by ``_ball``.
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
    owner = np.full(g.n, _NO_OWNER, dtype=np.int32) if k <= 2 else None

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
        if k <= 2:
            keep = _rounds(g, k, us, vs, blocked, owner)
        else:
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
    deg = sum(ptr[src + 1] - ptr[src] for ptr, _ in g.runs)
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
    mu = _edge_rows(g, np.arange(m))
    members = list(zip(mu.tolist(), g.ev.tolist()))
    # j fits with i iff i's ball misses j's endpoints: symmetric, never j = i
    balls = [set(_ball(g, e, k - 1).tolist()) for e in members]
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
    chosen = np.array([best_set >> i & 1 for i in range(m)], dtype=bool)
    return best_size, KMatching(k, mu[chosen], g.ev[chosen])

"""Immutable simple undirected graphs with seeded G(n,p) sampling and
bounded-radius distance primitives.

Vertices are the integers 0..n-1.  An edge is a normalized ``(u, v)`` tuple
with ``u < v``.  Adjacency is stored in CSR form (``indptr``/``indices``)
over numpy arrays so that multi-source BFS and whole-edge-set scans stay
vectorized at n ~ 10^6.

The G(n,p) sampler walks the lexicographic order of the C(n,2) vertex pairs
with geometric jumps, which is distributionally identical to drawing each
pair independently with probability p but costs O(edges) expected time.  All
randomness comes from a single PCG64 stream created from the 64-bit seed and
is consumed in a fixed order, so a (n, p, seed) triple denotes one graph
reproducibly (bit-identical for a fixed numpy version; numpy's generator
streams are stable across platforms).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

import numpy as np
from scipy import sparse

__all__ = [
    "UNREACHABLE",
    "Edge",
    "GnpParams",
    "Graph",
    "bounded_ball",
    "complete_graph",
    "cycle_graph",
    "distance_to_set",
    "edge",
    "far_vertex_set",
    "from_edges",
    "induced_edge_exists",
    "neighborhood_layers",
    "path_graph",
    "read_edge_list",
    "sample_gnp",
    "vertex_distance",
    "edge_distance",
    "write_edge_list",
]

#: Sentinel distance for vertex pairs with no connecting path.  Compares
#: greater than every finite distance.
UNREACHABLE = math.inf

Edge = tuple  # normalized (u, v) with u < v


def edge(u: int, v: int) -> tuple[int, int]:
    """Normalized edge tuple; rejects self-loops."""
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not an edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GnpParams:
    """Parameters of one seeded G(n,p) draw."""

    n: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph, frozen after construction.

    ``indptr``/``indices`` hold the symmetric adjacency (sorted neighbor ids
    per vertex); ``eu``/``ev`` list the m normalized edges in ascending
    lexicographic order.  Instances are safe to share across threads.
    """

    n: int
    indptr: np.ndarray  # int64, length n+1
    indices: np.ndarray  # int32, length 2m, sorted within each vertex
    eu: np.ndarray  # int32, length m
    ev: np.ndarray  # int32, length m

    @property
    def edge_count(self) -> int:
        return int(self.eu.shape[0])

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (read-only view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.shape[0] and int(nbrs[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) tuples in ascending lexicographic order."""
        for u, v in zip(self.eu.tolist(), self.ev.tolist()):
            yield (u, v)

    def mean_degree(self) -> float:
        return 2.0 * self.edge_count / self.n if self.n else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.eu, other.eu)
            and np.array_equal(self.ev, other.ev)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _from_sorted_pairs(n: int, eu: np.ndarray, ev: np.ndarray) -> Graph:
    """Build CSR adjacency from edges already sorted lexicographically.

    The symmetric adjacency comes from scipy's compiled COO->CSR counting
    sort plus an index sort, so neighbor lists are ascending and the build
    is O(n + m).
    """
    eu = np.ascontiguousarray(eu, dtype=np.int32)
    ev = np.ascontiguousarray(ev, dtype=np.int32)
    m = eu.shape[0]
    if m == 0:
        return Graph(
            n,
            _freeze(np.zeros(n + 1, dtype=np.int64)),
            _freeze(np.empty(0, dtype=np.int32)),
            _freeze(eu),
            _freeze(ev),
        )
    adj = sparse.coo_matrix(
        (
            np.ones(2 * m, dtype=np.int8),
            (np.concatenate([eu, ev]), np.concatenate([ev, eu])),
        ),
        shape=(n, n),
    ).tocsr()
    adj.sort_indices()
    indptr = adj.indptr.astype(np.int64)
    indices = adj.indices.astype(np.int32, copy=False)
    return Graph(n, _freeze(indptr), _freeze(indices), _freeze(eu), _freeze(ev))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph from an edge collection; normalizes, sorts, and validates."""
    pairs = [edge(u, v) for u, v in edges]
    pairs.sort()
    m = len(pairs)
    if m:
        eu = np.fromiter((p[0] for p in pairs), dtype=np.int32, count=m)
        ev = np.fromiter((p[1] for p in pairs), dtype=np.int32, count=m)
    else:
        eu = np.empty(0, dtype=np.int32)
        ev = np.empty(0, dtype=np.int32)
    if m and (int(eu.min()) < 0 or int(ev.max()) >= n):
        raise ValueError("edge endpoint out of range")
    for i in range(1, m):
        if pairs[i] == pairs[i - 1]:
            raise ValueError(f"duplicate edge {pairs[i]}")
    return _from_sorted_pairs(n, eu, ev)


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


# ---------------------------------------------------------------------------
# G(n,p) sampling
# ---------------------------------------------------------------------------

_BATCH_CAP = 1 << 22


def _pair_offsets(n: int) -> np.ndarray:
    # offs[u] = first linear index of pairs (u, *); offs[n] = C(n,2)
    a = np.arange(n + 1, dtype=np.int64)
    return a * n - a * (a + 1) // 2


def sample_gnp(params: GnpParams) -> Graph:
    """Sample G(n,p): every vertex pair is an edge independently with
    probability p.

    Pair (u,v), u<v, has linear index u*n - u*(u+1)/2 + (v-u-1); successive
    selected indices differ by Geometric(p) jumps computed as
    ``floor(log1p(-U)/log1p(-p)) + 1`` from uniforms U drawn in fixed-size
    batches, so the draw sequence (hence the graph) is a pure function of
    the seed.
    """
    n, p = params.n, params.p
    total = n * (n - 1) // 2
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    if total == 0 or p <= 0.0:
        t = np.empty(0, dtype=np.int64)
    elif p >= 1.0:
        t = np.arange(total, dtype=np.int64)
    else:
        log_q = math.log1p(-p)
        chunks = []
        pos = -1
        while pos < total - 1:
            expected = (total - 1 - pos) * p
            batch = int(min(max(expected * 1.125 + 64.0, 1024.0), _BATCH_CAP))
            u = rng.random(batch)
            # a gap past the last pair ends the walk: clamp before the cast
            gaps = np.minimum(np.log1p(-u) / log_q, total).astype(np.int64) + 1
            idx = pos + np.cumsum(gaps)
            cut = int(np.searchsorted(idx, total, side="left"))
            if cut:
                chunks.append(idx[:cut])
            pos = int(idx[-1])
        t = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    if t.shape[0] == 0:
        return _from_sorted_pairs(
            n, np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
        )
    offs = _pair_offsets(n)
    us = np.searchsorted(offs, t, side="right") - 1
    vs = t - offs[us] + us + 1
    return _from_sorted_pairs(n, us.astype(np.int32), vs.astype(np.int32))


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for graph on {g.n} vertices")


def vertex_distance(
    g: Graph, u: int, v: int, cap: Optional[int] = None
) -> Union[int, float]:
    """Shortest-path length between u and v; UNREACHABLE if none, or if a
    ``cap`` is given and the true distance exceeds it (early exit)."""
    _check_vertex(g, u)
    _check_vertex(g, v)
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    dist = 0
    while frontier:
        dist += 1
        if cap is not None and dist > cap:
            return UNREACHABLE
        nxt = []
        for x in frontier:
            for y in g.neighbors(x).tolist():
                if y == v:
                    return dist
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return UNREACHABLE


def edge_distance(
    g: Graph, e: tuple[int, int], f: tuple[int, int]
) -> Union[int, float]:
    """Distance between two edges of g: the vertex count of a shortest
    connecting path.

    0 when e == f, 1 when they share a vertex, otherwise 1 + the minimum
    endpoint-to-endpoint vertex distance.  This is the convention under
    which 1-matchings are ordinary matchings and 2-matchings induced ones.
    """
    e = edge(*e)
    f = edge(*f)
    for x in (e, f):
        if not g.has_edge(*x):
            raise ValueError(f"{x} is not an edge of the graph")
    if e == f:
        return 0
    if set(e) & set(f):
        return 1
    best: Union[int, float] = UNREACHABLE
    for x in e:
        for y in f:
            d = vertex_distance(g, x, y)
            if d < best:
                best = d
    return best if best is UNREACHABLE else 1 + best


def bounded_ball(g: Graph, seeds: Sequence[int], radius: int) -> list[int]:
    """All vertices within distance <= radius of the seed set (seeds
    included).  Cost is proportional to the ball, not the graph."""
    seen = set(int(s) for s in seeds)
    frontier = deque(seen)
    out = list(seen)
    for _ in range(radius):
        if not frontier:
            break
        nxt: deque[int] = deque()
        while frontier:
            x = frontier.popleft()
            for y in g.neighbors(x).tolist():
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    out.append(y)
        frontier = nxt
    return out


def _gather_neighbors(g: Graph, verts: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of ``verts`` (with multiplicity)."""
    starts = g.indptr[verts]
    counts = g.indptr[verts + 1] - starts
    tot = int(counts.sum())
    if tot == 0:
        return np.empty(0, dtype=g.indices.dtype)
    shifts = np.cumsum(counts) - counts
    idx = np.arange(tot, dtype=np.int64) - np.repeat(shifts, counts) + np.repeat(
        starts, counts
    )
    return g.indices[idx]


def distance_to_set(g: Graph, sources: Iterable[int], cap: int) -> np.ndarray:
    """Per-vertex distance to the nearest source, truncated at ``cap``.

    Returns an int32 array where value i < cap is the exact distance and
    value cap means "at least cap".  Empty source set gives all-cap.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    dist = np.full(g.n, cap, dtype=np.int32)
    src = np.asarray(list(sources) if not isinstance(sources, np.ndarray) else sources)
    if src.size == 0:
        return dist
    src = np.unique(src.astype(np.int64))
    if src.size and (src[0] < 0 or src[-1] >= g.n):
        raise ValueError("source vertex out of range")
    dist[src] = 0
    frontier = src
    for level in range(1, cap):
        nbrs = _gather_neighbors(g, frontier)
        fresh = nbrs[dist[nbrs] == cap]
        dist[fresh] = level
        if fresh.size == 0 or level == cap - 1:
            break  # the last level is never expanded, so never deduplicated
        frontier = np.unique(fresh)
    return dist


def neighborhood_layers(
    g: Graph, sources: Iterable[int], k: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """Partition vertices by exact distance to the source set.

    Returns (layers, far) where layers[i] holds the vertices at distance
    exactly i for 0 <= i <= k-1 and far holds those at distance >= k.  The
    k+1 returned sets are pairwise disjoint and cover all vertices.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    dist = distance_to_set(g, sources, k)
    layers = [np.flatnonzero(dist == i) for i in range(k)]
    far = np.flatnonzero(dist == k)
    return layers, far


def far_vertex_set(g: Graph, sources: Iterable[int], k: int) -> np.ndarray:
    """Vertices at distance >= k from every source (all of them if the
    source set is empty)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return np.flatnonzero(distance_to_set(g, sources, k) == k)


def induced_edge_exists(
    g: Graph, vertices: Iterable[int]
) -> Optional[tuple[int, int]]:
    """Lexicographically least edge of g with both endpoints in the given
    vertex set, or None."""
    mask = np.zeros(g.n, dtype=bool)
    vs = np.asarray(
        list(vertices) if not isinstance(vertices, np.ndarray) else vertices,
        dtype=np.int64,
    )
    if vs.size == 0 or g.edge_count == 0:
        return None
    mask[vs] = True
    return _induced_edge_from_mask(g, mask)


def _induced_edge_from_mask(g: Graph, mask: np.ndarray) -> Optional[tuple[int, int]]:
    if g.edge_count == 0:
        return None
    hits = mask[g.eu] & mask[g.ev]
    i = int(np.argmax(hits))
    if not hits[i]:
        return None
    return (int(g.eu[i]), int(g.ev[i]))


# ---------------------------------------------------------------------------
# Edge-list text format: "n m" header, then m lines "u v" with u < v in
# ascending lexicographic order, LF endings, ASCII decimal.
# ---------------------------------------------------------------------------


def write_edge_list(g: Graph, target: Union[str, IO[str]]) -> None:
    close = False
    if isinstance(target, str):
        target = open(target, "w", newline="\n")
        close = True
    try:
        target.write(f"{g.n} {g.edge_count}\n")
        for u, v in zip(g.eu.tolist(), g.ev.tolist()):
            target.write(f"{u} {v}\n")
    finally:
        if close:
            target.close()


def read_edge_list(source: Union[str, IO[str]]) -> Graph:
    close = False
    if isinstance(source, str):
        source = open(source, "r")
        close = True
    try:
        header = source.readline().split()
        if len(header) != 2:
            raise ValueError("edge list header must be 'n m'")
        n, m = int(header[0]), int(header[1])
        if n < 0 or m < 0:
            raise ValueError("negative counts in edge list header")
        eu = np.empty(m, dtype=np.int32)
        ev = np.empty(m, dtype=np.int32)
        prev = (-1, -1)
        for i in range(m):
            parts = source.readline().split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {i + 2}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise ValueError(f"self-loop {u} {v} at line {i + 2}")
            if not (0 <= u < v < n):
                raise ValueError(f"edge {u} {v} out of range or not normalized")
            if (u, v) <= prev:
                raise ValueError(
                    f"edges must be strictly ascending lexicographic at line {i + 2}"
                )
            prev = (u, v)
            eu[i] = u
            ev[i] = v
        if source.readline().strip():
            raise ValueError("trailing content after declared edge count")
        return _from_sorted_pairs(n, eu, ev)
    finally:
        if close:
            source.close()

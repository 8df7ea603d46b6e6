"""Immutable simple undirected graphs with seeded G(n,p) sampling and
bounded-radius distance primitives.

Vertices are the integers 0..n-1.  An edge is a normalized ``(u, v)`` tuple
with ``u < v``, and edge ids number the edges in ascending lexicographic
order.  Adjacency is stored as two sorted CSR halves over numpy arrays,
8 bytes per edge and 16 per vertex: the upper half lists each vertex's
larger neighbours (``ev`` under ``upper_ptr``, whose positions are the edge
ids), the lower half its smaller ones (``lower`` under ``lower_ptr``).  An
edge's smaller endpoint is its upper row, so no per-edge array holds it:
``Graph.eu`` derives one on each access, and the library's own paths
bisect ``upper_ptr`` for the edges they read.  Multi-source BFS gathers
from both halves, and the edges induced by a vertex set are read from the
set's own upper rows, so neither needs a whole-edge-set scan at n ~ 10^6.

The G(n,p) sampler walks the lexicographic order of the C(n,2) vertex pairs
with geometric jumps, which is distributionally identical to drawing each
pair independently with probability p but costs O(edges) expected time.  All
randomness comes from a single PCG64 stream created from the 64-bit seed and
is consumed in a fixed order, so a (n, p, seed) triple denotes one graph
reproducibly (bit-identical for a fixed numpy version; numpy's generator
streams are stable across platforms).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "UNREACHABLE",
    "GnpParams",
    "Graph",
    "bounded_ball",
    "complete_graph",
    "cycle_graph",
    "distance_to_set",
    "edge",
    "from_edges",
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

    The adjacency is kept as the two halves the sampler builds, each sorted
    within a vertex: vertex u's larger neighbours are
    ``ev[upper_ptr[u]:upper_ptr[u+1]]``, whose positions are their edge ids,
    and its smaller neighbours are ``lower[lower_ptr[u]:lower_ptr[u+1]]``.
    So ``ev`` lists the larger endpoints of the m normalized edges in
    ascending lexicographic order, and ``eu``, their smaller endpoints, is
    derived from ``upper_ptr`` on each access.  Instances are safe to share
    across threads.
    """

    n: int
    upper_ptr: np.ndarray  # int64, length n+1; row u holds edge ids from upper_ptr[u]
    lower_ptr: np.ndarray  # int64, length n+1
    lower: np.ndarray  # int32, length m, sorted within each vertex
    ev: np.ndarray  # int32, length m, sorted within each vertex's upper row

    @property
    def eu(self) -> np.ndarray:
        """The smaller endpoint of every edge, int32 and read-only: each
        vertex repeated over its upper row, built anew (4 bytes per edge) on
        every access."""
        rows = np.arange(self.n, dtype=np.int32)
        return _freeze(np.repeat(rows, np.diff(self.upper_ptr)))

    @property
    def edge_count(self) -> int:
        return int(self.ev.size)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v: its lower run, then its upper run."""
        lo, up = self.lower_ptr, self.upper_ptr
        return np.concatenate([self.lower[lo[v] : lo[v + 1]], self.ev[up[v] : up[v + 1]]])

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        u, v = min(u, v), max(u, v)
        row = self.ev[self.upper_ptr[u] : self.upper_ptr[u + 1]]
        i = int(np.searchsorted(row, v))
        return i < row.shape[0] and int(row[i]) == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) tuples in ascending lexicographic order."""
        return zip(self.eu.tolist(), self.ev.tolist())

    def mean_degree(self) -> float:
        return 2.0 * self.edge_count / self.n if self.n else 0.0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.upper_ptr, other.upper_ptr)
            and np.array_equal(self.ev, other.ev)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _from_upper_rows(n: int, upper_ptr: np.ndarray, ev: np.ndarray) -> Graph:
    """Build the graph whose lexicographically sorted edges are the larger
    endpoints ``ev`` (int32) under the int64 row pointers ``upper_ptr``.

    These are already the CSR rows of the upper half: each vertex's larger
    neighbours, ascending, at their edge ids.  scipy's compiled CSR->CSC
    counting sort transposes them over m entries into the lower half; it is
    stable, so each transposed row lists the vertex's smaller neighbours
    ascending.  The build is O(n + m) and sorts nothing.  No matrix value is
    read, so the values are a view of ``ev``'s first m bytes.
    """
    from scipy import sparse  # imported here: it takes 0.2 s, and only builds need it

    values = ev.view(np.int8)[: ev.size]
    lower = sparse.csr_matrix((values, ev, upper_ptr), shape=(n, n)).tocsc()
    lower_ptr = lower.indptr.astype(np.int64)
    lower_idx = lower.indices.astype(np.int32, copy=False)
    return Graph(n, *map(_freeze, (upper_ptr, lower_ptr, lower_idx, ev)))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph from an edge collection; normalizes, sorts, and validates."""
    pairs = sorted(edge(u, v) for u, v in edges)
    m = len(pairs)
    eu = np.fromiter((p[0] for p in pairs), dtype=np.int32, count=m)
    ev = np.fromiter((p[1] for p in pairs), dtype=np.int32, count=m)
    if m and (int(eu.min()) < 0 or int(ev.max()) >= n):
        raise ValueError("edge endpoint out of range")
    for i in range(1, m):
        if pairs[i] == pairs[i - 1]:
            raise ValueError(f"duplicate edge {pairs[i]}")
    return _from_upper_rows(n, np.searchsorted(eu, np.arange(n + 1)), ev)


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

#: The sampler's batch size and the kernels' block size, in array entries:
#: what one pass over int32 and int64 arrays keeps within a 2-4 MB L2.
_BATCH_CAP = 1 << 16

#: The sampler's edge buffer holds the binomial edge count's mean plus this
#: many standard deviations; a draw outgrows it with probability < 1e-15.
_SPARE_SD = 8


def _pair_offsets(n: int) -> np.ndarray:
    # offs[u] = first linear index of pairs (u, *); offs[n] = C(n,2)
    a = np.arange(n + 1, dtype=np.int64)
    return a * n - a * (a + 1) // 2


def _pair_batches(n: int, p: float, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The linear indices of the selected pairs, ascending, in int64
    batches of at most ``_BATCH_CAP``."""
    total = n * (n - 1) // 2
    if total == 0 or p <= 0.0:
        return
    if p >= 1.0:
        for start in range(0, total, _BATCH_CAP):
            yield np.arange(start, min(start + _BATCH_CAP, total), dtype=np.int64)
        return
    log_q = math.log1p(-p)
    pos = -1
    while pos < total - 1:
        expected = (total - 1 - pos) * p
        batch = int(min(max(expected * 1.125 + 64.0, 1024.0), _BATCH_CAP))
        # gaps floor(log1p(-u) / log_q) + 1, computed in place; a gap past
        # the last pair ends the walk: clamp before the cast.  Numerators are
        # first clamped at 2*total gaps, which end the walk as well, so a
        # log_q near the subnormal range cannot overflow the division.
        u = rng.random(batch)
        np.log1p(np.negative(u, out=u), out=u)
        np.maximum(u, 2.0 * total * log_q, out=u)
        u /= log_q
        idx = np.minimum(u, total, out=u).astype(np.int64)
        idx += 1
        np.cumsum(idx, out=idx)
        idx += pos
        pos = int(idx[-1])
        yield idx[: int(np.searchsorted(idx, total, side="left"))]


def sample_gnp(params: GnpParams) -> Graph:
    """Sample G(n,p): every vertex pair is an edge independently with
    probability p.

    Pair (u,v), u<v, has linear index u*n - u*(u+1)/2 + (v-u-1); successive
    selected indices differ by Geometric(p) jumps computed as
    ``floor(log1p(-U)/log1p(-p)) + 1`` from uniforms U, each one 64-bit
    output of the stream, so the graph is a pure function of the seed
    whatever the batch size (``_BATCH_CAP`` at most).  Each batch is decoded
    to int32 larger endpoints straight into one buffer sized at the edge
    count's mean plus ``_SPARE_SD`` standard deviations; no array of all the
    pair indices is ever held.  A draw past the buffer grows it, and the
    buffer is cut to the edges drawn at the end.  Both are ``realloc``, which
    moves large blocks by remapping their pages, and pages never written
    are never resident.
    """
    n, p = params.n, params.p
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    offs = _pair_offsets(n)
    upper_ptr = np.zeros(n + 1, dtype=np.int64)  # row sizes at [1:] until the end
    total = n * (n - 1) // 2
    mean = total * p
    spare = _SPARE_SD * math.sqrt(mean * (1.0 - p))
    ev = np.empty(min(total, max(0, math.ceil(mean + spare))), dtype=np.int32)
    m = 0
    for t in _pair_batches(n, p, rng):
        if t.size == 0:
            continue
        # the batch covers rows lo..hi-1, row u holding the pairs
        # offs[u] <= t < offs[u+1]: search only those rows' offsets
        lo = int(np.searchsorted(offs, t[0], side="right")) - 1
        hi = int(np.searchsorted(offs, t[-1], side="right"))
        run = np.diff(np.searchsorted(t, offs[lo : hi + 1]))
        upper_ptr[lo + 1 : hi + 1] += run
        if m + t.size > ev.size:
            ev.resize(max(2 * ev.size, m + t.size), refcheck=False)
        shift = np.repeat(offs[lo:hi] - np.arange(lo, hi) - 1, run)
        ev[m : m + t.size] = t - shift
        m += t.size
    ev.resize(m, refcheck=False)
    np.cumsum(upper_ptr, out=upper_ptr)
    del offs  # 8 bytes per vertex, freed before the transposition sets the peak
    return _from_upper_rows(n, upper_ptr, ev)


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
    # a path has at most n - 1 edges, so a larger cap changes nothing
    bound = g.n - 1 if cap is None else min(cap, g.n - 1)
    if bound < 1:
        return UNREACHABLE
    d = int(distance_to_set(g, [u], bound + 1)[v])
    return d if d <= bound else UNREACHABLE


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
    # distances from e's endpoints; g.n reads "unreachable"
    best = int(distance_to_set(g, e, g.n)[list(f)].min())
    return UNREACHABLE if best == g.n else 1 + best


def bounded_ball(g: Graph, seeds: Sequence[int], radius: int) -> list[int]:
    """The sorted distinct vertices within distance <= radius of the seed
    set (seeds included), gathered by ``_ball``.  Cost is proportional to
    the ball, not the graph."""
    if len(seeds) == 0:
        return []
    return _distinct(_ball(g, seeds, radius)).tolist()


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` by a sort and a neighbour compare: numpy 2's hash
    path took 15-30x as long on int arrays of 10^5 entries."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _runs(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``starts[i]:stops[i]`` of every run i, concatenated in
    order, and each run's length."""
    counts = stops - starts
    ends = np.cumsum(counts)
    pos = np.repeat(starts - ends + counts, counts)
    pos += np.arange(pos.size, dtype=np.int64)
    return pos, counts


def _blocks(verts: np.ndarray, *ptrs: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of ``verts`` whose runs under the CSR pointer
    arrays ``ptrs`` hold at most ``_BATCH_CAP`` entries together (or one
    vertex whose runs hold more), so that a gather over one stays in cache."""
    ends = np.zeros(verts.size + 1, dtype=np.int64)
    for ptr in ptrs:
        ends[1:] += ptr[verts + 1] - ptr[verts]
    np.cumsum(ends, out=ends)
    start = 0
    while start < verts.size:
        stop = int(np.searchsorted(ends, ends[start] + _BATCH_CAP, side="right")) - 1
        yield verts[start : max(stop, start + 1)]
        start = max(stop, start + 1)


def _gather_neighbors(
    g: Graph, verts: np.ndarray, *values: np.ndarray
) -> list[np.ndarray]:
    """The neighbours of ``verts`` with multiplicity (every vertex's lower
    run, then every vertex's upper run), followed by each per-vertex array
    of ``values`` repeated to align with them."""
    nxt = verts + 1
    pos, counts = _runs(
        np.concatenate([g.lower_ptr[verts], g.upper_ptr[verts]]),
        np.concatenate([g.lower_ptr[nxt], g.upper_ptr[nxt]]),
    )
    split = int(counts[: verts.size].sum())
    nbrs = np.empty(pos.size, dtype=np.int32)
    np.take(g.lower, pos[:split], out=nbrs[:split])
    np.take(g.ev, pos[split:], out=nbrs[split:])
    return [nbrs] + [np.repeat(np.concatenate([a, a]), counts) for a in values]


def _ball(g: Graph, seeds: Sequence[int], radius: int) -> np.ndarray:
    """The vertices within distance <= radius of the seeds, seeds included,
    as an index array that may repeat a vertex.

    The first level is the seeds' two adjacency runs; each further level
    gathers the neighbours of the previous level's distinct vertices.  The
    last level is not deduplicated: the ball is meant for index assignment
    (``mask[ball] = True``, ``count[ball] += 1``), where a repeated index
    acts once.
    """
    levels = [seeds]
    if radius >= 1:
        for s in seeds:
            levels.append(g.lower[g.lower_ptr[s] : g.lower_ptr[s + 1]])
            levels.append(g.ev[g.upper_ptr[s] : g.upper_ptr[s + 1]])
    frontier, one = levels[1:], len(seeds) == 1  # one seed's runs are distinct
    for r in range(radius - 1):
        verts = np.concatenate(frontier)
        frontier = _gather_neighbors(g, verts if one and r == 0 else _distinct(verts))
        levels += frontier
    return np.concatenate(levels)


def _bfs(
    g: Graph, src: np.ndarray, cap: int, owner: Optional[np.ndarray] = None
) -> np.ndarray:
    """Distances from the in-range vertices ``src`` (repeats allowed),
    truncated at ``cap`` (see ``distance_to_set``).

    Each level gathers the previous level's neighbours in ``_blocks``; the
    next level is the distinct vertices that no earlier block had reached.
    Given ``owner``, a per-vertex label array already set at ``src``, every
    vertex at distance 1..cap-2 takes the label of a neighbour one level
    closer (from the first block that reaches it), so each labelled vertex
    lies at its distance from a source of its own label.  The last level,
    cap-1, is left unlabelled.
    """
    dist = np.full(g.n, cap, dtype=np.int32)
    dist[src] = 0
    frontier = src
    for level in range(1, cap):
        label = owner is not None and level < cap - 1
        reached = [np.empty(0, dtype=np.int32)]
        for part in _blocks(frontier, g.lower_ptr, g.upper_ptr):
            values = (owner[part],) if label else ()
            nbrs, *labels = _gather_neighbors(g, part, *values)
            fresh = dist[nbrs] == cap
            nbrs = nbrs[fresh]
            if label:
                owner[nbrs] = labels[0][fresh]
            dist[nbrs] = level
            reached.append(nbrs)
        frontier = np.concatenate(reached)
        if frontier.size == 0 or level == cap - 1:
            break  # the last level is never expanded, so never deduplicated
        frontier = _distinct(frontier)
    return dist


def distance_to_set(g: Graph, sources: Iterable[int], cap: int) -> np.ndarray:
    """Per-vertex distance to the nearest source, truncated at ``cap``.

    Returns an int32 array where value i < cap is the exact distance and
    value cap means "at least cap".  Empty source set gives all-cap.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    src = np.asarray(list(sources) if not isinstance(sources, np.ndarray) else sources)
    src = _distinct(src.astype(np.int64))
    if src.size and (src[0] < 0 or src[-1] >= g.n):
        raise ValueError("source vertex out of range")
    return _bfs(g, src, cap)


def _upper_hits(g: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each (u[i], v[i]) is an edge with u[i] < v[i]: one bisection
    of all the upper rows at once (a closed search can sit at ev.size)."""
    lo, end = g.upper_ptr[u], g.upper_ptr[u + 1]
    hi = end
    for _ in range(int((end - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) // 2
        below = (lo < hi) & (g.ev[np.minimum(mid, g.ev.size - 1)] < v)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    hit = lo < end
    hit[hit] = g.ev[lo[hit]] == v[hit]
    return hit


def _edge_rows(g: Graph, ids):
    """The smaller endpoint of edge ``ids`` (an id or an id array): the row
    of ``upper_ptr`` that holds it.  numpy starts each bisection of an
    array where the last one ended, so ascending ids are cheap: 2-6 ms per
    2^16 ids, against 26 ms in random order."""
    return g.upper_ptr.searchsorted(ids, side="right") - 1


def _induced_runs(g: Graph, mask: np.ndarray) -> Iterator[np.ndarray]:
    """Ascending ids of the edges with both endpoints in the boolean vertex
    mask, one run per block of the masked vertices' upper rows, read in
    ascending ``_blocks``: O(n + their larger-neighbour counts), not O(m).
    The ids are int32 while every edge id fits, else int64."""
    dtype = np.int32 if g.edge_count < 2**31 else np.int64
    rows = np.flatnonzero(mask)
    for part in _blocks(rows, g.upper_ptr):
        ids = _runs(g.upper_ptr[part], g.upper_ptr[part + 1])[0]
        # np.compress: boolean indexing took twice as long on dense masks
        yield np.compress(mask[g.ev[ids]], ids).astype(dtype, copy=False)


def _induced_edges(g: Graph, mask: np.ndarray) -> np.ndarray:
    """Ascending ids of the edges with both endpoints in the boolean vertex
    mask (see ``_induced_runs``), at a peak of 8 bytes per edge as int32."""
    return np.concatenate([np.empty(0, dtype=np.int32), *_induced_runs(g, mask)])


def _induced_edge_from_mask(g: Graph, mask: np.ndarray) -> Optional[tuple[int, int]]:
    """Lexicographically least edge of g with both endpoints in the boolean
    vertex mask, or None; a hit among the first masked vertices ends the
    search after one block of ``_induced_runs``."""
    for hits in _induced_runs(g, mask):
        if hits.size:
            i = int(hits[0])
            return (int(_edge_rows(g, i)), int(g.ev[i]))
    return None


# ---------------------------------------------------------------------------
# Edge-list text format: "n m" header, then m lines "u v" with u < v in
# ascending lexicographic order, LF endings, ASCII decimal.
# ---------------------------------------------------------------------------


def _ints(tokens: Sequence[str], line: int) -> list[int]:
    """The tokens of one text line as ints; a non-integer names the line."""
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"{exc} at line {line}") from None


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


def _canonical_edges(
    text: str, n: int, m: int
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The endpoint arrays of an edge-list body in the writer's form,
    parsed by numpy: m lines of two ASCII decimals of 1 to 9 digits (so
    below 2^31) split by one space, then only whitespace, with the edges
    strictly ascending and u < v < n.  Anything else gives None."""
    data = text.encode()
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if ends.size < m:
        return None
    stop = int(ends[m - 1]) + 1 if m else 0
    spaces = np.flatnonzero(raw[:stop] == ord(" "))
    if spaces.size != m or data[stop:].strip():
        return None
    seps = np.empty(2 * m, dtype=np.int64)
    seps[0::2], seps[1::2] = spaces, ends[:m]
    widths = np.diff(seps, prepend=-1) - 1
    digits = np.count_nonzero(raw[:stop] - ord("0") < 10)
    if digits != stop - 2 * m or not np.all((widths >= 1) & (widths <= 9)):
        return None
    u, v = np.fromstring(data[:stop], dtype=np.int64, sep=" ").reshape(-1, 2).T
    du, dv = np.diff(u), np.diff(v)
    if np.all(u < v) and np.all(v < n) and np.all((du > 0) | (du == 0) & (dv > 0)):
        return u.astype(np.int32), v.astype(np.int32)
    return None


def _edge_lines(source: IO[str], n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint arrays of an edge-list body read line by line; raises
    ValueError at the first malformed line."""
    eu = np.empty(m, dtype=np.int32)
    ev = np.empty(m, dtype=np.int32)
    prev = (-1, -1)
    for i in range(m):
        parts = source.readline().split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {i + 2}")
        u, v = _ints(parts, i + 2)
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
    if source.read().strip():
        raise ValueError("trailing content after declared edge count")
    return eu, ev


def read_edge_list(source: Union[str, IO[str]]) -> Graph:
    """Parse ``write_edge_list`` output.  A body in the writer's form is
    parsed by numpy; any other body is read line by line, which names the
    first malformed line or accepts what int() and str.split() accept."""
    close = False
    if isinstance(source, str):
        source = open(source, "r")
        close = True
    try:
        header = source.readline().split()
        if len(header) != 2:
            raise ValueError("edge list header must be 'n m'")
        n, m = _ints(header, 1)
        if n < 0 or m < 0:
            raise ValueError("negative counts in edge list header")
        text = source.read()
        edges = _canonical_edges(text, n, m)
        eu, ev = edges if edges is not None else _edge_lines(io.StringIO(text), n, m)
        return _from_upper_rows(n, np.searchsorted(eu, np.arange(n + 1)), ev)
    finally:
        if close:
            source.close()

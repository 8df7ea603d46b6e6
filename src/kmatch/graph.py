"""Immutable simple undirected graphs with seeded G(n,p) sampling and
bounded-radius distance primitives.

Vertices are the integers 0..n-1.  An edge is a normalized ``(u, v)`` tuple
with ``u < v``, and edge ids number the edges in ascending lexicographic
order.  Adjacency is stored as three sorted CSR runs per vertex over numpy
arrays, 8 bytes per edge and 16 per vertex: the upper run lists a vertex's
larger neighbours (``ev`` under ``upper_ptr``, whose positions are the edge
ids), and two lower runs in ``lower`` its smaller ones, those below a split
row (under ``low_ptr``) and those at or above it (under ``mid_ptr``).  An
edge's smaller endpoint is its upper row, so no per-edge array holds it:
``Graph.eu`` derives one on each access, and the library's own paths
bisect ``upper_ptr`` for the edges they read.  Multi-source BFS gathers
from all three runs, and the edges induced by a vertex set are read from
the set's own upper rows, so neither needs a whole-edge-set scan at
n ~ 10^6.

The G(n,p) sampler walks the lexicographic order of the C(n,2) vertex pairs
with geometric jumps, which is distributionally identical to drawing each
pair independently with probability p but costs O(edges) expected time.  All
randomness comes from a single PCG64 stream created from the 64-bit seed and
is consumed in a fixed order, so a (n, p, seed) triple denotes one graph
reproducibly (bit-identical for a fixed numpy version; numpy's generator
streams are stable across platforms).  Every graph is built by ``_build``
from its upper rows in ascending row items, and its lower runs are those
rows transposed in two row blocks: a worker thread transposes the rows
below the split once the items have passed them, while the calling thread
takes the remaining items and then transposes the rest.
"""

from __future__ import annotations

import io
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
    """Normalized edge tuple of two integers (``operator.index`` raises
    TypeError on any other end); rejects self-loops."""
    u, v = operator.index(u), operator.index(v)
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) is not an edge")
    return (u, v) if u < v else (v, u)


def _check_n(n: int) -> None:
    """The one vertex-count bound: ids 0..n-1 are int32."""
    if not 0 <= n <= 2**31:
        raise ValueError(f"n must be in [0, 2^31], got {n}")


@dataclass(frozen=True)
class GnpParams:
    """Parameters of one seeded G(n,p) draw."""

    n: int
    p: float
    seed: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph, frozen after construction.

    Each vertex's neighbours are three sorted runs, in ascending vertex
    order.  Vertex u's larger neighbours are ``ev[upper_ptr[u]:upper_ptr[u+1]]``,
    whose positions are their edge ids; so ``ev`` lists the larger endpoints
    of the m normalized edges in ascending lexicographic order, and ``eu``,
    their smaller endpoints, is derived from ``upper_ptr`` on each access.
    Its smaller neighbours below ``split`` are
    ``lower[low_ptr[u]:low_ptr[u+1]]`` and those from ``split`` up are
    ``lower[mid_ptr[u]:mid_ptr[u+1]]``: the upper rows below ``split`` and
    the rest, transposed apart (the first block on a worker thread) into
    the positions their entries hold in ``ev``.  The lower pointers are
    int32 while they fit.  ``runs`` holds the three ``(ptr, idx)`` pairs
    in that order, for the readers.  Instances are safe to share across
    threads.
    """

    n: int
    upper_ptr: np.ndarray  # int64, length n+1; row u holds edge ids from upper_ptr[u]
    ev: np.ndarray  # int32, length m, sorted within each vertex's upper row
    split: int
    low_ptr: np.ndarray  # int32 (int64 past 2^31 edges), length n+1
    mid_ptr: np.ndarray  # int32 (int64 past 2^31 edges), length n+1
    lower: np.ndarray  # int32, length m: the runs below split, then those from it
    runs: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for a in (self.upper_ptr, self.ev, self.low_ptr, self.mid_ptr, self.lower):
            _freeze(a)
        runs = (
            (self.low_ptr, self.lower),
            (self.mid_ptr, self.lower),
            (self.upper_ptr, self.ev),
        )
        object.__setattr__(self, "runs", runs)

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
        """Sorted neighbor ids of v: its three runs, concatenated."""
        return np.concatenate([idx[ptr[v] : ptr[v + 1]] for ptr, idx in self.runs])

    def has_edge(self, u: int, v: int) -> bool:
        """One bisection of the smaller endpoint's upper row (``_upper_hits``
        answers arrays of pairs)."""
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            return False
        u, v = min(u, v), max(u, v)
        lo, hi = self.upper_ptr[u], self.upper_ptr[u + 1]
        i = lo + self.ev[lo:hi].searchsorted(v)
        return bool(i < hi and self.ev[i] == v)

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


#: The share of the edges whose rows the worker thread transposes: the rows
#: below the split row, which the sampler's walk passes first.  The worker's
#: sort then runs about as long as the rest of the walk plus the calling
#: thread's sort of the other rows.
_LOW_SHARE = 0.6


def _split_row(cum: np.ndarray) -> int:
    """The first row r whose rows below hold ``_LOW_SHARE`` of the count
    ``cum[-1]``, given the rows' cumulative counts ``cum`` (``cum[r]`` is
    the count below row r)."""
    return int(np.searchsorted(cum, _LOW_SHARE * cum[-1]))


def _lower_block(
    n: int,
    upper_ptr: np.ndarray,
    ev: np.ndarray,
    lower: np.ndarray,
    first: int,
    last: int,
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """``(args, ptr, idx)``: the arguments of the sort that transposes the
    upper rows first..last-1, and its two outputs: for every vertex, the
    smaller neighbours among those rows, as CSR pointers over all n
    vertices and indices, which ``_lower_run`` finishes.  The indices take
    the positions the rows' entries hold in ``ev``, in ``lower``.
    ``upper_ptr`` must be cumulative up to ``last``.

    The sort is scipy's compiled CSR->CSC counting sort, ``csr_tocsc``.  It
    is stable, so each run is ascending; it runs in O(n + entries) and
    releases the GIL.  It is called directly, with these preallocated
    outputs: the public ``tocsc`` copies an input that is a view of less
    than half of its base.  Its pointers and indices share one type: int32
    while the positions fit, when the indices are written straight into
    ``lower``.  No value is read, so the input values are a view of ``ev``'s
    bytes and the output values one unread byte per entry, freed with
    ``args``.  Everything is allocated on the calling thread, also for a
    sort run on a worker: arrays a worker allocates and frees stay resident
    in that thread's malloc arena (9 MB more peak RSS over greedy trials).
    """
    base, stop = int(upper_ptr[first]), int(upper_ptr[last])
    itype = np.int32 if stop < 2**31 else np.int64
    rows = np.empty(last - first + 1, dtype=itype)
    np.subtract(upper_ptr[first : last + 1], base, out=rows, casting="unsafe")
    cols = ev[base:stop].astype(itype, copy=False)
    values = ev.view(np.int8)[: stop - base]
    ptr = np.empty(n + 1, dtype=itype)
    idx = lower[base:stop] if itype is np.int32 else np.empty(stop - base, dtype=itype)
    scratch = np.empty(stop - base, dtype=np.int8)
    return (last - first, n, rows, cols, values, ptr, idx, scratch), ptr, idx


def _lower_run(
    lower: np.ndarray,
    upper_ptr: np.ndarray,
    first: int,
    ptr: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """The pointers into ``lower`` of a ``_lower_block`` from row ``first``
    once sorted, with its indices in ``lower`` numbered from the block's
    rows to vertices."""
    base = int(upper_ptr[first])
    run = lower[base : base + idx.size]
    if idx.dtype != np.int32:
        run[:] = idx
    if first:
        run += first
    if base:
        ptr += base
    return ptr


def _build(n: int, split: int, size: int, rows: Iterable[tuple]) -> Graph:
    """The graph whose upper rows arrive as ascending items ``(lo, hi, run,
    values)``: row lo+i gains ``run[i]`` entries, whose larger endpoints are
    ``values`` in order.  They fill an int32 buffer ``ev`` sized at
    ``size``, grown by an item past it and cut at the end; both are
    ``realloc``, which moves large blocks by remapping their pages, and
    pages never written are never resident.  The lower runs fill a second
    buffer sized, grown and cut with the first.

    The first item that starts at or past row ``split`` finds the rows
    below final: a worker thread sorts them (``_lower_block``) while the
    items go on, and this thread sorts the rest after the last item.  The
    buffers grow only after a wait for the worker, which reads the one and
    writes the other, and it is joined before this returns or raises.
    """
    from scipy.sparse._sparsetools import csr_tocsc  # imported here: it takes 0.2 s

    upper_ptr = np.zeros(n + 1, dtype=np.int64)  # row sizes at [1:] until summed
    ev = np.empty(size, dtype=np.int32)
    lower = np.empty(size, dtype=np.int32)
    m = 0
    with ThreadPoolExecutor(max_workers=1) as pool:

        def sort_low():
            np.cumsum(upper_ptr[: split + 1], out=upper_ptr[: split + 1])
            args, *low = _lower_block(n, upper_ptr, ev, lower, 0, split)
            return low, pool.submit(csr_tocsc, *args)

        low = sorting = None
        for lo, hi, run, values in rows:
            if sorting is None and lo >= split:
                low, sorting = sort_low()
            upper_ptr[lo + 1 : hi + 1] += run
            if m + values.size > ev.size:
                if sorting is not None:
                    sorting.result()
                ev.resize(max(2 * ev.size, m + values.size), refcheck=False)
                lower.resize(ev.size, refcheck=False)
            ev[m : m + values.size] = values
            m += values.size
        if sorting is None:
            low, sorting = sort_low()
        np.cumsum(upper_ptr[split:], out=upper_ptr[split:])
        args, *mid = _lower_block(n, upper_ptr, ev, lower, split, n)
        csr_tocsc(*args)
        del args
        sorting.result()
    ev.resize(m, refcheck=False)
    lower.resize(m, refcheck=False)
    low_ptr = _lower_run(lower, upper_ptr, 0, *low)
    mid_ptr = _lower_run(lower, upper_ptr, split, *mid)
    return Graph(n, upper_ptr, ev, split, low_ptr, mid_ptr, lower)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph from an edge collection; normalizes, sorts, and validates."""
    _check_n(n)
    pairs = sorted(edge(u, v) for u, v in edges)
    m = len(pairs)
    if m and (pairs[0][0] < 0 or max(v for _, v in pairs) >= n):
        raise ValueError("edge endpoint out of range")
    eu = np.fromiter((p[0] for p in pairs), dtype=np.int32, count=m)
    ev = np.fromiter((p[1] for p in pairs), dtype=np.int32, count=m)
    for i in range(1, m):
        if pairs[i] == pairs[i - 1]:
            raise ValueError(f"duplicate edge {pairs[i]}")
    cum = np.searchsorted(eu, np.arange(n + 1))
    return _build(n, _split_row(cum), m, [(0, n, np.diff(cum), ev)])


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


def _pair_rows(offs: np.ndarray, batches: Iterable[np.ndarray]) -> Iterator[tuple]:
    """The ``_build`` row items of the pair-index batches, each decoded in
    place (``_build`` holds an item while the next is drawn, so a copy
    would add a batch to the peak) with the pair offsets ``offs``, which
    are freed when the walk ends."""
    for t in batches:
        if t.size == 0:
            continue
        # the batch covers rows lo..hi-1, row u holding the pairs
        # offs[u] <= t < offs[u+1]: search only those rows' offsets
        lo = int(np.searchsorted(offs, t[0], side="right")) - 1
        hi = int(np.searchsorted(offs, t[-1], side="right"))
        run = np.diff(np.searchsorted(t, offs[lo : hi + 1]))
        t -= np.repeat(offs[lo:hi] - np.arange(lo, hi) - 1, run)
        yield lo, hi, run, t


def sample_gnp(params: GnpParams) -> Graph:
    """Sample G(n,p): every vertex pair is an edge independently with
    probability p.

    Pair (u,v), u<v, has linear index u*n - u*(u+1)/2 + (v-u-1); successive
    selected indices differ by Geometric(p) jumps computed as
    ``floor(log1p(-U)/log1p(-p)) + 1`` from uniforms U, each one 64-bit
    output of the stream, so the graph is a pure function of the seed
    whatever the batch size (``_BATCH_CAP`` at most).  No array of all the
    pair indices is ever held: ``_pair_rows`` decodes each batch to its
    rows' larger endpoints, and ``_build`` takes them into buffers sized at
    the edge count's mean plus ``_SPARE_SD`` standard deviations.  The
    split row is where the rows below hold ``_LOW_SHARE`` of the pairs, so
    of the expected edges: the worker sorts those rows while the walk goes
    on.
    """
    n, p = params.n, params.p
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    total = n * (n - 1) // 2
    mean = total * p
    spare = _SPARE_SD * math.sqrt(mean * (1.0 - p))
    size = min(total, max(0, math.ceil(mean + spare)))
    offs = _pair_offsets(n)
    split, rows = _split_row(offs), _pair_rows(offs, _pair_batches(n, p, rng))
    del offs  # 8 bytes per vertex, freed with the walk, before the second block
    return _build(n, split, size, rows)


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
    # distances from e's endpoints (0 at a shared one); g.n reads "unreachable"
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
    """The neighbours of ``verts`` with multiplicity (every vertex's run
    below the split, then every vertex's run from it, both read from
    ``g.lower``, then every vertex's upper run), followed by each per-vertex
    array of ``values`` repeated to align with them."""
    nxt = verts + 1
    pos, counts = _runs(
        np.concatenate([ptr.take(verts) for ptr, _ in g.runs]),
        np.concatenate([ptr.take(nxt) for ptr, _ in g.runs]),
    )
    split = int(counts[: 2 * verts.size].sum())
    nbrs = np.empty(pos.size, dtype=np.int32)
    np.take(g.lower, pos[:split], out=nbrs[:split])
    np.take(g.ev, pos[split:], out=nbrs[split:])
    return [nbrs] + [np.repeat(np.tile(a, len(g.runs)), counts) for a in values]


def _ball(g: Graph, seeds: Sequence[int], radius: int) -> np.ndarray:
    """The vertices within distance <= radius of the seeds, seeds included,
    as an index array that may repeat a vertex.

    The first level is the seeds' adjacency runs; each further level
    gathers the neighbours of the previous level's distinct vertices.  The
    last level is not deduplicated: the ball is meant for index assignment
    (``mask[ball] = True``, ``count[ball] += 1``), where a repeated index
    acts once.
    """
    levels = [seeds]
    if radius >= 1:
        lp, mp, up, lower, ev = g.low_ptr, g.mid_ptr, g.upper_ptr, g.lower, g.ev
        for s in seeds:
            t = s + 1
            levels += (lower[lp[s] : lp[t]], lower[mp[s] : mp[t]], ev[up[s] : up[t]])
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
    ptrs = [ptr for ptr, _ in g.runs]
    for level in range(1, cap):
        label = owner is not None and level < cap - 1
        reached = [np.empty(0, dtype=np.int32)]
        for part in _blocks(frontier, *ptrs):
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
    value cap means "at least cap".  Empty source set gives all-cap; sources
    that are not integers raise ValueError.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    src = np.asarray(list(sources) if not isinstance(sources, np.ndarray) else sources)
    if src.size and src.dtype.kind not in "iu":
        raise ValueError(f"source vertices must be integers, not {src.dtype}")
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
        _check_n(n)
        text = source.read()
        edges = _canonical_edges(text, n, m)
        eu, ev = edges if edges is not None else _edge_lines(io.StringIO(text), n, m)
        cum = np.searchsorted(eu, np.arange(n + 1))
        return _build(n, _split_row(cum), m, [(0, n, np.diff(cum), ev)])
    finally:
        if close:
            source.close()

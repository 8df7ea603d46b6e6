"""The G(n,p) sampler and CSR build as they stood before the per-batch
decode: one global int64 pair-index array, then scipy's COO->CSR build over
the full 2m-entry symmetric COO.  The reference the library's sampler and
``from_edges`` are tested against, byte for byte, through ``symmetric_csr``,
which merges a graph's three adjacency runs back into that CSR."""

import math

import numpy as np
from scipy import sparse

_BATCH_CAP = 1 << 22


def reference_csr(n, eu, ev):
    """(indptr, indices, eu, ev) of the graph on n vertices whose edges,
    sorted lexicographically, are the pairs (eu[i], ev[i])."""
    eu = np.ascontiguousarray(eu, dtype=np.int32)
    ev = np.ascontiguousarray(ev, dtype=np.int32)
    m = eu.shape[0]
    if m == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32), eu, ev
    adj = sparse.coo_matrix(
        (
            np.ones(2 * m, dtype=np.int8),
            (np.concatenate([ev, eu]), np.concatenate([eu, ev])),
        ),
        shape=(n, n),
    ).tocsr()
    indptr = adj.indptr.astype(np.int64)
    indices = adj.indices.astype(np.int32, copy=False)
    return indptr, indices, eu, ev


def symmetric_csr(g):
    """(indptr, indices, eu, ev) of the graph g, its three adjacency runs
    merged row by row: each vertex's smaller neighbours below the split,
    then those from the split up, then its larger ones."""
    blocks = [(g.low_ptr, g.lower), (g.mid_ptr, g.lower), (g.upper_ptr, g.ev)]
    runs = [np.empty(0, dtype=np.int32)]
    for v in range(g.n):
        runs += [idx[ptr[v] : ptr[v + 1]] for ptr, idx in blocks]
    degree = sum(np.diff(ptr.astype(np.int64)) for ptr, _ in blocks)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(degree)])
    return indptr, np.concatenate(runs).astype(np.int32), g.eu, g.ev


def lower_csr(g):
    """(indptr, indices) of every vertex's smaller neighbours, ascending,
    from one public scipy ``tocsc`` of g's whole upper half."""
    values = np.ones(g.edge_count, dtype=np.int8)
    lower = sparse.csr_matrix((values, g.ev, g.upper_ptr), shape=(g.n, g.n)).tocsc()
    return lower.indptr.astype(np.int64), lower.indices.astype(np.int32)


def _pair_offsets(n):
    a = np.arange(n + 1, dtype=np.int64)
    return a * n - a * (a + 1) // 2


def reference_sample_gnp(n, p, seed):
    """(indptr, indices, eu, ev) of the seeded G(n,p) draw."""
    total = n * (n - 1) // 2
    rng = np.random.default_rng(np.random.PCG64(seed))
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
            gaps = np.minimum(np.log1p(-u) / log_q, total).astype(np.int64) + 1
            idx = pos + np.cumsum(gaps)
            cut = int(np.searchsorted(idx, total, side="left"))
            if cut:
                chunks.append(idx[:cut])
            pos = int(idx[-1])
        t = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    if t.shape[0] == 0:
        return reference_csr(n, np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))
    offs = _pair_offsets(n)
    counts = np.diff(np.searchsorted(t, offs))
    us = np.repeat(np.arange(n, dtype=np.int32), counts)
    vs = t - np.repeat(offs[:-1] - np.arange(n) - 1, counts)
    return reference_csr(n, us, vs.astype(np.int32))

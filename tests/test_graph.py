import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch as km
from kmatch.graph import (
    UNREACHABLE,
    GnpParams,
    _ball,
    _bfs,
    _blocks,
    _distinct,
    _induced_edge_from_mask,
    _induced_edges,
    _ints,
    _upper_hits,
    bounded_ball,
    distance_to_set,
)

import gnp_reference
from bfs_reference import python_ball
from gnp_reference import reference_csr, reference_sample_gnp, symmetric_csr


def test_edge_normalizes_and_rejects_loops():
    assert km.graph.edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        km.graph.edge(2, 2)


def test_gnp_params_validation():
    with pytest.raises(ValueError):
        GnpParams(-1, 0.5, 0)
    with pytest.raises(ValueError):
        GnpParams(10, 1.5, 0)


class TestSampling:
    def test_p_one_gives_complete_graph(self):
        g = km.sample_gnp(GnpParams(4, 1.0, 123))
        assert g.edge_count == 6
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_p_zero_gives_isolated_vertices(self):
        g = km.sample_gnp(GnpParams(100, 0.0, 9))
        assert g.edge_count == 0
        assert g.n == 100

    @pytest.mark.filterwarnings("error")
    def test_tiny_p_gives_empty_graph(self):
        # the geometric gaps exceed the int64 range unless clamped at the
        # pair count before the cast
        g = km.sample_gnp(GnpParams(1000, 1e-19, 1))
        assert g.n == 1000
        assert g.edge_count == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1e-308])
    def test_near_subnormal_p_gives_empty_graph(self, p):
        # log1p(-p) is as tiny as p, so the gap quotients overflow float64
        # unless the numerators are clamped before the division
        g = km.sample_gnp(GnpParams(5, p, 0))
        assert g.n == 5
        assert g.edge_count == 0

    def test_n_zero_and_one(self):
        assert km.sample_gnp(GnpParams(0, 0.7, 1)).edge_count == 0
        assert km.sample_gnp(GnpParams(1, 0.7, 1)).edge_count == 0

    def test_seed_determinism(self):
        a = km.sample_gnp(GnpParams(500, 0.05, 42))
        b = km.sample_gnp(GnpParams(500, 0.05, 42))
        assert a == b
        assert np.array_equal(a.lower, b.lower)
        c = km.sample_gnp(GnpParams(500, 0.05, 43))
        assert a != c

    def test_edge_count_band_at_reference_point(self):
        # N*p with N = C(10^4, 2) is 49995; the band is 5*sqrt(N*p).
        g = km.sample_gnp(GnpParams(10_000, 0.001, 1))
        assert g.edge_count == 50042  # frozen for this generator
        assert abs(g.edge_count - 49995.0) <= 5 * math.sqrt(49995.0)

    @pytest.mark.parametrize(
        "n, p, seed, m, digest",
        # (n, p, seed, edge count, sha256 prefix of the dtypes and bytes of
        # indptr, indices, eu and ev) as sampled by the previous decode (one
        # offset search per pair) and CSR build (COO rows [eu, ev], then an
        # index sort); indptr and indices are the two halves merged back
        [
            (0, 0.7, 1, 0, "4dcfbf1083ea4687"),
            (1, 0.7, 1, 0, "7c829b9eaac18ce2"),
            (50, 0.0, 3, 0, "fc7279648293d2a9"),
            (30, 1.0, 5, 435, "2fe5cbe98113cee7"),
            (2, 1.0, 8, 1, "f003bb4772c89279"),
            (1000, 1e-19, 1, 0, "8677609170e6c584"),
            (1000, 1e-06, 2, 1, "449394c922349bf1"),
            (500, 0.05, 42, 6331, "d24845e5a9b9738c"),
            (2000, 0.004, 7, 7996, "737ea29ff9edabb6"),
            (3000, 0.01, 123, 45194, "2e9b91ee9de1bac3"),
            (100000, 0.0002, 3, 999194, "51aef85f0307f2bd"),
        ],
    )
    def test_arrays_pinned(self, n, p, seed, m, digest):
        g = km.sample_gnp(GnpParams(n, p, seed))
        upper_ptr = np.concatenate([[0], np.cumsum(np.bincount(g.eu, minlength=n))])
        assert g.upper_ptr.dtype == np.int64
        assert np.array_equal(g.upper_ptr, upper_ptr)
        h = hashlib.sha256()
        for a in symmetric_csr(g):
            h.update(a.dtype.str.encode())
            h.update(np.ascontiguousarray(a).tobytes())
        assert (g.edge_count, h.hexdigest()[:16]) == (m, digest)

    def test_adjacency_is_symmetric_and_sorted(self):
        g = km.sample_gnp(GnpParams(60, 0.2, 7))
        degs = 0
        for u in range(g.n):
            nbrs = g.neighbors(u).tolist()
            assert nbrs == sorted(set(nbrs))
            assert u not in nbrs
            for v in nbrs:
                assert u in g.neighbors(v).tolist()
            assert [v for v in range(g.n) if g.has_edge(u, v)] == nbrs
            degs += len(nbrs)
        assert degs == 2 * g.edge_count

    def test_marginal_edge_probability(self):
        # pair (0,1) should appear with frequency ~p across seeds
        hits = sum(
            km.sample_gnp(GnpParams(8, 0.3, seed)).has_edge(0, 1)
            for seed in range(2000)
        )
        assert abs(hits / 2000 - 0.3) < 3 * math.sqrt(0.3 * 0.7 / 2000)

    @pytest.mark.slow
    def test_chernoff_band_200_samples(self):
        # fraction of samples deviating by 10% from N*p, vs the tail bound
        # 2*exp(-0.005*N*p) (plus 3 sigma of the empirical frequency)
        n, p, samples = 10_000, 1e-3, 200
        np_mean = n * (n - 1) / 2 * p
        bad = sum(
            abs(km.sample_gnp(GnpParams(n, p, s)).edge_count - np_mean) > 0.1 * np_mean
            for s in range(samples)
        )
        bound = 2 * math.exp(-0.005 * np_mean)
        margin = 3 * math.sqrt(max(bound * (1 - bound), 1e-12) / samples)
        assert bad / samples <= bound + margin

    def test_peak_memory_at_most_1_2_graphs(self):
        # the decode holds no array of all pair indices and the build no
        # 2m-long symmetric COO; holding both costs about 3.9x the graph.
        # Batches of _BATCH_CAP pairs leave the build's own arrays as the
        # peak: 1.14x the 8-bytes-per-edge graph here (seeds 5-7), and 1.29x
        # while the transposition's unread values were an array of their own
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            g = km.sample_gnp(GnpParams(10**5, 1e-3, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [getattr(g, f.name) for f in dataclasses.fields(g)]
        nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert peak <= 1.2 * nbytes


    @pytest.mark.parametrize(
        "g",
        [
            km.sample_gnp(GnpParams(0, 0.5, 1)),
            km.sample_gnp(GnpParams(40, 1.0, 2)),
            km.sample_gnp(GnpParams(3000, 0.01, 123)),
            km.from_edges(7, [(5, 2), (0, 3), (3, 6)]),
        ],
        ids=["empty", "complete", "gnp", "from_edges"],
    )
    def test_graph_holds_8_bytes_per_edge_and_16_per_vertex(self, g):
        # ev and lower, and the two int64 row pointers; eu is derived
        arrays = [getattr(g, f.name) for f in dataclasses.fields(g)]
        nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert nbytes == 8 * g.edge_count + 16 * (g.n + 1)
        eu = g.eu
        assert eu.dtype == np.int32 and not eu.flags.writeable
        assert np.array_equal(eu, np.repeat(np.arange(g.n), np.diff(g.upper_ptr)))

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
    def test_sampling_raises_peak_rss_by_at_most_12_75_bytes_per_edge(self):
        # VmHWM over sample_gnp at m ~ 5*10^6, in a fresh interpreter: the
        # 8-byte-per-edge graph, plus the build's transposition.  Decoding
        # the batches into a list of arrays and concatenating them took
        # 13.9-14.1 bytes per edge (the batches stay in the heap); one
        # buffer takes 11.6
        src = str(Path(km.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", _SAMPLE_HWM],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        grown, m = map(int, proc.stdout.split())
        assert m > 4_900_000
        assert grown <= 12.75 * m, grown / m


_SAMPLE_HWM = """
import scipy.sparse  # the build imports it; loaded first, it is not counted
from kmatch.graph import GnpParams, sample_gnp

def hwm():
    with open("/proc/self/status") as f:
        return next(int(s.split()[1]) * 1024 for s in f if s.startswith("VmHWM:"))

before = hwm()
g = sample_gnp(GnpParams(200_000, 50 / 199_999, 1))
print(hwm() - before, g.edge_count)
"""


def assert_same_arrays(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestSamplerAgainstReference:
    """Byte-for-byte against the global-index sampler and COO build kept in
    tests/gnp_reference.py."""

    @pytest.mark.parametrize(
        "n, p, seed",
        [(0, 0.5, 1), (1, 0.5, 1), (2, 0.5, 1), (2, 0.5, 4), (40, 0.0, 2)]
        + [(40, 1.0, 2), (2, 1.0, 3), (2000, 1e-19, 3), (2000, 1e-7, 4)]
        + [(n, p, s) for n in (3, 17, 300, 2500) for p in (0.003, 0.1, 0.6, 0.97) for s in (0, 1)],
    )
    def test_sample_gnp(self, n, p, seed):
        got = symmetric_csr(km.sample_gnp(GnpParams(n, p, seed)))
        assert_same_arrays(got, reference_sample_gnp(n, p, seed))

    @pytest.mark.parametrize("n, p, seed", [(400, 0.05, 1), (3000, 0.004, 2), (90, 1.0, 3)])
    def test_small_batches(self, monkeypatch, n, p, seed):
        # many CSR rows straddle two batches
        monkeypatch.setattr(km.graph, "_BATCH_CAP", 2048)
        monkeypatch.setattr(gnp_reference, "_BATCH_CAP", 2048)
        got = symmetric_csr(km.sample_gnp(GnpParams(n, p, seed)))
        assert_same_arrays(got, reference_sample_gnp(n, p, seed))

    @pytest.mark.parametrize("cap", [2**10, 2**16, 2**22])
    @pytest.mark.parametrize(
        "n, p, seed",
        [(0, 0.5, 1), (1, 0.5, 1), (90, 1.0, 3), (2000, 1e-19, 3), (3000, 0.004, 2)]
        + [(5000, 0.02, 11), (20000, 0.005, 12)],
    )
    def test_batch_size_does_not_change_the_graph(self, monkeypatch, cap, n, p, seed):
        # every uniform takes one 64-bit output, so where the batches split
        # cannot move the walk; the reference keeps its own 2^22 batches
        monkeypatch.setattr(km.graph, "_BATCH_CAP", cap)
        got = symmetric_csr(km.sample_gnp(GnpParams(n, p, seed)))
        assert_same_arrays(got, reference_sample_gnp(n, p, seed))

    @pytest.mark.parametrize("spare_sd", [-3, -(10**9)])
    @pytest.mark.parametrize(
        "n, p, seed", [(2, 0.5, 2), (300, 0.1, 1), (3000, 0.004, 2), (20000, 0.005, 12)]
    )
    def test_outgrown_edge_buffer(self, monkeypatch, spare_sd, n, p, seed):
        # the buffer sized at the mean minus 3 sd, or at 0, outgrows its
        # size once or several times, in 2^10-pair batches
        monkeypatch.setattr(km.graph, "_SPARE_SD", spare_sd)
        monkeypatch.setattr(km.graph, "_BATCH_CAP", 2**10)
        g = km.sample_gnp(GnpParams(n, p, seed))
        mean = n * (n - 1) / 2 * p
        assert g.edge_count > max(0, mean + spare_sd * math.sqrt(mean * (1 - p)))
        assert_same_arrays(symmetric_csr(g), reference_sample_gnp(n, p, seed))

    @given(
        n=st.integers(0, 40),
        pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
    )
    @settings(max_examples=150, deadline=None)
    def test_from_edges(self, n, pairs):
        edges = sorted({km.graph.edge(u, v) for u, v in pairs if u != v and max(u, v) < n})
        eu = np.array([u for u, _ in edges], dtype=np.int32)
        ev = np.array([v for _, v in edges], dtype=np.int32)
        got = symmetric_csr(km.from_edges(n, [(v, u) for u, v in reversed(edges)]))
        assert_same_arrays(got, reference_csr(n, eu, ev))


def nx_graph(g):
    """The same graph in networkx, the independent distance reference."""
    out = nx.Graph(list(g.edges()))
    out.add_nodes_from(range(g.n))
    return out


def nx_set_distance(nxg, sources, v):
    """Distance from v to the nearest source; UNREACHABLE if none is
    connected to v."""
    lengths = nx.multi_source_dijkstra_path_length(nxg, {int(s) for s in sources})
    return lengths.get(v, UNREACHABLE)


class TestDistances:
    def test_identity(self):
        g = km.path_graph(4)
        assert km.vertex_distance(g, 2, 2) == 0

    def test_path_distance(self):
        g = km.path_graph(4)
        assert km.vertex_distance(g, 0, 3) == 3

    def test_unreachable_across_components(self):
        g = km.from_edges(5, [(0, 1), (2, 3)])
        assert km.vertex_distance(g, 0, 3) == UNREACHABLE
        assert km.vertex_distance(g, 0, 4) == UNREACHABLE

    def test_unreachable_compares_greater(self):
        assert UNREACHABLE > 10**9

    def test_cap_early_exit(self):
        g = km.path_graph(10)
        assert km.vertex_distance(g, 0, 9, cap=9) == 9
        assert km.vertex_distance(g, 0, 9, cap=8) == UNREACHABLE
        assert km.vertex_distance(g, 0, 3, cap=3) == 3

    def test_out_of_range_raises(self):
        g = km.path_graph(3)
        with pytest.raises(ValueError):
            km.vertex_distance(g, 0, 3)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle_inequality(self, seed):
        g = km.sample_gnp(GnpParams(12, 0.3, seed))
        rng = np.random.default_rng(seed)
        u, v, w = (int(x) for x in rng.integers(0, 12, size=3))
        duv = km.vertex_distance(g, u, v)
        assert duv == km.vertex_distance(g, v, u)
        duw = km.vertex_distance(g, u, w)
        dwv = km.vertex_distance(g, w, v)
        if duw is not UNREACHABLE and dwv is not UNREACHABLE:
            assert duv <= duw + dwv


class TestEdgeDistance:
    def test_same_edge(self):
        g = km.path_graph(4)
        assert km.edge_distance(g, (0, 1), (0, 1)) == 0

    def test_shared_vertex(self):
        g = km.path_graph(4)
        assert km.edge_distance(g, (0, 1), (1, 2)) == 1

    def test_path_separated(self):
        g = km.path_graph(4)
        assert km.edge_distance(g, (0, 1), (2, 3)) == 2

    def test_non_edge_rejected(self):
        g = km.path_graph(4)
        with pytest.raises(ValueError):
            km.edge_distance(g, (0, 2), (2, 3))

    def test_shared_vertex_iff_distance_one(self):
        # matches the k=1 case reducing to ordinary matchings
        g = km.sample_gnp(GnpParams(10, 0.4, 3))
        edges = list(g.edges())
        for e in edges[:8]:
            for f in edges[:8]:
                d = km.edge_distance(g, e, f)
                share = e != f and bool(set(e) & set(f))
                assert (d == 1) == share


class TestLayers:
    """Distance layers i < k and the far set (value k) as ``distance_to_set``
    gives them."""

    def test_all_vertices_as_sources(self):
        assert distance_to_set(km.path_graph(5), range(5), 3).tolist() == [0] * 5

    def test_path_example(self):
        assert distance_to_set(km.path_graph(5), [0], 3).tolist() == [0, 1, 2, 3, 3]

    def test_edgeless(self):
        g = km.from_edges(4, [])
        assert distance_to_set(g, [0], 2).tolist() == [0, 2, 2, 2]

    def test_empty_sources(self):
        assert distance_to_set(km.path_graph(4), [], 2).tolist() == [2] * 4

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            distance_to_set(km.path_graph(3), [0], 0)

    @given(st.integers(0, 10**6), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, seed, k):
        g = km.sample_gnp(GnpParams(14, 0.25, seed))
        rng = np.random.default_rng(seed)
        sources = rng.choice(14, size=int(rng.integers(1, 5)), replace=False)
        dist = distance_to_set(g, sources, k)
        nxg = nx_graph(g)
        for v in range(14):
            d = nx_set_distance(nxg, sources, v)
            assert dist[v] == min(d, k)


class TestFarSet:
    def test_empty_sources_gives_all(self):
        far = distance_to_set(km.path_graph(4), [], 2) == 2
        assert np.flatnonzero(far).tolist() == [0, 1, 2, 3]

    def test_path_example(self):
        far = distance_to_set(km.path_graph(5), [0, 1], 2) == 2
        assert np.flatnonzero(far).tolist() == [3, 4]

    def test_complete_graph_empty(self):
        assert not (distance_to_set(km.complete_graph(5), [2], 2) == 2).any()


class TestInducedEdge:
    """``_induced_edge_from_mask`` on the mask of a vertex list."""

    def test_empty_set(self):
        g = km.complete_graph(4)
        assert _induced_edge_from_mask(g, np.zeros(4, dtype=bool)) is None

    def test_edgeless_graph(self):
        g = km.from_edges(4, [])
        assert _induced_edge_from_mask(g, np.ones(4, dtype=bool)) is None

    def test_k4_pair(self):
        g = km.complete_graph(4)
        assert _induced_edge_from_mask(g, np.isin(range(4), [0, 1])) == (0, 1)

    def test_non_adjacent_pair(self):
        g = km.path_graph(3)
        assert _induced_edge_from_mask(g, np.isin(range(3), [0, 2])) is None

    def test_lexicographically_least(self):
        g = km.from_edges(5, [(0, 3), (1, 2), (1, 4), (2, 4)])
        assert _induced_edge_from_mask(g, np.isin(range(5), [1, 2, 4])) == (1, 2)

    def test_hit_past_the_first_blocks(self, monkeypatch):
        # the only induced edge (40, 41) comes after 20 masked vertices
        # without one; with blocks of one run entry it is in the 21st block
        monkeypatch.setattr(km.graph, "_BATCH_CAP", 1)
        g = km.from_edges(50, [(2 * i, 2 * i + 1) for i in range(25)] + [(0, 49)])
        mask = np.zeros(50, dtype=bool)
        mask[0::2] = True
        mask[41] = True
        assert _induced_edge_from_mask(g, mask) == (40, 41)

    def test_no_hit_in_any_block(self):
        g = km.from_edges(50, [(2 * i, 2 * i + 1) for i in range(25)])
        mask = np.zeros(50, dtype=bool)
        mask[0::2] = True
        assert _induced_edge_from_mask(g, mask) is None
        assert _induced_edge_from_mask(g, ~mask) is None


def reference_induced_edges(g, mask):
    """Ids of the edges with both endpoints in mask, by a scan of all m
    edges."""
    return np.flatnonzero(mask[g.eu] & mask[g.ev])


def reference_induced_edge(g, mask):
    hits = reference_induced_edges(g, mask)
    return (int(g.eu[hits[0]]), int(g.ev[hits[0]])) if hits.size else None


class TestInducedEdgesAgainstScan:
    """``_induced_edges`` reads the masked vertices' upper runs; it must
    give the ascending ids an all-edge scan gives, so the draws that
    consume them do not change."""

    def check(self, g, mask):
        got = _induced_edges(g, mask)
        want = reference_induced_edges(g, mask)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
        assert _induced_edge_from_mask(g, mask) == reference_induced_edge(g, mask)

    @given(
        st.integers(0, 60),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_gnp(self, n, p, density, seed):
        g = km.sample_gnp(GnpParams(n, p, seed))
        rng = np.random.default_rng(seed)
        self.check(g, rng.random(n) < density)

    @pytest.mark.parametrize(
        "g",
        [km.from_edges(7, []), km.path_graph(9), km.complete_graph(8)],
        ids=["edgeless", "path", "complete"],
    )
    def test_special_graphs(self, g):
        rng = np.random.default_rng(3)
        self.check(g, np.zeros(g.n, dtype=bool))
        self.check(g, np.ones(g.n, dtype=bool))
        for _ in range(30):
            self.check(g, rng.random(g.n) < rng.random())

    def test_peak_is_8_bytes_per_hit(self):
        # the int32 block runs and their concatenation: 4 + 4 bytes per
        # induced edge, plus the vertex mask's row list and a few blocks
        g = km.sample_gnp(GnpParams(10**5, 5e-4, 7))
        mask = np.random.default_rng(1).random(g.n) < 0.6
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            hits = _induced_edges(g, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits.size > 5 * km.graph._BATCH_CAP
        assert peak <= 8 * hits.size + 8 * g.n + 32 * km.graph._BATCH_CAP


@given(
    st.sampled_from([np.int32, np.int64]),
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-(2**31), 2**31 - 1)), max_size=200),
)
@settings(max_examples=200, deadline=None)
def test_distinct_matches_unique(dtype, values):
    a = np.array(values, dtype=dtype)
    got, want = _distinct(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@given(st.integers(0, 10**6), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_blocks_cut_greedily_at_the_cap(seed, cap):
    # consecutive slices covering verts; each holds at most cap run
    # entries, or is one vertex, and stops only where the next vertex
    # would carry it past cap
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    g = km.sample_gnp(GnpParams(n, float(rng.uniform(0.0, 0.5)), seed))
    verts = rng.choice(n, size=int(rng.integers(0, 2 * n)))
    for ptrs in [(g.upper_ptr,), (g.lower_ptr, g.upper_ptr)]:
        sizes = sum(ptr[verts + 1] - ptr[verts] for ptr in ptrs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(km.graph, "_BATCH_CAP", cap)
            slices = list(_blocks(verts, *ptrs))
        assert np.array_equal(np.concatenate([verts[:0], *slices]), verts)
        start = 0
        for part in slices:
            stop = start + part.size
            held = int(sizes[start:stop].sum())
            assert part.size >= 1
            assert held <= cap or part.size == 1
            assert stop == verts.size or held + int(sizes[stop]) > cap
            start = stop


@pytest.mark.parametrize("cap", [1, 3, 64])
class TestBlockedKernels:
    """The BFS levels and the induced-edge gather read their vertices in
    ``_blocks`` of ``_BATCH_CAP`` adjacency entries.  With the block size
    patched down to 1, 3 and 64 entries a level spans many blocks, and the
    answers must not move."""

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_distances_against_networkx(self, cap, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = km.sample_gnp(GnpParams(n, float(rng.uniform(0.0, 0.3)), seed))
        sources = rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)), replace=False)
        k = int(rng.integers(1, 7))
        owner = np.full(n, -1, dtype=np.int32)
        owner[sources] = np.arange(sources.size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(km.graph, "_BATCH_CAP", cap)
            dist = distance_to_set(g, sources, k)
            labelled = _bfs(g, sources, k, owner)
        nxg = nx_graph(g)
        for v in range(n):
            assert dist[v] == min(nx_set_distance(nxg, sources, v), k)
        assert np.array_equal(labelled, dist)
        # a vertex at distance 1..k-2 carries the label of a neighbour one
        # level closer; the last level and beyond stay unlabelled
        for v in np.flatnonzero((dist >= 1) & (dist <= k - 2)).tolist():
            nb = g.neighbors(v)
            assert np.any((dist[nb] == dist[v] - 1) & (owner[nb] == owner[v]))
        assert np.all(owner[dist >= max(k - 1, 1)] == -1)

    @given(
        st.integers(0, 60),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_induced_edges_against_scan(self, cap, n, p, density, seed):
        g = km.sample_gnp(GnpParams(n, p, seed))
        mask = np.random.default_rng(seed).random(n) < density
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(km.graph, "_BATCH_CAP", cap)
            got = _induced_edges(g, mask)
            first = _induced_edge_from_mask(g, mask)
        want = reference_induced_edges(g, mask)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
        assert first == reference_induced_edge(g, mask)


def test_bounded_ball_radius_zero_and_growth():
    g = km.path_graph(6)
    assert bounded_ball(g, (2,), 0) == [2]
    assert bounded_ball(g, (2,), 1) == [1, 2, 3]
    assert bounded_ball(g, (5, 0), 1) == [0, 1, 4, 5]
    assert bounded_ball(g, (3, 3), 1) == [2, 3, 4]
    assert bounded_ball(g, (), 3) == []


@given(st.integers(0, 10**6), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_ball_matches_bounded_ball(seed, radius):
    """``_ball`` and ``bounded_ball`` against the plain Python BFS."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    g = km.sample_gnp(GnpParams(n, float(rng.uniform(0.02, 0.4)), seed))
    size = int(rng.integers(1, 3))
    seeds = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
    expected = python_ball(g, seeds, radius)
    assert set(_ball(g, seeds, radius).tolist()) == set(expected)
    assert bounded_ball(g, seeds, radius) == sorted(expected)


@given(
    st.integers(0, 30),
    st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    st.integers(0, 2**32),
    st.sampled_from([np.int32, np.int64]),
)
@settings(max_examples=100, deadline=None)
def test_upper_hits_matches_has_edge(n, p, seed, dtype):
    """The vectorized bisection of upper rows against ``Graph.has_edge``,
    on every pair (u, v) with u a vertex and -1 <= v <= n, so down to
    n = 0, n = 1 and m = 0: a pair is a hit iff it is an edge listed from
    its smaller end, so never a reversed pair, a loop or a non-vertex."""
    g = km.sample_gnp(GnpParams(n, p, seed))
    u, v = np.meshgrid(np.arange(n), np.arange(-1, n + 1), indexing="ij")
    u, v = u.ravel().astype(dtype), v.ravel().astype(dtype)
    want = [a < b and g.has_edge(a, b) for a, b in zip(u.tolist(), v.tolist())]
    got = _upper_hits(g, u, v)
    assert got.dtype == bool
    assert got.tolist() == want


def test_distance_to_set_matches_bfs():
    g = km.sample_gnp(GnpParams(30, 0.12, 5))
    sources = [3, 17]
    dist = distance_to_set(g, sources, 4)
    nxg = nx_graph(g)
    for v in range(30):
        exact = nx_set_distance(nxg, sources, v)
        assert dist[v] == min(exact, 4)


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_distances_match_networkx(seed):
    # sparse enough that many pairs are disconnected, dense enough for paths
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 16))
    g = km.sample_gnp(GnpParams(n, float(rng.uniform(0.0, 0.35)), seed))
    nxg = nx_graph(g)
    lengths = dict(nx.all_pairs_shortest_path_length(nxg))
    for u in range(n):
        for v in range(n):
            exact = lengths[u].get(v, UNREACHABLE)
            assert km.vertex_distance(g, u, v) == exact
            for cap in (0, 1, 2, 3, n + 5):
                within = exact if exact <= cap else UNREACHABLE
                assert km.vertex_distance(g, u, v, cap=cap) == within
    edges = list(g.edges())
    for e in edges:
        for f in edges:
            if e == f:
                expected = 0
            elif set(e) & set(f):
                expected = 1
            else:
                expected = 1 + min(lengths[x].get(y, UNREACHABLE) for x in e for y in f)
            assert km.edge_distance(g, e, f) == expected


def reference_read_edge_list(source):
    """The line-by-line edge-list reader: one readline, split and int() per
    line, and nothing but whitespace after the m-th edge line."""
    header = source.readline().split()
    if len(header) != 2:
        raise ValueError("edge list header must be 'n m'")
    n, m = _ints(header, 1)
    if n < 0 or m < 0:
        raise ValueError("negative counts in edge list header")
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
    return km.from_edges(n, zip(eu.tolist(), ev.tolist()))


# whitespace, non-decimal and non-ASCII tokens that int() or str.split()
# accept or reject, and edge lines in and out of range or order
TEXT_PIECES = st.one_of(
    st.sampled_from(
        ["", " ", "  ", "\t", "\r", "\u2003", "\x1c", "x", "+1", "-1", "007",
         "1_0", "\u0663", "1.0", "1 2 3", "1234567890", "\n"]
    ),
    st.builds("{} {}".format, st.integers(0, 12), st.integers(0, 12)),
)


@st.composite
def edge_list_texts(draw):
    """``write_edge_list`` output of a small G(n,p), as written or with a
    few pieces replacing, inserted before, or added to either end of lines
    after the header, and sometimes a wrong edge count in the header."""
    n = draw(st.integers(0, 9))
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    g = km.sample_gnp(GnpParams(n, p, draw(st.integers(0, 99))))
    buf = io.StringIO()
    km.write_edge_list(g, buf)
    lines = buf.getvalue().split("\n")
    if draw(st.booleans()):
        lines[0] = f"{g.n} {draw(st.integers(0, g.edge_count + 2))}"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        piece = draw(TEXT_PIECES)
        how = draw(st.sampled_from(["replace", "insert", "prepend", "append"]))
        if how == "replace":
            lines[i] = piece
        elif how == "insert":
            lines.insert(i, piece)
        else:
            lines[i] = piece + lines[i] if how == "prepend" else lines[i] + piece
    return "\n".join(lines)


def read_outcome(reader, text):
    try:
        return reader(io.StringIO(text))
    except ValueError as exc:
        return type(exc), str(exc)


class TestEdgeListIO:
    def test_round_trip(self):
        g = km.sample_gnp(GnpParams(40, 0.15, 11))
        buf = io.StringIO()
        km.write_edge_list(g, buf)
        back = km.read_edge_list(io.StringIO(buf.getvalue()))
        assert back == g

    def test_format_shape(self):
        text = io.StringIO()
        km.write_edge_list(km.path_graph(3), text)
        assert text.getvalue() == "3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize(
        "bad",
        [
            "3 1\n1 1\n",  # self-loop
            "3 1\n0 3\n",  # out of range
            "3 2\n0 1\n0 1\n",  # duplicate
            "3 2\n1 2\n0 1\n",  # out of order
            "3 1\n1 0\n",  # not normalized
            "3\n",  # bad header
            "3 1\n0 1\n0 2\n",  # trailing edge
            "3 1\n0 1\n\n0 2\n",  # trailing edge after a blank line
        ],
    )
    def test_reader_rejects(self, bad):
        with pytest.raises(ValueError):
            km.read_edge_list(io.StringIO(bad))

    @given(edge_list_texts())
    @settings(max_examples=500, deadline=None)
    def test_reader_against_reference(self, text):
        # the same graph, or the same error message
        got = read_outcome(km.read_edge_list, text)
        assert got == read_outcome(reference_read_edge_list, text)

    def test_reader_at_scale(self):
        # the writer's form takes the numpy parse and a space before each
        # line end the line-by-line walk; an error deep in the body names
        # the line the reference names
        g = km.sample_gnp(GnpParams(20_000, 5e-4, 3))
        buf = io.StringIO()
        km.write_edge_list(g, buf)
        text = buf.getvalue()
        assert read_outcome(km.read_edge_list, text) == g
        assert read_outcome(km.read_edge_list, text.replace("\n", " \n")) == g
        lines = text.split("\n")
        lines[60_000] += " 5"
        for bad in (text + "0 1\n", "\n".join(lines)):
            got = read_outcome(km.read_edge_list, bad)
            assert got == read_outcome(reference_read_edge_list, bad)
            assert got[0] is ValueError

    @pytest.mark.parametrize(
        "bad, where", [("3 1\n0 x\n", "'x' at line 2"), ("3 m\n", "'m' at line 1")]
    )
    def test_reader_names_the_line_of_a_non_integer(self, bad, where):
        with pytest.raises(ValueError, match=where):
            km.read_edge_list(io.StringIO(bad))


def test_from_edges_validation():
    with pytest.raises(ValueError):
        km.from_edges(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(ValueError):
        km.from_edges(3, [(0, 3)])
    g = km.from_edges(4, [(2, 0), (3, 1)])
    assert list(g.edges()) == [(0, 2), (1, 3)]

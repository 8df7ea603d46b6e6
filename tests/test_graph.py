import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch as km
from kmatch.graph import UNREACHABLE, GnpParams, bounded_ball, distance_to_set


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

    def test_n_zero_and_one(self):
        assert km.sample_gnp(GnpParams(0, 0.7, 1)).edge_count == 0
        assert km.sample_gnp(GnpParams(1, 0.7, 1)).edge_count == 0

    def test_seed_determinism(self):
        a = km.sample_gnp(GnpParams(500, 0.05, 42))
        b = km.sample_gnp(GnpParams(500, 0.05, 42))
        assert a == b
        assert np.array_equal(a.indices, b.indices)
        c = km.sample_gnp(GnpParams(500, 0.05, 43))
        assert a != c

    def test_edge_count_band_at_reference_point(self):
        # N*p with N = C(10^4, 2) is 49995; the band is 5*sqrt(N*p).
        g = km.sample_gnp(GnpParams(10_000, 0.001, 1))
        assert g.edge_count == 50042  # frozen for this generator
        assert abs(g.edge_count - 49995.0) <= 5 * math.sqrt(49995.0)

    def test_adjacency_is_symmetric_and_sorted(self):
        g = km.sample_gnp(GnpParams(60, 0.2, 7))
        degs = 0
        for u in range(g.n):
            nbrs = g.neighbors(u).tolist()
            assert nbrs == sorted(set(nbrs))
            assert u not in nbrs
            for v in nbrs:
                assert u in g.neighbors(v).tolist()
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
    def test_all_vertices_as_sources(self):
        g = km.path_graph(5)
        layers, far = km.neighborhood_layers(g, range(5), 3)
        assert layers[0].tolist() == [0, 1, 2, 3, 4]
        assert all(l.size == 0 for l in layers[1:])
        assert far.size == 0

    def test_path_example(self):
        g = km.path_graph(5)
        layers, far = km.neighborhood_layers(g, [0], 3)
        assert [l.tolist() for l in layers] == [[0], [1], [2]]
        assert far.tolist() == [3, 4]

    def test_edgeless(self):
        g = km.from_edges(4, [])
        layers, far = km.neighborhood_layers(g, [0], 2)
        assert layers[0].tolist() == [0]
        assert layers[1].size == 0
        assert far.tolist() == [1, 2, 3]

    def test_empty_sources(self):
        g = km.path_graph(4)
        layers, far = km.neighborhood_layers(g, [], 2)
        assert all(l.size == 0 for l in layers)
        assert far.tolist() == [0, 1, 2, 3]

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            km.neighborhood_layers(km.path_graph(3), [0], 1)

    @given(st.integers(0, 10**6), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, seed, k):
        g = km.sample_gnp(GnpParams(14, 0.25, seed))
        rng = np.random.default_rng(seed)
        sources = rng.choice(14, size=int(rng.integers(1, 5)), replace=False)
        layers, far = km.neighborhood_layers(g, sources, k)
        pieces = [l.tolist() for l in layers] + [far.tolist()]
        flat = [v for piece in pieces for v in piece]
        assert sorted(flat) == list(range(14))  # disjoint cover
        for i, layer in enumerate(layers):
            for v in layer.tolist():
                d = min(km.vertex_distance(g, int(s), v) for s in sources)
                assert d == i
        for v in far.tolist():
            d = min(km.vertex_distance(g, int(s), v) for s in sources)
            assert d >= k


class TestFarSet:
    def test_empty_sources_gives_all(self):
        g = km.path_graph(4)
        assert km.far_vertex_set(g, [], 2).tolist() == [0, 1, 2, 3]

    def test_path_example(self):
        g = km.path_graph(5)
        assert km.far_vertex_set(g, [0, 1], 2).tolist() == [3, 4]

    def test_complete_graph_empty(self):
        g = km.complete_graph(5)
        assert km.far_vertex_set(g, [2], 2).size == 0


class TestInducedEdge:
    def test_empty_set(self):
        assert km.induced_edge_exists(km.complete_graph(4), []) is None

    def test_k4_pair(self):
        assert km.induced_edge_exists(km.complete_graph(4), [0, 1]) == (0, 1)

    def test_non_adjacent_pair(self):
        assert km.induced_edge_exists(km.path_graph(3), [0, 2]) is None

    def test_lexicographically_least(self):
        g = km.from_edges(5, [(0, 3), (1, 2), (1, 4), (2, 4)])
        assert km.induced_edge_exists(g, [1, 2, 4]) == (1, 2)


def test_bounded_ball_radius_zero_and_growth():
    g = km.path_graph(6)
    assert sorted(bounded_ball(g, (2,), 0)) == [2]
    assert sorted(bounded_ball(g, (2,), 1)) == [1, 2, 3]
    assert sorted(bounded_ball(g, (0, 5), 1)) == [0, 1, 4, 5]


def test_distance_to_set_matches_bfs():
    g = km.sample_gnp(GnpParams(30, 0.12, 5))
    sources = [3, 17]
    dist = distance_to_set(g, sources, 4)
    for v in range(30):
        exact = min(km.vertex_distance(g, s, v) for s in sources)
        assert dist[v] == min(exact, 4)


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
        ],
    )
    def test_reader_rejects(self, bad):
        with pytest.raises(ValueError):
            km.read_edge_list(io.StringIO(bad))


def test_from_edges_validation():
    with pytest.raises(ValueError):
        km.from_edges(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(ValueError):
        km.from_edges(3, [(0, 3)])
    g = km.from_edges(4, [(2, 0), (3, 1)])
    assert list(g.edges()) == [(0, 2), (1, 3)]

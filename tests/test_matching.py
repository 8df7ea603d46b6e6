import collections
import itertools
import math
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import kmatch as km
from kmatch import matching
from kmatch.analytic import AsymptoticParams, default_pair_count
from kmatch.graph import GnpParams, distance_to_set
from kmatch.matching import (
    _SCAN_CHUNK,
    GeneratorStalled,
    InstanceTooLargeError,
    InvalidMatchingError,
    KMatching,
    _matched_distance,
)

from bfs_reference import edge_list, nx_graph, python_ball


def brute_force_um_k(g, k):
    """Reference solver: try all edge subsets."""
    edges = edge_list(g)
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(edges, r):
            if km.is_k_matching(g, KMatching.of(k, combo)):
                best = max(best, r)
                break
    return best


def reference_generator_algorithm(g, k, seed, s):
    """Reference pair-and-repair loop: rebuilds the far set F with a full
    ``distance_to_set`` on every repair and checks pairs by a Python ball
    walk, made once for each pair's endpoints.  It consumes the RNG exactly
    as ``generator_algorithm`` must: one ascending pass over the pairs
    invalid at the start, with the rejection budget read from
    ``matching._REJECTION_TRIES`` at call time, so a patched budget reaches
    both.  After each repair it asserts that the repaired pair is valid and
    that no valid pair has turned invalid, so the pass makes at most s
    repairs."""
    if 2 * s > g.n:
        raise ValueError(f"need 2s={2 * s} <= n={g.n} distinct vertices")
    rng = np.random.default_rng(np.random.PCG64(seed))
    draw = rng.choice(g.n, size=2 * s, replace=False)
    pu = np.minimum(draw[0::2], draw[1::2]).astype(np.int64)
    pv = np.maximum(draw[0::2], draw[1::2]).astype(np.int64)
    # the plain mask is enough: selected vertices stay pairwise distinct
    # (the draw is without replacement, insertions come from the far set)
    selected = np.zeros(g.n, dtype=bool)
    selected[draw] = True
    eu = g.eu  # derived on each access, so read once
    edges = set(edge_list(g))

    balls = {}  # a pair's endpoints -> their Python ball, walked once

    def pair_valid(i: int) -> bool:
        u, v = int(pu[i]), int(pv[i])
        if (u, v) not in edges:
            return False
        if (u, v) not in balls:
            balls[u, v] = python_ball(g, (u, v), k - 1)
        for w in balls[u, v]:
            if selected[w] and w != u and w != v:
                return False
        return True

    valid = {i for i in range(s) if pair_valid(i)}
    invalid = [i for i in range(s) if i not in valid]
    iterations = 0
    for i in invalid:
        if pair_valid(i):
            continue  # the conflicting pair was repaired away
        iterations += 1
        selected[pu[i]] = False
        selected[pv[i]] = False
        far = distance_to_set(g, np.flatnonzero(selected), k) == k
        picked = None
        if g.edge_count:
            for _ in range(matching._REJECTION_TRIES):
                j = int(rng.integers(g.edge_count))
                if far[eu[j]] and far[g.ev[j]]:
                    picked = j
                    break
            if picked is None:
                hits = np.flatnonzero(far[eu] & far[g.ev])
                if hits.size:
                    picked = int(hits[rng.integers(hits.size)])
        if picked is None:
            raise GeneratorStalled(
                "no edge induced by the distance->=k vertex set",
                iterations,
                int(np.count_nonzero(far)),
            )
        pu[i] = int(eu[picked])
        pv[i] = int(g.ev[picked])
        selected[pu[i]] = True
        selected[pv[i]] = True
        now = {j for j in range(s) if pair_valid(j)}
        assert i in now and valid <= now, (i, valid - now)
        valid = now
    assert iterations <= len(invalid) <= s
    return KMatching(k, pu, pv)


def walk_greedy(g, k, order, blocked, chosen):
    """Walk the edge ids of ``order`` one at a time, keeping each edge with
    no blocked endpoint and blocking its Python BFS ball (``blocked`` is a
    list of bools)."""
    eu, ev = g.eu.tolist(), g.ev.tolist()
    for j in order:
        u, v = eu[j], ev[j]
        if not (blocked[u] or blocked[v]):
            chosen.append((u, v))
            for w in python_ball(g, (u, v), k - 1):
                blocked[w] = True


def reference_greedy_k_matching(g, k, seed):
    """Reference greedy scan: chunks of min(_SCAN_CHUNK, m) edge ids drawn
    with replacement while more than half of a chunk's draws have no
    blocked endpoint when the chunk starts, then one shuffle of the edges
    with no blocked endpoint, each walked one edge at a time with no
    compaction.  It consumes the RNG exactly as ``greedy_k_matching``
    must."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = g.edge_count
    if m == 0:
        return KMatching(k, [], [])
    rng = np.random.default_rng(np.random.PCG64(seed))
    chunk = min(matching._SCAN_CHUNK, m)
    blocked = [False] * g.n
    chosen = []
    edges = edge_list(g)
    while True:
        draws = rng.integers(m, size=chunk).tolist()
        live = sum(not (blocked[edges[j][0]] or blocked[edges[j][1]]) for j in draws)
        walk_greedy(g, k, draws, blocked, chosen)
        if 2 * live <= chunk:
            break
    rest = [j for j, (u, v) in enumerate(edges) if not (blocked[u] or blocked[v])]
    rest = np.array(rest, dtype=np.int64)
    rng.shuffle(rest)
    walk_greedy(g, k, rest.tolist(), blocked, chosen)
    return KMatching.of(k, chosen)


def reference_permutation_greedy(g, k, seed):
    """The scan ``greedy_k_matching`` made before it drew with replacement:
    all m edges in the order ``rng.permutation(m)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(np.random.PCG64(seed))
    blocked = [False] * g.n
    chosen = []
    if g.edge_count:
        walk_greedy(g, k, rng.permutation(g.edge_count).tolist(), blocked, chosen)
    return KMatching.of(k, chosen)


def greedy_law(g, k):
    """Exact output distribution of random-order greedy on g, from the
    walk over every one of the m! edge orders."""
    counts = collections.Counter()
    for order in itertools.permutations(range(g.edge_count)):
        chosen = []
        walk_greedy(g, k, order, [False] * g.n, chosen)
        counts[tuple(sorted(chosen))] += 1
    total = math.factorial(g.edge_count)
    return {edges: Fraction(c, total) for edges, c in counts.items()}


def reference_is_k_matching(g, m):
    """Reference validator: one Python ball of radius k-1 per member."""
    members = m.sorted_edges()
    if not members:
        return True
    edges = set(edge_list(g))
    verts = []
    for u, v in members:
        if (u, v) not in edges:
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
        for w in python_ball(g, (u, v), radius):
            if mask[w] and w != u and w != v:
                return False
    return True


def networkx_is_maximal(g, m):
    """Maximality from networkx distances: every edge has an endpoint
    within distance k-1 of a matched vertex."""
    nxg = nx_graph(g)
    near = set()
    for w in set(np.concatenate([m.u, m.v]).tolist()):
        near.update(nx.single_source_shortest_path_length(nxg, w, cutoff=m.k - 1))
    return all(u in near or v in near for u, v in edge_list(g))


def generator_outcome(fn, g, cfg):
    """The matching ``fn(g, k, seed, s)`` builds for ``cfg = (k, seed, s)``,
    or the message, iteration count and |F| of the GeneratorStalled it
    raises."""
    try:
        return fn(g, *cfg)
    except GeneratorStalled as exc:
        return (str(exc), exc.iterations, exc.far_size)


class TestIsKMatching:
    def test_empty_and_singleton(self):
        g = km.path_graph(4)
        assert km.is_k_matching(g, KMatching(5, [], []))
        assert km.is_k_matching(g, KMatching.of(7, [(1, 2)]))

    def test_path_k1_vs_k2(self):
        g = km.path_graph(4)
        m = KMatching.of(1, [(0, 1), (2, 3)])
        assert km.is_k_matching(g, m)
        assert not km.is_k_matching(g, KMatching.of(2, [(0, 1), (2, 3)]))

    def test_cycle_separation(self):
        g = km.cycle_graph(6)
        assert km.is_k_matching(g, KMatching.of(2, [(0, 1), (3, 4)]))
        assert not km.is_k_matching(g, KMatching.of(3, [(0, 1), (3, 4)]))

    def test_shared_vertex_fails_any_k(self):
        g = km.path_graph(4)
        assert not km.is_k_matching(g, KMatching.of(1, [(0, 1), (1, 2)]))

    def test_malformed_returns_false(self):
        g = km.path_graph(4)
        assert not km.is_k_matching(g, KMatching.of(2, [(0, 2)]))  # non-edge
        assert not km.is_k_matching(g, KMatching.of(2, [(0, 9)]))  # out of range
        assert not km.is_k_matching(g, KMatching(2, [-1], [0]))  # negative id
        for k in (1, 2):
            assert not km.is_k_matching(g, KMatching(k, [1], [0]))  # reversed
            assert not km.is_k_matching(g, KMatching(k, [2], [2]))  # loop
            assert not km.is_k_matching(g, KMatching(k, [0, 0], [1, 1]))  # repeat

    def test_id_beyond_int32_rejected(self):
        # a matching stores int32 ids, so such a member cannot be built
        # for the validator to reject
        with pytest.raises(ValueError, match="int32"):
            KMatching.of(2, [(0, 2**70)])
        with pytest.raises(ValueError, match="int32"):
            KMatching(2, np.zeros(1, dtype=np.int64), np.full(1, 2**31))

    def test_non_integer_ids_rejected(self):
        # float ids are not truncated: (1.5, 2.7) is not the member (1, 2)
        with pytest.raises(ValueError, match="must be integers"):
            KMatching(2, [1.5], [2.7])
        with pytest.raises(ValueError, match="must be integers"):
            KMatching(2, np.array([0.0]), np.array([1.0]))
        with pytest.raises(TypeError):
            KMatching.of(2, [(0, 1.5)])
        assert KMatching(2, [], []).size == 0  # empty lists read as float64

    def test_k1_validation_reads_only_the_members_rows(self):
        # a maximal k=1 matching covers most vertices: gathering all their
        # neighbours took 46 bytes per edge here, the members' own upper
        # rows (fewer than m entries) 15; a bisection of each member's row
        # needs O(|m|) memory, and the peak is the BFS's O(n) arrays (3.2
        # bytes per edge; 4.4 while the members were copied out of a
        # frozenset into an int64 array)
        g = km.sample_gnp(GnpParams(10**5, 2e-4, 5))
        m = km.greedy_k_matching(g, 1, 1)
        tracemalloc.start()
        try:
            _, valid = _matched_distance(g, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert valid
        assert peak <= 4 * g.edge_count, peak / g.edge_count

    def test_k3_validation_holds_one_block_above_the_graph(self):
        # the BFS and the boundary scan gather _BATCH_CAP adjacency entries
        # at a time, so the pass holds O(n) arrays plus one block: 2.6 MB
        # here, where gathering each level whole peaked at 11.4 MB
        g = km.sample_gnp(GnpParams(10**5, 5e-4, 5))
        m = km.greedy_k_matching(g, 3, 1)
        tracemalloc.start()
        try:
            _, valid = _matched_distance(g, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert valid
        assert peak <= 12 * g.n + 48 * km.graph._BATCH_CAP, peak

    def test_matches_pairwise_edge_distance(self):
        # definition check: pairwise edge distance >= k+1, i.e. min
        # endpoint distance >= k, with distances from networkx
        g = km.sample_gnp(GnpParams(12, 0.25, 17))
        nxg = nx_graph(g)
        lengths = dict(nx.all_pairs_shortest_path_length(nxg))
        edges = edge_list(g)
        for k in (1, 2, 3):
            for e, f in itertools.combinations(edges, 2):
                m = KMatching.of(k, [e, f])
                gap = min(lengths[x].get(y, math.inf) for x in e for y in f)
                expected = gap >= k
                assert km.is_k_matching(g, m) == expected


class TestMaximality:
    def test_empty_on_nonempty_graph(self):
        g = km.path_graph(3)
        assert not km.is_maximal_k_matching(g, KMatching(2, [], []))

    def test_empty_on_edgeless_graph(self):
        g = km.from_edges(3, [])
        assert km.is_maximal_k_matching(g, KMatching(2, [], []))

    def test_k4_single_edge(self):
        assert km.is_maximal_k_matching(
            km.complete_graph(4), KMatching.of(2, [(0, 1)])
        )

    def test_p7_addable_edge(self):
        g = km.path_graph(7)
        assert not km.is_maximal_k_matching(g, KMatching.of(2, [(0, 1)]))
        assert km.is_maximal_k_matching(g, KMatching.of(2, [(0, 1), (5, 6)]))

    def test_precondition_error(self):
        g = km.path_graph(4)
        with pytest.raises(InvalidMatchingError):
            km.is_maximal_k_matching(g, KMatching.of(2, [(0, 1), (2, 3)]))


class TestGamma:
    def test_k4(self):
        assert km.gamma_independence_check(
            km.complete_graph(4), KMatching.of(2, [(0, 1)])
        )

    def test_p7(self):
        assert km.gamma_independence_check(
            km.path_graph(7), KMatching.of(2, [(0, 1), (5, 6)])
        )

    def test_precondition(self):
        with pytest.raises(InvalidMatchingError):
            km.gamma_independence_check(km.path_graph(7), KMatching.of(2, [(0, 1)]))


class TestGreedy:
    def test_edgeless(self):
        assert km.greedy_k_matching(km.from_edges(5, []), 2, 1).size == 0

    def test_k4_size_one(self):
        for seed in range(10):
            assert km.greedy_k_matching(km.complete_graph(4), 2, seed).size == 1

    def test_star_k1(self):
        star = km.from_edges(6, [(0, i) for i in range(1, 6)])
        assert km.greedy_k_matching(star, 1, 3).size == 1

    def test_determinism(self):
        g = km.sample_gnp(GnpParams(300, 0.03, 5))
        a = km.greedy_k_matching(g, 2, 11)
        b = km.greedy_k_matching(g, 2, 11)
        assert a == b

    def test_peak_memory_below_an_edge_permutation(self):
        # an int64 order of all m edge ids alone takes 8 bytes per edge
        g = km.sample_gnp(GnpParams(10**5, 2e-4, 5))
        for k in (2, 3):
            tracemalloc.start()
            try:
                km.greedy_k_matching(g, k, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * g.edge_count, (k, peak / g.edge_count)

    def test_output_holds_two_int32_per_member(self):
        # the matching keeps only its two int32 endpoint arrays: 8 bytes a
        # member, where a frozenset of tuples held about 164
        g = km.sample_gnp(GnpParams(10**5, 2e-4, 5))
        tracemalloc.start()
        try:
            m = km.greedy_k_matching(g, 1, 1)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert m.u.dtype == m.v.dtype == np.int32
        assert not (m.u.flags.writeable or m.v.flags.writeable)
        assert retained <= 8 * m.size + 8192, retained / m.size

    @given(st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_output_always_valid_and_maximal(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        g = km.sample_gnp(GnpParams(n, float(rng.uniform(0.05, 0.5)), seed))
        m = km.greedy_k_matching(g, k, seed)
        assert km.is_k_matching(g, m)
        assert km.is_maximal_k_matching(g, m)
        if k >= 2:
            assert km.gamma_independence_check(g, m)


def test_library_paths_never_derive_eu(monkeypatch):
    """Sampling, greedy, the maximality check, the generator with and
    without its rejection draws, the exact solver, and whole experiment
    trials never read ``Graph.eu``, which builds an m-entry array: with it
    made to raise, each returns what it returns unpatched."""
    configs = [
        km.experiments.TrialConfig(n=3000, d=8, k=2, trials=1, base_seed=3, algorithm=a)
        for a in ("greedy", "generator")
    ]

    def run():
        g = km.sample_gnp(GnpParams(3000, 8 / 2999, 5))
        out = [g.upper_ptr, g.low_ptr, g.mid_ptr, g.lower, g.ev]
        for k in (1, 2, 3):
            m = km.greedy_k_matching(g, k, 7)
            out += [m.u, m.v, km.is_maximal_k_matching(g, m)]
        for tries in (matching._REJECTION_TRIES, 0):  # 0: the fallback scan only
            with monkeypatch.context() as mp:
                mp.setattr(matching, "_REJECTION_TRIES", tries)
                m = km.generator_algorithm(g, 2, 7, 20)
            out += [m.u, m.v]
        small = km.sample_gnp(GnpParams(12, 0.3, 5))
        for k in (1, 2, 3):
            size, m = km.exact_um_k(small, k)
            out += [size, m.u, m.v]
        return out + [km.run_trials(cfg) for cfg in configs]

    want = run()

    def no_eu(g):
        raise AssertionError("a library path derived Graph.eu")

    monkeypatch.setattr(km.Graph, "eu", property(no_eu))
    got = run()
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestExact:
    def test_edgeless(self):
        size, wit = km.exact_um_k(km.from_edges(4, []), 2)
        assert size == 0 and wit.size == 0

    def test_p7_k2(self):
        g = km.path_graph(7)
        size, wit = km.exact_um_k(g, 2)
        assert size == 2 == brute_force_um_k(g, 2)
        assert km.is_k_matching(g, wit)

    def test_c6_k2(self):
        g = km.cycle_graph(6)
        size, _ = km.exact_um_k(g, 2)
        assert size == 2 == brute_force_um_k(g, 2)

    def test_witness_size_matches(self):
        g = km.sample_gnp(GnpParams(10, 0.3, 2))
        size, wit = km.exact_um_k(g, 2)
        assert wit.size == size
        assert km.is_k_matching(g, wit)

    def test_cap_guard(self):
        g = km.complete_graph(10)  # 45 edges
        with pytest.raises(InstanceTooLargeError):
            km.exact_um_k(g, 2)
        size, _ = km.exact_um_k(g, 2, edge_cap=45)
        assert size == 1

    def test_against_brute_force(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            g = km.sample_gnp(GnpParams(n, 0.35, seed))
            if g.edge_count > 12:
                continue
            for k in (1, 2, 3):
                assert km.exact_um_k(g, k)[0] == brute_force_um_k(g, k), (seed, k)

    def test_sparse_graph_against_brute_force(self):
        """Up to 36 edges over 10^5 vertices, most of them isolated, so most
        upper rows are empty: a path of three edges, whose k-matching number
        is 2 at k = 1 and 1 beyond, and disjoint edges elsewhere."""
        for seed in range(6):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(3, 37))
            ends = rng.choice(10**5, size=2 * m - 2, replace=False).tolist()
            path = list(zip(ends[:3], ends[1:4]))
            g = km.from_edges(10**5, path + list(zip(ends[4::2], ends[5::2])))
            assert g.edge_count == m
            for k in (1, 2, 3):
                size, wit = km.exact_um_k(g, k)
                assert size == brute_force_um_k(g, k) == m - 1 - (k > 1), (seed, k)
                assert wit.size == size and km.is_k_matching(g, wit)

    def test_k1_equals_classical_maximum_matching(self):
        for seed in range(20):
            g = km.sample_gnp(GnpParams(9, 0.3, seed + 100))
            if g.edge_count > 14:
                continue
            nxg = nx_graph(g)
            expected = len(nx.max_weight_matching(nxg, maxcardinality=True))
            assert km.exact_um_k(g, 1)[0] == expected

    def test_monotone_in_k(self):
        for seed in range(15):
            g = km.sample_gnp(GnpParams(9, 0.3, seed))
            if g.edge_count > 14:
                continue
            sizes = [km.exact_um_k(g, k)[0] for k in (1, 2, 3, 4)]
            assert sizes == sorted(sizes, reverse=True)

    def test_dominates_greedy_and_generator(self):
        for seed in range(10):
            g = km.sample_gnp(GnpParams(12, 0.25, seed))
            if g.edge_count > 14:
                continue
            for k in (1, 2):
                exact = km.exact_um_k(g, k)[0]
                assert km.greedy_k_matching(g, k, seed).size <= exact


class TestGenerator:
    def test_complete_graph_single_pair(self):
        for n in (4, 6, 9):
            m = km.generator_algorithm(km.complete_graph(n), 2, 5, 1)
            assert m.size == 1
            assert km.is_k_matching(km.complete_graph(n), m)

    def test_edgeless_stalls(self):
        with pytest.raises(GeneratorStalled):
            km.generator_algorithm(km.from_edges(8, []), 2, 5, 1)

    def test_output_size_exact_and_valid(self):
        g = km.sample_gnp(GnpParams(3000, 10.0 / 3000, 77))
        for seed in range(5):
            m = km.generator_algorithm(g, 2, seed, 40)
            assert m.size == 40
            assert km.is_k_matching(g, m)

    def test_k3_run(self):
        g = km.sample_gnp(GnpParams(5000, 4.0 / 5000, 13))
        m = km.generator_algorithm(g, 3, 4, 12)
        assert m.size == 12
        assert km.is_k_matching(g, m)

    def test_determinism(self):
        g = km.sample_gnp(GnpParams(2000, 8.0 / 2000, 21))
        a = km.generator_algorithm(g, 2, 9, 25)
        b = km.generator_algorithm(g, 2, 9, 25)
        assert a == b

    def test_default_pair_count_matches_formula(self):
        g = km.sample_gnp(GnpParams(100_000, 20.0 / 100_000, 3))
        # empirical mean degree is close to 20 so the floor lands at the
        # formula value for nominal d=20 (775) plus or minus a few
        params = AsymptoticParams.from_nd(g.n, g.mean_degree(), 2)
        assert abs(default_pair_count(params) - 775) <= 5
        assert default_pair_count(AsymptoticParams.from_nd(g.n, 20.0, 2)) == 775

    def test_default_pair_count_clamps_to_one(self):
        # the formula gives -14.6 here; the generator still runs with s = 1
        # (theorem51 and layers raise RegimeError instead)
        params = AsymptoticParams.from_nd(4000, 8.0, 2)
        assert km.analytic.generator_pair_target(params) < -14
        assert default_pair_count(params) == 1

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ValueError):
            km.generator_algorithm(km.complete_graph(4), 2, 0, 3)

    def test_k_and_s_checked_first(self):
        g = km.complete_graph(4)
        with pytest.raises(ValueError, match=r"^generator needs k >= 2$"):
            km.generator_algorithm(g, 1, 0, 1)
        with pytest.raises(ValueError, match=r"^s must be >= 1, got 0$"):
            km.generator_algorithm(g, 2, 0, 0)

    @pytest.mark.parametrize("k, s", [(2, 775), (3, 149), (4, 20)])
    def test_peak_memory_one_block_above_the_counter_and_balls(self, monkeypatch, k, s):
        # above the graph a call holds the int32 counter, the kept balls (4
        # bytes an entry, twice while their blocks are joined) and one block
        # of the start's keys: 1.0, 1.5-1.65 and 3.3-3.4 MB here (the k=4
        # runs make fallback scans).  One unblocked sort of the keys, or an
        # int64 np.bincount counter, peaked at 2.9 MB at k=2 and 5.0 at k=3
        g = km.sample_gnp(GnpParams(10**5, 20 / 10**5, 5))
        entries = []
        kept_balls = matching._kept_balls

        def counted(*args):
            out = kept_balls(*args)
            entries.append(out[0].size)
            return out

        monkeypatch.setattr(matching, "_kept_balls", counted)
        tracemalloc.start()
        try:
            km.generator_algorithm(g, k, 1, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * g.n + 8 * entries[0] + 8 * km.graph._BATCH_CAP, peak


class TestGreedyAgainstReference:
    """``greedy_k_matching`` prefilters and compacts in chunks and gathers
    balls from the CSR arrays; it must keep exactly the edges the plain
    one-edge-at-a-time scan with Python balls keeps."""

    @pytest.mark.parametrize(
        "n, d, ks",
        # 2000 at d=6 has fewer edges than a chunk, so a chunk is m draws;
        # 60000 at d=12 has over 5 chunks of edges and 10^5 at d=20 and k=1
        # leaves over a chunk of edges to shuffle
        [
            (2000, 6.0, (1, 2, 3, 4)),
            (60000, 12.0, (1, 2, 3, 4)),
            (100_000, 20.0, (1,)),
        ],
    )
    def test_seed_grid(self, n, d, ks):
        g = km.sample_gnp(GnpParams(n, d / n, 7))
        if n == 60000:
            assert g.edge_count >= 5 * _SCAN_CHUNK
        for k in ks:
            for seed in range(3):
                got = km.greedy_k_matching(g, k, seed)
                assert got == reference_greedy_k_matching(g, k, seed), (k, seed)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_chunks(self, monkeypatch, k):
        # with 64-edge chunks this graph takes 2 to 9 chunks of draws before
        # the switch, and its shuffled rest is compacted 3 to 14 times
        monkeypatch.setattr(matching, "_SCAN_CHUNK", 64)
        g = km.sample_gnp(GnpParams(3000, 4.0 / 3000, 7))
        for seed in range(3):
            got = km.greedy_k_matching(g, k, seed)
            assert got == reference_greedy_k_matching(g, k, seed), seed

    @pytest.mark.parametrize(
        "g",
        [km.path_graph(200), km.from_edges(5, []), km.complete_graph(12)],
        ids=["path", "edgeless", "complete"],
    )
    def test_special_graphs(self, g):
        for k in (1, 2, 3, 4):
            for seed in range(4):
                got = km.greedy_k_matching(g, k, seed)
                assert got == reference_greedy_k_matching(g, k, seed), (k, seed)

    @given(
        st.integers(2, 60),
        st.floats(0.02, 0.6),
        st.integers(1, 4),
        st.integers(0, 2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_small_gnp(self, n, p, k, seed):
        g = km.sample_gnp(GnpParams(n, p, seed))
        got = km.greedy_k_matching(g, k, seed)
        assert got == reference_greedy_k_matching(g, k, seed)


class TestGreedyLaw:
    """Over fixed seeds, greedy must follow the exact output law of
    random-order greedy, enumerated over all m! edge orders: no output
    outside its support, and a chi-square statistic below the 0.999
    quantile.  The permutation scan passes the same test."""

    TRIALS = 4000

    @pytest.mark.parametrize(
        "greedy, chunk",
        [
            (km.greedy_k_matching, _SCAN_CHUNK),
            (km.greedy_k_matching, 1),
            (reference_permutation_greedy, _SCAN_CHUNK),
        ],
        ids=["library", "library-chunk1", "permutation"],
    )
    @pytest.mark.parametrize(
        "g, k",
        [
            (km.path_graph(6), 1),
            (km.path_graph(7), 2),
            (km.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)]), 1),
        ],
        ids=["path6-k1", "path7-k2", "c4-pendant-k1"],
    )
    def test_chi_square(self, monkeypatch, g, k, greedy, chunk):
        # whole-graph chunks rarely leave two edges to shuffle; one-edge
        # chunks switch to the shuffle at the first blocked draw
        monkeypatch.setattr(matching, "_SCAN_CHUNK", chunk)
        law = greedy_law(g, k)
        counts = collections.Counter(
            tuple(greedy(g, k, seed).sorted_edges()) for seed in range(self.TRIALS)
        )
        assert set(counts) <= set(law)
        expected = {e: self.TRIALS * float(q) for e, q in law.items()}
        stat = sum((counts[e] - x) ** 2 / x for e, x in expected.items())
        assert stat < stats.chi2.ppf(0.999, len(law) - 1), stat

    @pytest.mark.slow
    @pytest.mark.parametrize("c", [1.0, 3.0, 8.0])
    def test_k1_size_law_at_scale(self, c):
        # random greedy matching on G(n, c/n) has size/n -> c / (2(c+1))
        # (Dyer, Frieze and Pittel, 1993); across seeds the sd is at most
        # 0.00026 at n = 2*10^5, while a lexicographic scan is off by 0.005
        # or more.  At k=1 most edges are still live at the switch to the
        # shuffle, so this runs the induced-edge gather on a dense mask.
        n = 200_000
        limit = c / (2 * (c + 1))
        for seed in range(5):
            g = km.sample_gnp(GnpParams(n, c / n, 500 + seed))
            size = km.greedy_k_matching(g, 1, seed).size
            assert abs(size / n - limit) <= 0.003, (seed, size / n, limit)


@st.composite
def graph_and_members(draw):
    """A small G(n,p), a k, and a member set mixing graph edges, non-edges,
    shared endpoints, out-of-range and unnormalized pairs, and edge pairs
    whose endpoint distance is exactly k-1 or exactly k."""
    n = draw(st.integers(2, 25))
    p = draw(st.floats(0.05, 0.6))
    g = km.sample_gnp(GnpParams(n, p, draw(st.integers(0, 2**32))))
    k = draw(st.integers(1, 4))
    edges = edge_list(g)
    vertex = st.integers(0, n - 1)
    member = st.one_of(
        st.tuples(vertex, vertex),  # non-edges, unnormalized, loops
        st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2)),
        *([st.sampled_from(edges)] * 3 if edges else []),  # mostly edges
    )
    members = draw(st.lists(member, max_size=6))  # repeats included
    if edges and draw(st.booleans()):
        nxg = nx.Graph(edges)
        e = draw(st.sampled_from(edges))
        dist = {}
        for x in e:
            for w, l in nx.single_source_shortest_path_length(nxg, x).items():
                dist[w] = min(l, dist.get(w, l))
        target = draw(st.sampled_from([k - 1, k]))
        at = [f for f in edges if min(dist.get(f[0], n), dist.get(f[1], n)) == target]
        if at:
            members += [e, draw(st.sampled_from(at))]
    return g, KMatching(k, [u for u, _ in members], [v for _, v in members])


class TestValidatorsAgainstReference:
    """``is_k_matching`` runs one owner-labelled BFS and the boundary-edge
    test; it must agree with the per-member Python balls.  Maximality is
    checked against networkx distances."""

    @given(graph_and_members())
    @settings(max_examples=400, deadline=None)
    def test_is_k_matching(self, case):
        g, m = case
        expected = reference_is_k_matching(g, m)
        assert km.is_k_matching(g, m) == expected
        verts = np.concatenate([m.u, m.v])
        if not all(0 <= v < g.n for v in verts):
            with pytest.raises(InvalidMatchingError):
                _matched_distance(g, m)
            return
        # the pass's distances come with either verdict
        dist, valid = _matched_distance(g, m)
        assert valid == expected
        assert np.array_equal(dist, distance_to_set(g, verts, max(m.k, 1)))

    @given(graph_and_members())
    @settings(max_examples=200, deadline=None)
    def test_maximality(self, case):
        g, m = case
        if not reference_is_k_matching(g, m):
            with pytest.raises(InvalidMatchingError):
                km.is_maximal_k_matching(g, m)
            return
        maximal = networkx_is_maximal(g, m)
        assert km.is_maximal_k_matching(g, m) == maximal
        if maximal:
            assert km.gamma_independence_check(g, m)
        else:
            with pytest.raises(InvalidMatchingError):
                km.gamma_independence_check(g, m)

    @pytest.mark.parametrize("cap", [1, 3, 64])
    @given(case=graph_and_members())
    @settings(max_examples=150, deadline=None)
    def test_is_k_matching_in_small_blocks(self, cap, case):
        # the BFS and the boundary scan read their vertices in blocks of
        # _BATCH_CAP adjacency entries; patched down, every level and the
        # scan span many blocks, and an owner label comes from the first
        # block that reaches its vertex
        g, m = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(km.graph, "_BATCH_CAP", cap)
            assert km.is_k_matching(g, m) == reference_is_k_matching(g, m)

    def test_endpoint_distance_k_minus_one_and_k(self):
        # on a path, (0,1) and (j,j+1) have endpoint distance j-1
        g = km.path_graph(12)
        for k in (1, 2, 3, 4):
            at_k = KMatching.of(k, [(0, 1), (k + 1, k + 2)])
            at_k_minus_one = KMatching.of(k, [(0, 1), (k, k + 1)])
            assert km.is_k_matching(g, at_k) and reference_is_k_matching(g, at_k)
            assert not km.is_k_matching(g, at_k_minus_one)
            assert not reference_is_k_matching(g, at_k_minus_one)

    def test_greedy_output_on_larger_graph(self):
        g = km.sample_gnp(GnpParams(3000, 8.0 / 3000, 5))
        for k in (1, 2, 3):
            m = km.greedy_k_matching(g, k, 3)
            assert km.is_k_matching(g, m) and reference_is_k_matching(g, m)
            assert km.is_maximal_k_matching(g, m) == networkx_is_maximal(g, m) is True
            smaller = KMatching(k, m.u[1:], m.v[1:])
            expected = networkx_is_maximal(g, smaller)
            assert km.is_maximal_k_matching(g, smaller) == expected


# (n, d, k, s) of the generator's differential grid.  s=None takes
# default_pair_count at the graph's mean degree: the formula gives -10.96 at
# (3000, 8.0, 2), so that case runs the clamp to s = 1, and 19.05 at
# (3000, 16.0, 2), so s = 19 there (4.19, so s = 4, at (4000, 5.0, 3)); the
# larger s need fallback scans near the end, and the largest of each k stall
# for every seed
GENERATOR_GRID = [
    (3000, 8.0, 2, None),
    (3000, 16.0, 2, None),
    (3000, 8.0, 2, 340),
    (3000, 8.0, 2, 380),
    (4000, 5.0, 3, None),
    (4000, 5.0, 3, 200),
    (4000, 5.0, 3, 240),
    (4000, 3.0, 4, 200),
    (4000, 3.0, 4, 260),
]


class TestGeneratorAgainstReference:
    """``generator_algorithm`` keeps a coverage counter where the reference
    rebuilds F on every repair; both must return the same matching, or
    stall with the same message, iteration count and |F|."""

    @pytest.mark.parametrize("n, d, k, s", GENERATOR_GRID)
    def test_seed_grid(self, n, d, k, s):
        g = km.sample_gnp(GnpParams(n, d / n, 1000 + k))
        if s is None:
            s = default_pair_count(AsymptoticParams.from_nd(n, g.mean_degree(), k))
        for seed in range(5):
            cfg = (k, seed, s)
            assert generator_outcome(km.generator_algorithm, g, cfg) == (
                generator_outcome(reference_generator_algorithm, g, cfg)
            ), seed

    @pytest.mark.parametrize("n, d, k, s", GENERATOR_GRID)
    def test_seed_grid_fallback_only(self, monkeypatch, n, d, k, s):
        # no rejection draws: every repair takes its edge from the exact
        # scan of the edges induced by F
        monkeypatch.setattr(matching, "_REJECTION_TRIES", 0)
        self.test_seed_grid(n, d, k, s)

    @pytest.mark.parametrize(
        "g, cfg",
        [
            (km.path_graph(64), (2, 0, 16)),
            (km.path_graph(64), (3, 1, 4)),
            (km.from_edges(8, []), (2, 5, 1)),
            (km.from_edges(8, []), (3, 5, 4)),
            (km.complete_graph(9), (2, 5, 1)),
            (km.complete_graph(9), (2, 5, 3)),
        ],
    )
    def test_special_graphs(self, g, cfg):
        assert generator_outcome(km.generator_algorithm, g, cfg) == (
            generator_outcome(reference_generator_algorithm, g, cfg)
        )

    @given(
        st.integers(4, 40),
        st.floats(0.02, 0.6),
        st.integers(2, 4),
        st.integers(0, 2**32),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_small_gnp(self, n, p, k, seed, data):
        g = km.sample_gnp(GnpParams(n, p, seed))
        s = data.draw(st.integers(1, n // 2))
        cfg = (k, seed, s)
        assert generator_outcome(km.generator_algorithm, g, cfg) == (
            generator_outcome(reference_generator_algorithm, g, cfg)
        )


@given(
    st.sampled_from(["gnp", "path", "edgeless", "star"]),
    st.integers(2, 40),
    st.integers(2, 4),
    st.sampled_from([1, 64, 2**16]),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kept_balls_count_the_selected_vertices(kind, n, k, cap, data):
    """The generator's start against the plain Python BFS: each kept ball
    is its source's radius-(k-1) ball, and the counter holds at every
    vertex the number of sources within distance k-1, with the key blocks
    cut down to single sources (cap 1) or a few.  A star's leaves hold
    balls far above the sizes the mean degree predicts, so the buffer the
    balls are written into must grow."""
    if kind == "gnp":
        p, seed = data.draw(st.floats(0.02, 0.6)), data.draw(st.integers(0, 2**32))
        g = km.sample_gnp(GnpParams(n, p, seed))
    elif kind == "star":
        g = km.from_edges(n, [(0, v) for v in range(1, n)])
    else:
        g = km.path_graph(n) if kind == "path" else km.from_edges(n, [])
    src = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(km.graph, "_BATCH_CAP", cap)
        balls, ptr, cover = matching._kept_balls(g, np.array(src, dtype=np.int64), k - 1)
    assert balls.dtype == cover.dtype == np.int32
    assert len(ptr) == len(src) + 1
    want = np.zeros(n, dtype=np.int64)
    for i, x in enumerate(src):
        ball = python_ball(g, (x,), k - 1)
        want[ball] += 1
        assert set(balls[ptr[i] : ptr[i + 1]].tolist()) == set(ball)
    assert np.array_equal(cover, want)


class TestSerialization:
    def test_round_trip(self):
        m = KMatching.of(3, [(5, 2), (7, 9)])
        assert m.to_text() == "3 2\n2 5\n7 9\n"
        assert KMatching.of(3, m.sorted_edges()) == m
        assert KMatching(2, [], []).to_text() == "2 0\n"


def test_kmatching_validation():
    with pytest.raises(ValueError):
        KMatching(0, [], [])

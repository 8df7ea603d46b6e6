import heapq
import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kmatch as km
from kmatch.graph import GnpParams, bounded_ball, distance_to_set
from kmatch.matching import (
    _REJECTION_TRIES,
    GeneratorConfig,
    GeneratorStalled,
    InstanceTooLargeError,
    InvalidMatchingError,
    KMatching,
    default_pair_count,
)


def brute_force_um_k(g, k):
    """Reference solver: try all edge subsets."""
    edges = list(g.edges())
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(edges, r):
            if km.is_k_matching(g, KMatching.of(k, combo)):
                best = max(best, r)
                break
    return best


def reference_generator_algorithm(g, cfg):
    """Reference pair-and-repair loop: rebuilds the far set F with a full
    ``distance_to_set`` on every repair and checks pairs by a Python ball
    walk.  It consumes the RNG exactly as ``generator_algorithm`` must.  The
    library once reported far_size -1 on the budget path; here |F| is
    computed from scratch there too."""
    k = cfg.k
    s = cfg.s_override if cfg.s_override is not None else default_pair_count(g, k)
    if 2 * s > g.n:
        raise ValueError(f"need 2s={2 * s} <= n={g.n} distinct vertices")
    max_iter = (
        cfg.max_repair_iterations
        if cfg.max_repair_iterations is not None
        else max(10 * s, 1000)
    )
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    draw = rng.choice(g.n, size=2 * s, replace=False)
    pu = np.minimum(draw[0::2], draw[1::2]).astype(np.int64)
    pv = np.maximum(draw[0::2], draw[1::2]).astype(np.int64)
    # the plain mask is enough: selected vertices stay pairwise distinct
    # (the draw is without replacement, insertions come from the far set)
    selected = np.zeros(g.n, dtype=bool)
    selected[draw] = True

    def pair_valid(i: int) -> bool:
        u, v = int(pu[i]), int(pv[i])
        if not g.has_edge(u, v):
            return False
        for w in bounded_ball(g, (u, v), k - 1):
            if selected[w] and w != u and w != v:
                return False
        return True

    invalid = [i for i in range(s) if not pair_valid(i)]
    heapq.heapify(invalid)
    iterations = 0
    while invalid:
        i = heapq.heappop(invalid)
        if pair_valid(i):
            continue  # the conflicting pair was repaired away
        iterations += 1
        if iterations > max_iter:
            far = distance_to_set(g, np.flatnonzero(selected), k) == k
            raise GeneratorStalled(
                f"exceeded {max_iter} repair iterations",
                iterations,
                int(np.count_nonzero(far)),
            )
        selected[pu[i]] = False
        selected[pv[i]] = False
        far = distance_to_set(g, np.flatnonzero(selected), k) == k
        picked = None
        if g.edge_count:
            for _ in range(_REJECTION_TRIES):
                j = int(rng.integers(g.edge_count))
                if far[g.eu[j]] and far[g.ev[j]]:
                    picked = j
                    break
            if picked is None:
                hits = np.flatnonzero(far[g.eu] & far[g.ev])
                if hits.size:
                    picked = int(hits[rng.integers(hits.size)])
        if picked is None:
            raise GeneratorStalled(
                "no edge induced by the distance->=k vertex set",
                iterations,
                int(np.count_nonzero(far)),
            )
        pu[i] = int(g.eu[picked])
        pv[i] = int(g.ev[picked])
        selected[pu[i]] = True
        selected[pv[i]] = True
    return KMatching(
        k, frozenset(zip(pu.tolist(), pv.tolist()))
    )


def generator_outcome(fn, g, cfg):
    """The matching ``fn`` builds, or the message, iteration count and |F|
    of the GeneratorStalled it raises."""
    try:
        return fn(g, cfg)
    except GeneratorStalled as exc:
        return (str(exc), exc.iterations, exc.far_size)


class TestIsKMatching:
    def test_empty_and_singleton(self):
        g = km.path_graph(4)
        assert km.is_k_matching(g, KMatching(5, frozenset()))
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

    def test_matches_pairwise_edge_distance(self):
        # definition check: pairwise edge distance >= k+1, i.e. min
        # endpoint distance >= k
        g = km.sample_gnp(GnpParams(12, 0.25, 17))
        edges = list(g.edges())
        for k in (1, 2, 3):
            for e, f in itertools.combinations(edges, 2):
                m = KMatching.of(k, [e, f])
                expected = km.edge_distance(g, e, f) >= k + 1
                assert km.is_k_matching(g, m) == expected


class TestMaximality:
    def test_empty_on_nonempty_graph(self):
        g = km.path_graph(3)
        assert not km.is_maximal_k_matching(g, KMatching(2, frozenset()))

    def test_empty_on_edgeless_graph(self):
        g = km.from_edges(3, [])
        assert km.is_maximal_k_matching(g, KMatching(2, frozenset()))

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
        assert a.edges == b.edges

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

    def test_k1_equals_classical_maximum_matching(self):
        for seed in range(20):
            g = km.sample_gnp(GnpParams(9, 0.3, seed + 100))
            if g.edge_count > 14:
                continue
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(g.n))
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
            m = km.generator_algorithm(
                km.complete_graph(n), GeneratorConfig(k=2, seed=5, s_override=1)
            )
            assert m.size == 1
            assert km.is_k_matching(km.complete_graph(n), m)

    def test_edgeless_stalls(self):
        with pytest.raises(GeneratorStalled):
            km.generator_algorithm(
                km.from_edges(8, []), GeneratorConfig(k=2, seed=5, s_override=1)
            )

    def test_iteration_budget(self):
        # random pairs on a path are almost never edges, so repairs are
        # needed and a budget of 1 must trip
        g = km.path_graph(64)
        cfg = GeneratorConfig(k=2, seed=0, s_override=16, max_repair_iterations=1)
        with pytest.raises(GeneratorStalled) as info:
            km.generator_algorithm(g, cfg)
        with pytest.raises(GeneratorStalled) as ref:
            reference_generator_algorithm(g, cfg)
        assert info.value.iterations == 2
        assert info.value.far_size == ref.value.far_size >= 0

    def test_output_size_exact_and_valid(self):
        g = km.sample_gnp(GnpParams(3000, 10.0 / 3000, 77))
        for seed in range(5):
            m = km.generator_algorithm(g, GeneratorConfig(k=2, seed=seed, s_override=40))
            assert m.size == 40
            assert km.is_k_matching(g, m)

    def test_k3_run(self):
        g = km.sample_gnp(GnpParams(5000, 4.0 / 5000, 13))
        m = km.generator_algorithm(g, GeneratorConfig(k=3, seed=4, s_override=12))
        assert m.size == 12
        assert km.is_k_matching(g, m)

    def test_determinism(self):
        g = km.sample_gnp(GnpParams(2000, 8.0 / 2000, 21))
        a = km.generator_algorithm(g, GeneratorConfig(k=2, seed=9, s_override=25))
        b = km.generator_algorithm(g, GeneratorConfig(k=2, seed=9, s_override=25))
        assert a.edges == b.edges

    def test_default_pair_count_matches_formula(self):
        g = km.sample_gnp(GnpParams(100_000, 20.0 / 100_000, 3))
        # empirical mean degree is close to 20 so the floor lands at the
        # formula value for nominal d=20 (775) plus or minus a few
        assert abs(default_pair_count(g, 2) - 775) <= 5

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ValueError):
            km.generator_algorithm(
                km.complete_graph(4), GeneratorConfig(k=2, seed=0, s_override=3)
            )


class TestGeneratorAgainstReference:
    """``generator_algorithm`` keeps a coverage counter where the reference
    rebuilds F on every repair; both must return the same matching, or
    stall with the same message, iteration count and |F|."""

    @pytest.mark.parametrize(
        "n, d, k, s",
        # s=None takes the formula's s; the larger s need fallback scans
        # near the end, and the largest of each k stall for every seed
        [
            (3000, 8.0, 2, None),
            (3000, 8.0, 2, 340),
            (3000, 8.0, 2, 380),
            (4000, 5.0, 3, None),
            (4000, 5.0, 3, 200),
            (4000, 5.0, 3, 240),
            (4000, 3.0, 4, 200),
            (4000, 3.0, 4, 260),
        ],
    )
    def test_seed_grid(self, n, d, k, s):
        g = km.sample_gnp(GnpParams(n, d / n, 1000 + k))
        for seed in range(5):
            cfg = GeneratorConfig(k=k, seed=seed, s_override=s)
            assert generator_outcome(km.generator_algorithm, g, cfg) == (
                generator_outcome(reference_generator_algorithm, g, cfg)
            ), seed

    @pytest.mark.parametrize(
        "g, cfg",
        [
            (km.path_graph(64), GeneratorConfig(2, 0, 16, max_repair_iterations=1)),
            (km.path_graph(64), GeneratorConfig(3, 1, 4, max_repair_iterations=1)),
            (km.from_edges(8, []), GeneratorConfig(2, 5, 1)),
            (km.from_edges(8, []), GeneratorConfig(3, 5, 4)),
            (km.complete_graph(9), GeneratorConfig(2, 5, 1)),
            (km.complete_graph(9), GeneratorConfig(2, 5, 3)),
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
        budget = data.draw(st.one_of(st.none(), st.integers(1, 5)))
        cfg = GeneratorConfig(k, seed, s, max_repair_iterations=budget)
        assert generator_outcome(km.generator_algorithm, g, cfg) == (
            generator_outcome(reference_generator_algorithm, g, cfg)
        )


class TestSerialization:
    def test_round_trip(self):
        m = KMatching.of(3, [(5, 2), (7, 9)])
        text = m.to_text()
        assert text == "3 2\n2 5\n7 9\n"
        assert KMatching.from_text(text) == m

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            KMatching.from_text("2 1\n3 1\n")


def test_kmatching_validation():
    with pytest.raises(ValueError):
        KMatching(0, frozenset())

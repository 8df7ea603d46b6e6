"""Tests of the benchmark's own output checks (not part of the repository's
test suite).  Run with:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

import checks
import probe

km = probe.import_kmatch()


def random_graph(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    eu = np.array([u for u, _ in pairs], dtype=np.int32)
    ev = np.array([v for _, v in pairs], dtype=np.int32)
    return eu, ev


def nx_graph(n: int, eu, ev) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(eu.tolist(), ev.tolist()))
    return g


@pytest.mark.parametrize("seed", range(20))
def test_bfs_matches_networkx_distances(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 40))
    eu, ev = random_graph(n, float(rng.uniform(0.02, 0.3)), seed)
    sources = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    cap = int(rng.integers(1, 6))
    dist, owner = checks.bfs(n, eu, ev, sources, cap)
    g = nx_graph(n, eu, ev)
    want = nx.multi_source_dijkstra_path_length(g, set(sources.tolist()))
    for v in range(n):
        assert dist[v] == min(want.get(v, cap), cap)
        if dist[v] < cap:
            # the owner is a source at exactly that distance
            src = int(sources[owner[v]])
            assert nx.shortest_path_length(g, src, v) == dist[v]
        else:
            assert owner[v] == -1


def brute_force_is_k_matching(n, eu, ev, pairs, k) -> bool:
    g = nx_graph(n, eu, ev)
    if any(not g.has_edge(u, v) for u, v in pairs):
        return False
    sp = dict(nx.all_pairs_shortest_path_length(g))
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        if any(y in sp[x] and sp[x][y] < k for x in (a, b) for y in (c, d)):
            return False
    return True


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_check_matching_agrees_with_networkx(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 24))
    eu, ev = random_graph(n, float(rng.uniform(0.05, 0.4)), seed)
    if eu.size == 0:
        return
    picked = rng.choice(eu.size, size=int(rng.integers(1, min(eu.size, 5) + 1)), replace=False)
    pairs = [(int(eu[i]), int(ev[i])) for i in picked]
    verts = [x for e in pairs for x in e]
    if len(set(verts)) != len(verts):
        return  # shared vertices are rejected before any distance is taken
    got = checks.check_matching(
        n, eu, ev, [u for u, _ in pairs], [v for _, v in pairs], k, maximal=False
    )
    assert (got == []) == brute_force_is_k_matching(n, eu, ev, pairs, k)


def greedy_case(seed: int, k: int):
    g = km.sample_gnp(km.GnpParams(400, 6 / 400, seed))
    pairs = km.greedy_k_matching(g, k, seed + 1).sorted_edges()
    return g, pairs


def as_arrays(pairs):
    return [u for u, _ in pairs], [v for _, v in pairs]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3])
def test_greedy_output_passes(seed, k):
    g, pairs = greedy_case(seed, k)
    assert checks.check_matching(g.n, g.eu, g.ev, *as_arrays(pairs), k, maximal=True) == []


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3])
def test_rejects_greedy_matching_with_an_edge_removed(seed, k):
    g, pairs = greedy_case(seed, k)
    assert len(pairs) > 1
    problems = checks.check_matching(
        g.n, g.eu, g.ev, *as_arrays(pairs[1:]), k, maximal=True
    )
    assert any("not maximal" in p for p in problems)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3])
def test_rejects_matching_with_a_conflicting_edge_added(seed, k):
    g, pairs = greedy_case(seed, k)
    matched = {x for e in pairs for x in e}
    dist, _ = checks.bfs(g.n, g.eu, g.ev, np.array(sorted(matched)), k)
    # an edge with no matched endpoint but one endpoint within k-1 of the
    # matching: adding it breaks the distance condition, not disjointness
    extra = next(
        (int(u), int(v))
        for u, v in zip(g.eu, g.ev)
        if u not in matched and v not in matched and min(dist[u], dist[v]) < k
    )
    problems = checks.check_matching(
        g.n, g.eu, g.ev, *as_arrays(pairs + [extra]), k, maximal=False
    )
    assert any("closer than" in p for p in problems)


def test_rejects_pairs_that_are_not_edges_or_share_vertices():
    eu = np.array([0, 1, 2], dtype=np.int32)
    ev = np.array([1, 2, 3], dtype=np.int32)
    assert checks.check_matching(4, eu, ev, [0], [2], 2, False) != []
    assert checks.check_matching(4, eu, ev, [0, 1], [1, 2], 1, False) != []


def test_closed_forms():
    assert checks.pair_target(10**5, 20, 2) == 775
    assert checks.pair_target(10**5, 20, 3) == 149
    assert checks.matchings_of_complete_graph(6, 2) == 45
    assert checks.matchings_of_complete_graph(5, 2) == 15
    lower, upper = checks.size_band(10**6, 50, 2)
    assert lower < 36_000 < upper


def test_oracle_checks_accept_the_oracle_and_reject_a_perturbed_value():
    p = Fraction(1, 2)
    value = km.oracle.exact_expected_Xm(5, p, 2, 2, exact=True)
    assert checks.check_xm_k2_closed_form(value, 5, p, 2) == []
    assert checks.check_xm_k2_closed_form(value + Fraction(1, 2**20), 5, p, 2) != []
    got = km.oracle.exact_umk_distribution(4, 0.5, 2)
    assert checks.check_umk_distribution(got, 4, 0.5) == []
    assert checks.check_umk_against(got, checks.umk_distribution_networkx(4, 0.5, 2)) == []
    shifted = {**got, 1: got[1] + 1e-9}
    assert checks.check_umk_distribution(shifted, 4, 0.5) != []

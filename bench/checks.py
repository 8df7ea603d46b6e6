"""Output checks for the benchmark, written apart from ``kmatch``.

Nothing here calls ``kmatch``'s validators, distance routines or closed
forms.  Distances come from a level-synchronous multi-source BFS over the
graph's two edge arrays (``eu[i] < ev[i]``); the size band, the pair target
and the matching counts are re-derived from the paper's formulas; the
oracle's n = 5 distribution is recomputed with networkx.  The one
exception is the ``oracle_xm`` sandwich, whose bounds the caller takes
from ``kmatch.analytic``.

Each ``check_*`` function returns a list of problems, empty when the output
is correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Closed forms (the paper's formulas, written out again here)
# ---------------------------------------------------------------------------


def size_band(n: int, d: float, k: int) -> tuple[float, float]:
    """(lower, upper) size band of every maximal k-matching:
    (k-1)/4 and k/2 times n ln d / d^(k-1)."""
    unit = n * math.log(d) / d ** (k - 1)
    return (k - 1) * unit / 4.0, k * unit / 2.0


def pair_target(n: int, d: float, k: int) -> int:
    """s = floor(n / (4 d^(k-1)) * (k ln d - 3 ln(k ln d))), at least 1."""
    kld = k * math.log(d)
    return max(1, math.floor(n / (4.0 * d ** (k - 1)) * (kld - 3.0 * math.log(kld))))


def matchings_of_complete_graph(n: int, m: int) -> int:
    """Number of size-m matchings of K_n: n! / (2^m m! (n-2m)!)."""
    if 2 * m > n:
        return 0
    return math.factorial(n) // (2**m * math.factorial(m) * math.factorial(n - 2 * m))


# ---------------------------------------------------------------------------
# Graphs and matchings
# ---------------------------------------------------------------------------


def check_edge_arrays(n: int, eu: np.ndarray, ev: np.ndarray) -> list[str]:
    """The edge arrays describe a simple graph: 0 <= eu < ev < n, strictly
    ascending in lexicographic order (so no edge repeats)."""
    if eu.shape != ev.shape or eu.ndim != 1:
        return ["edge arrays differ in shape"]
    if eu.size == 0:
        return []
    if int(eu.min()) < 0 or int(ev.max()) >= n or bool(np.any(eu >= ev)):
        return ["an edge is out of range or not normalized"]
    keys = eu.astype(np.int64) * n + ev
    if bool(np.any(keys[1:] <= keys[:-1])):
        return ["edges are not strictly ascending"]
    return []


def check_edge_count(n: int, p: float, m: int) -> list[str]:
    """m lies within 6 standard deviations of C(n,2) p."""
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sd = math.sqrt(pairs * p * (1.0 - p))
    if abs(m - mean) > 6.0 * sd:
        return [f"edge count {m} is {abs(m - mean) / sd:.1f} sd from {mean:.1f}"]
    return []


def bfs(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    sources: np.ndarray,
    cap: int,
    labels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Multi-source BFS over the edge arrays, truncated at ``cap``.

    Returns (dist, owner): dist[v] is the distance from v to the nearest
    source when it is below ``cap`` and ``cap`` otherwise; owner[v] is the
    label of one source at that distance (-1 when dist[v] == cap).  Labels
    default to the source's position in ``sources``.
    """
    sources = np.asarray(sources, dtype=np.int64)
    dist = np.full(n, cap, dtype=np.int32)
    owner = np.full(n, -1, dtype=np.int32)
    if labels is None:
        labels = np.arange(sources.size, dtype=np.int32)
    dist[sources] = 0
    owner[sources] = labels
    frontier = np.zeros(n, dtype=bool)
    frontier[sources] = True
    for level in range(1, cap):
        fu = frontier[eu]
        fv = frontier[ev]
        reached = np.concatenate([ev[fu], eu[fv]])
        via = np.concatenate([eu[fu], ev[fv]])
        fresh = dist[reached] == cap
        reached = reached[fresh]
        if reached.size == 0:
            break
        dist[reached] = level
        owner[reached] = owner[via[fresh]]
        frontier = np.zeros(n, dtype=bool)
        frontier[reached] = True
    return dist, owner


def check_matching(
    n: int,
    eu: np.ndarray,
    ev: np.ndarray,
    mu: np.ndarray,
    mv: np.ndarray,
    k: int,
    maximal: bool,
) -> list[str]:
    """The pairs (mu[i], mv[i]) form a k-matching of the graph (every pair
    is an edge, and endpoints of different pairs are at distance >= k),
    and, when ``maximal``, no further edge can be added to it.

    Two pairs are closer than k exactly when some graph edge (x, y) joins
    vertices owned by different pairs in the BFS from all matched vertices
    with dist[x] + 1 + dist[y] <= k - 1: a shortest connecting path
    changes owner along one of its edges.
    """
    mu = np.asarray(mu, dtype=np.int64)
    mv = np.asarray(mv, dtype=np.int64)
    if mu.size == 0:
        return ["empty matching"] if maximal and eu.size else []
    lo, hi = np.minimum(mu, mv), np.maximum(mu, mv)
    if bool(np.any(lo == hi)) or int(lo.min()) < 0 or int(hi.max()) >= n:
        return ["a pair is a self-loop or out of range"]
    if eu.size == 0:
        return ["a pair is not an edge of the graph"]
    keys = eu.astype(np.int64) * n + ev
    want = lo * n + hi
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    if not bool(np.all(keys[at] == want)):
        return ["a pair is not an edge of the graph"]
    verts = np.concatenate([lo, hi])
    if np.unique(verts).size != verts.size:
        return ["two pairs share a vertex"]
    problems = []
    pair_of = np.concatenate([np.arange(lo.size), np.arange(lo.size)])
    dist, owner = bfs(n, eu, ev, verts, k, labels=pair_of)
    ox, oy = owner[eu], owner[ev]
    close = (ox >= 0) & (oy >= 0) & (ox != oy) & (dist[eu] + dist[ev] + 1 <= k - 1)
    if bool(np.any(close)):
        i = int(np.argmax(close))
        problems.append(
            f"pairs {int(ox[i])} and {int(oy[i])} are closer than {k} "
            f"(via edge {int(eu[i])}-{int(ev[i])})"
        )
    if maximal:
        far = dist == k
        if bool(np.any(far[eu] & far[ev])):
            problems.append("not maximal: an edge lies in the distance->=k set")
    return problems


def check_greedy(
    n: int, d: float, p: float, k: int, eu: np.ndarray, ev: np.ndarray, mu, mv
) -> list[str]:
    """A greedy trial: a valid graph, a maximal k-matching, size in band."""
    problems = check_edge_arrays(n, eu, ev) + check_edge_count(n, p, eu.size)
    if problems:
        return problems
    problems = check_matching(n, eu, ev, mu, mv, k, maximal=True)
    lower, upper = size_band(n, d, k)
    if not lower <= len(mu) <= upper:
        problems.append(f"size {len(mu)} outside band [{lower:.1f}, {upper:.1f}]")
    return problems


def check_generator(
    n: int, d: float, p: float, k: int, eu: np.ndarray, ev: np.ndarray, mu, mv
) -> list[str]:
    """A generator trial: a valid graph, a k-matching of exactly s pairs."""
    problems = check_edge_arrays(n, eu, ev) + check_edge_count(n, p, eu.size)
    if problems:
        return problems
    problems = check_matching(n, eu, ev, mu, mv, k, maximal=False)
    s = pair_target(n, d, k)
    if len(mu) != s:
        problems.append(f"size {len(mu)} differs from the pair target s = {s}")
    return problems


# ---------------------------------------------------------------------------
# The exhaustive oracle
# ---------------------------------------------------------------------------


def check_xm_k2_closed_form(value: Fraction, n: int, p: Fraction, m: int) -> list[str]:
    """At k = 2, E[X_m] = count * p^m (1-p)^(4 C(m,2)) exactly: a fixed
    matching is induced iff its m edges are present and the 4 C(m,2)
    cross pairs are absent."""
    want = matchings_of_complete_graph(n, m) * p**m * (1 - p) ** (4 * math.comb(m, 2))
    if value != want:
        return [f"E[X_{m}] at n={n}, k=2 is {value}, closed form gives {want}"]
    return []


def check_xm_sandwich(
    value: Fraction, n: int, p: float, m: int, u: float, u_exp_delta: float
) -> list[str]:
    """count * p^m * u <= E[X_m] <= count * p^m * u * e^Delta.  The caller
    supplies u and u e^Delta (``run.py`` takes them from
    ``kmatch.analytic.janson_matching``), so this check is not independent
    of ``kmatch``'s closed forms."""
    scale = matchings_of_complete_graph(n, m) * p**m
    cond = float(value) / scale
    tol = 1e-12
    if not u - tol <= cond <= u_exp_delta + tol:
        return [f"E[X_{m}]/(count p^m) = {cond!r} outside [{u!r}, {u_exp_delta!r}]"]
    return []


def check_umk_distribution(dist: dict, n: int, p: float) -> list[str]:
    """Probabilities sum to 1 and P[u = 0] is the empty graph's (1-p)^C(n,2)."""
    problems = []
    total = math.fsum(dist.values())
    if abs(total - 1.0) > 1e-12:
        problems.append(f"probabilities sum to {total!r}")
    empty = (1.0 - p) ** math.comb(n, 2)
    if not math.isclose(dist.get(0, 0.0), empty, rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"P[0] = {dist.get(0)!r}, expected {empty!r}")
    return problems


def umk_distribution_networkx(n: int, p: float, k: int) -> dict[int, float]:
    """Distribution of the k-matching number over G(n,p), by networkx.

    For each of the 2^C(n,2) graphs the k-matching number is the maximum
    independent set of the conflict graph on its edges (two edges conflict
    when some endpoints are at distance < k), found as a maximum clique of
    the conflict graph's complement.
    """
    import networkx as nx

    slots = list(itertools.combinations(range(n), 2))
    buckets: dict[int, list[float]] = {}
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        sp = dict(nx.all_pairs_shortest_path_length(g, cutoff=k - 1))
        compatible = nx.Graph()
        compatible.add_nodes_from(range(len(edges)))
        for i, j in itertools.combinations(range(len(edges)), 2):
            if all(y not in sp[x] for x in edges[i] for y in edges[j]):
                compatible.add_edge(i, j)
        size = len(nx.max_weight_clique(compatible, weight=None)[0]) if edges else 0
        weight = p ** len(edges) * (1.0 - p) ** (len(slots) - len(edges))
        buckets.setdefault(size, []).append(weight)
    return {size: math.fsum(w) for size, w in sorted(buckets.items())}


def check_umk_against(got: dict, want: dict) -> list[str]:
    """The same support, and every probability within 1e-12."""
    if sorted(got) != sorted(want):
        return [f"supports differ: {sorted(got)} vs {sorted(want)}"]
    bad = [s for s in want if abs(got[s] - want[s]) > 1e-12]
    return [f"P[{s}] = {got[s]!r}, networkx gives {want[s]!r}" for s in bad]

"""Exact probabilities over all labeled graphs on at most 6 vertices.

A graph on n vertices is a bitmask over the N = C(n,2) vertex-pair slots in
lexicographic order, and an event's G(n,p) probability is
sum_j c_j p^j (1-p)^(N-j), where c_j counts the satisfying masks with j
edges.  The built-in events are boolean vectors over all 2^N masks at once,
decided by bit BFS on per-vertex neighbor bitmasks, and c is a bincount of
their edge counts; ``exact_event_probability`` calls a predicate per mask
instead.  With ``exact=True`` the sum is exact in Fraction(p); otherwise it
is the correctly rounded sum of c_j w_j over the float weights
w_j = float(p)^j (1-float(p))^(N-j).  G(n,p) is exchangeable, so E[X_m] is
the number of size-m matchings of K_n times the probability of one of them.

These values calibrate the closed-form main terms: those omit exp[O(.)]
corrections, the oracle does not.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .analytic import PairProfile
# Unused here: bench/run.py traces kmatch.oracle.exact_um_k and from_edges by name.
from .graph import from_edges  # noqa: F401
from .matching import exact_um_k  # noqa: F401

__all__ = [
    "MAX_ORACLE_N",
    "MaskGraph",
    "enumerate_matchings",
    "exact_event_probability",
    "exact_expected_Xm",
    "exact_pair_profile_table",
    "exact_prob_distance_ge_k",
    "exact_prob_k_matching",
    "exact_umk_distribution",
    "pair_slots",
]

#: Hard enumeration cap: 2^C(6,2) = 32768 masks.  Larger n is refused
#: rather than silently approximated.
MAX_ORACLE_N = 6


def _check_n(n: int, p: Union[float, Fraction] = 0) -> None:
    if not 0 <= n <= MAX_ORACLE_N:
        raise ValueError(f"oracle handles n <= {MAX_ORACLE_N}, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"p must be in [0, 1], got {p}")


@lru_cache(maxsize=None)
def pair_slots(n: int) -> tuple[tuple[int, int], ...]:
    """The C(n,2) vertex pairs in lexicographic (slot) order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


class MaskGraph:
    """Lightweight graph view of one mask: per-vertex neighbor bitmasks."""

    __slots__ = ("n", "mask", "adj")

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask
        adj = [0] * n
        slots = pair_slots(n)
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            u, v = slots[low.bit_length() - 1]
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


@lru_cache(maxsize=None)
def _mask_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(adj, edges) over all 2^N masks: adj[u, mask] is u's neighbor bitmask
    in that mask (a byte, as n <= 6) and edges[mask] its edge count."""
    masks = np.arange(1 << len(pair_slots(n)), dtype=np.int32)
    adj = np.zeros((n, masks.size), dtype=np.uint8)
    edges = np.zeros(masks.size, dtype=np.intp)
    for slot, (u, v) in enumerate(pair_slots(n)):
        bit = (masks >> slot & 1).astype(np.uint8)
        adj[u] |= bit << v
        adj[v] |= bit << u
        edges += bit
    adj.flags.writeable = edges.flags.writeable = False
    return adj, edges


def _ball(adj: np.ndarray, vertices: Iterable[int], radius: int) -> np.ndarray:
    """Bitmask of the vertices within ``radius`` (no ball grows past n - 1) of
    ``vertices`` in every mask, by bit BFS over all masks at once."""
    ball = np.full(adj.shape[1], sum(1 << x for x in vertices), dtype=np.uint8)
    for _ in range(min(radius, len(adj) - 1)):
        grown = ball.copy()
        for v in range(len(adj)):
            grown |= adj[v] * (ball >> v & 1)
        ball = grown
    return ball


def _histogram(n: int, event: np.ndarray) -> np.ndarray:
    """c_j: the number of masks with j edges where ``event`` holds."""
    return np.bincount(_mask_tables(n)[1][event], minlength=len(pair_slots(n)) + 1)


def _evaluate(counts: Sequence[int], p, exact: bool) -> Union[float, Fraction]:
    """sum_j counts[j] p^j (1-p)^(N-j), N = len(counts) - 1: exact, or over
    the float weights float(p)^j (1-float(p))^(N-j) and rounded once."""
    top = len(counts) - 1
    q = Fraction(p) if exact else float(p)
    total = sum(
        int(c) * Fraction(q**j * (1 - q) ** (top - j)) for j, c in enumerate(counts)
    )
    return total if exact else float(total)


def exact_event_probability(
    n: int,
    p: Union[float, Fraction],
    predicate: Callable[[MaskGraph], bool],
    *,
    exact: bool = False,
) -> Union[float, Fraction]:
    """G(n,p)-probability of the event described by ``predicate``.

    Sums p^|E| (1-p)^(N-|E|) over all 2^N masks (N = C(n,2)) whose graph
    satisfies the predicate.  With ``exact=True`` and a Fraction p the
    arithmetic is exact rational.
    """
    _check_n(n, p)
    slots = len(pair_slots(n))
    counts = [0] * (slots + 1)
    for mask in range(1 << slots):
        if predicate(MaskGraph(n, mask)):
            counts[mask.bit_count()] += 1
    return _evaluate(counts, p, exact)


def exact_prob_distance_ge_k(
    n: int,
    p: Union[float, Fraction],
    k: int,
    u: int,
    v: int,
    *,
    exact: bool = False,
) -> Union[float, Fraction]:
    """Exact P[d_G(u,v) >= k] under G(n,p)."""
    _check_n(n, p)
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("vertex out of range")
    adj, _ = _mask_tables(n)
    event = (k <= 0) | (_ball(adj, [u], k - 1) >> v & 1 == 0)
    return _evaluate(_histogram(n, event), p, exact)


def _normalize_matching(n: int, edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    seen: set[int] = set()
    for u, v in edges:
        if u > v:
            u, v = v, u
        if u == v or not (0 <= u < v < n):
            raise ValueError(f"bad matching edge ({u}, {v})")
        if u in seen or v in seen:
            raise ValueError("matching edges must be vertex-disjoint")
        seen.update((u, v))
        out.append((u, v))
    return sorted(out)


def _k_matching_event(n: int, k: int, members, balls=None) -> np.ndarray:
    """The masks where every member edge is present and no member's radius-(k-1)
    ball (``balls[edge]`` when given) holds an endpoint of a later member."""
    adj, _ = _mask_tables(n)
    if balls is None:
        balls = {e: _ball(adj, e, k - 1) for e in members}
    event = np.ones(adj.shape[1], dtype=bool)
    for u, v in members:
        event &= (adj[u] >> v & 1) != 0
    for e, (u, v) in combinations(members, 2):
        event &= (balls[e] >> u | balls[e] >> v) & 1 == 0
    return event


def exact_prob_k_matching(
    n: int,
    p: Union[float, Fraction],
    k: int,
    matching: Iterable[tuple[int, int]],
    *,
    exact: bool = False,
) -> Union[float, Fraction]:
    """Exact probability that all edges of the given vertex-disjoint pair
    set are present and pairwise at endpoint distance >= k."""
    _check_n(n, p)
    members = _normalize_matching(n, matching)
    return _evaluate(_histogram(n, _k_matching_event(n, k, members)), p, exact)


@lru_cache(maxsize=None)
def enumerate_matchings(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All size-m matchings of K_n as sorted edge tuples."""
    _check_n(n)
    if m < 0:
        raise ValueError(f"matching size m must be >= 0, got {m}")
    out = []
    for combo in combinations(pair_slots(n), m):
        if len({x for e in combo for x in e}) == 2 * m:
            out.append(combo)
    return tuple(out)


def exact_expected_Xm(
    n: int, p: Union[float, Fraction], k: int, m: int, *, exact: bool = False
) -> Union[float, Fraction]:
    """Exact E[number of size-m k-matchings of G]: the number of size-m
    matchings of K_n times the exact k-matching probability of one of them,
    since G(n,p) is exchangeable."""
    _check_n(n, p)
    if m == 0:
        return Fraction(1) if exact else 1.0
    matchings = enumerate_matchings(n, m)
    if not matchings:
        return Fraction(0) if exact else 0.0
    event = _k_matching_event(n, k, matchings[0])
    return _evaluate(len(matchings) * _histogram(n, event), p, exact)


def exact_pair_profile_table(n: int, m: int) -> dict[PairProfile, int]:
    """Count ordered pairs of size-m matchings of K_n by intersection
    profile (r disjoint rest-edges, c_v single shared vertices, c_e shared
    edges), restricted to pairs where neither matching has an edge whose
    endpoints lie in two different edges of the other."""
    _check_n(n)
    if m > 2:
        raise ValueError("profile enumeration is kept to m <= 2")
    matchings = enumerate_matchings(n, m)
    table: dict[PairProfile, int] = {}
    owners = [{x: e for e in mm for x in e} for mm in matchings]

    def crosses(mi, owner_j) -> bool:
        # an edge of mi with endpoints in two different edges of mj
        for a, b in mi:
            ea = owner_j.get(a)
            eb = owner_j.get(b)
            if ea is not None and eb is not None and ea != eb:
                return True
        return False

    for i, mi in enumerate(matchings):
        set_i = set(mi)
        owner_i = owners[i]
        for j, mj in enumerate(matchings):
            if crosses(mi, owners[j]) or crosses(mj, owner_i):
                continue
            c_e = len(set_i & set(mj))
            c_v = sum(
                1
                for v, e in owner_i.items()
                if v in owners[j] and owners[j][v] != e
            )
            profile = PairProfile(r=m - c_e - c_v, c_v=c_v, c_e=c_e)
            table[profile] = table.get(profile, 0) + 1
    return table


def exact_umk_distribution(
    n: int, p: Union[float, Fraction], k: int, *, exact: bool = False
) -> dict[int, Union[float, Fraction]]:
    """Exact distribution of the k-matching number over G(n,p).  Each mask
    is labelled with the largest m for which some size-m matching of K_n is
    a k-matching there; every label some mask attains is a key."""
    _check_n(n, p)
    if k < 1:
        raise ValueError("k must be >= 1")
    adj, edges = _mask_tables(n)
    balls = {e: _ball(adj, e, k - 1) for e in pair_slots(n)}
    size = np.zeros(edges.size, dtype=np.int8)
    for m in range(1, n // 2 + 1):
        for members in enumerate_matchings(n, m):
            size[_k_matching_event(n, k, members, balls)] = m
    return {int(s): _evaluate(_histogram(n, size == s), p, exact) for s in np.unique(size)}

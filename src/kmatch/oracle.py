"""Exact probabilities over all labeled graphs on at most 6 vertices.

A graph on n vertices is a bitmask over the N = C(n,2) vertex-pair slots in
lexicographic order, and an event's G(n,p) probability is
sum_j c_j p^j (1-p)^(N-j), where c_j counts the satisfying masks with j
edges.  Events are bit-sliced rows of words, mask i at bit i % 64 of word
i // 64, decided 64 masks to an AND/OR by bit BFS over packed slot rows; c_j
is a popcount against the row of the masks with j edges.
``exact_event_probability`` calls a predicate per mask instead.  With
``exact=True`` the sum is exact in Fraction(p); otherwise it is the
correctly rounded sum of c_j w_j over the float weights
w_j = float(p)^j (1-float(p))^(N-j).  G(n,p) is exchangeable, so E[X_m] is
the number of size-m matchings of K_n times the probability of one of them.

These values calibrate the closed-form main terms: those omit exp[O(.)]
corrections, the oracle does not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Optional, Union

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

    def __init__(self, n: int, mask: int, adj: Optional[list[int]] = None):
        self.n = n
        self.mask = mask
        self.adj = _neighbours(n, mask).tolist() if adj is None else adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)


def _neighbours(n: int, masks) -> np.ndarray:
    """adj[..., u]: u's neighbor bitmask (a byte, as n <= 6) in each mask."""
    masks = np.asarray(masks)
    adj = np.zeros(masks.shape + (n,), dtype=np.uint8)
    for slot, (u, v) in enumerate(pair_slots(n)):
        bit = (masks >> slot & 1).astype(np.uint8)
        adj[..., u] |= bit << v
        adj[..., v] |= bit << u
    return adj


@lru_cache(maxsize=None)
def _mask_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(reach, levels), packed: reach[x, y] holds the masks in which
    d(x, y) <= 1, so for x != y the slot row of the pair xy, and levels[j]
    the masks with exactly j edges.  Below 64 masks (n <= 3) the word is
    padded with bits in no level, so no histogram counts them."""
    top = len(pair_slots(n))
    masks = np.arange(max(1 << top, 64))
    edges = np.where(masks < 1 << top, np.bitwise_count(masks), -1)

    def pack(bits: np.ndarray) -> np.ndarray:
        return np.packbits(bits, bitorder="little").view("<u8")

    reach = np.full((n, n, len(masks) // 64), ~np.uint64(0))
    for slot, (u, v) in enumerate(pair_slots(n)):
        reach[u, v] = reach[v, u] = pack(masks >> slot & 1 == 1)
    levels = np.array([pack(edges == j) for j in range(top + 1)])
    reach.flags.writeable = levels.flags.writeable = False
    return reach, levels


def _far(n: int, k: int) -> np.ndarray:
    """far[x, y]: the masks in which d(x, y) >= k, by bit BFS over all masks
    at once; a step grows every ball by B[x] |= OR_y (B[y] & reach[x, y])."""
    reach = _mask_tables(n)[0]
    # one step from the points reaches ``reach``; d < 1 only on the diagonal
    near = reach if k > 1 else reach * (np.eye(n, dtype=np.uint64)[..., None] * (k > 0))
    for _ in range(min(k, n) - 2):  # no ball grows past n - 1 steps
        near = np.stack([np.bitwise_or.reduce(x[:, None] & near, axis=0) for x in reach])
    return ~near


def _histogram(n: int, events: np.ndarray) -> np.ndarray:
    """c_j per event row: the number of masks with j edges where it holds."""
    return np.bitwise_count(events[..., None, :] & _mask_tables(n)[1]).sum(axis=-1)


def _evaluate(counts: np.ndarray, p, exact: bool) -> list[Union[float, Fraction]]:
    """sum_j c_j w_j for each row c of ``counts``, over the weights
    w_j = p^j (1-p)^(N-j) (N = its length - 1), exact or float(p)'s rounded
    ones.  The N+1 weights are built once for all rows, as integers over one
    denominator, so each sum is exact and int / int rounds it once."""
    top = counts.shape[-1] - 1
    if exact:  # p = a/b: w_j = a^j (b-a)^(N-j) / b^N
        a, b = Fraction(p).as_integer_ratio()
        terms, scale = [a**j * (b - a) ** (top - j) for j in range(top + 1)], b**top
    else:
        q = float(p)
        ratios = [(q**j * (1 - q) ** (top - j)).as_integer_ratio() for j in range(top + 1)]
        scale = math.lcm(*(den for _, den in ratios))
        terms = [num * (scale // den) for num, den in ratios]
    sums = [sum(c * t for c, t in zip(row, terms)) for row in counts.tolist()]
    return [Fraction(s, scale) if exact else s / scale for s in sums]


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
    top = len(pair_slots(n))
    rows = _neighbours(n, np.arange(1 << top)).tolist()
    graphs = (MaskGraph(n, mask, adj) for mask, adj in enumerate(rows))
    event = np.fromiter((bool(predicate(g)) for g in graphs), bool, len(rows))
    counts = np.bincount(np.bitwise_count(np.flatnonzero(event)), minlength=top + 1)
    return _evaluate(counts[None], p, exact)[0]


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
    return _evaluate(_histogram(n, _far(n, k)[u, [v]]), p, exact)[0]


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


def _k_matched(n: int, matchings, m: int, far: np.ndarray) -> np.ndarray:
    """The masks (one row) where some size-m matching of ``matchings`` is a
    k-matching: its edges are present and every two of them have their ends
    ``far`` apart (a ``_far`` table).  All matchings are decided at once."""
    ends = np.array(matchings, dtype=np.intp).reshape(len(matchings), m, 2)
    reach = _mask_tables(n)[0]  # ANDed a member at a time: never (count, m, W) words
    events = np.bitwise_and.reduce(reach[ends[:, :1, 0], ends[:, :1, 1]], axis=1)
    for c in range(1, m):
        events &= reach[ends[:, c, 0], ends[:, c, 1]]
    for a, b in combinations(range(m), 2):
        for x, y in product(ends[:, a].T, ends[:, b].T):
            events &= far[x, y]  # the two edges' far row, one end pair at a time
    return np.bitwise_or.reduce(events, axis=0, keepdims=True)


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
    event = _k_matched(n, [members], len(members), _far(n, k))
    return _evaluate(_histogram(n, event), p, exact)[0]


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
    matchings = enumerate_matchings(n, m)  # none for m > n/2: a zero row below
    event = _k_matched(n, matchings[:1], m, _far(n, k))
    return _evaluate(len(matchings) * _histogram(n, event), p, exact)[0]


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
    far = _far(n, k)
    # has[m], the masks with a size-m k-matching (none past m = n/2), shrinks
    # in m as subsets of k-matchings are ones: label s is has[s] & ~has[s + 1]
    has = np.vstack(
        [_k_matched(n, enumerate_matchings(n, m), m, far) for m in range(n // 2 + 2)]
    )
    counts = _histogram(n, has[:-1] & ~has[1:])
    attained = np.flatnonzero(counts.sum(axis=1))
    return dict(zip(attained.tolist(), _evaluate(counts[attained], p, exact)))

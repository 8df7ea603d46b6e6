"""Plain Python references for the exhaustive oracle: a bit BFS on one
graph's per-vertex neighbour bitmasks, one pass over all 2^C(n,2)
labelled graphs on n vertices that decides every k-matching of each, and
the enumerated intersection profiles of matching pairs.  Nothing here
comes from kmatch, so the oracle and the closed forms are checked against
code they do not share."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def ball(adj, seeds, radius):
    """Bitmask of the vertices within distance <= radius of the vertex
    bitmask ``seeds`` (seeds included); adj[v] is v's neighbour bitmask."""
    seen = frontier = seeds
    for _ in range(radius):
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def distance_at_least(adj, sources, targets, k):
    """True iff every source/target vertex pair (given as bitmasks) is at
    distance >= k."""
    return k <= 0 or not ball(adj, sources, k - 1) & targets


@lru_cache(maxsize=None)
def mask_counts(n, k):
    """Edge-count histograms over all graphs on n vertices, for k >= 1.

    ``umk[s][j]`` is the number of graphs with j edges whose k-matching
    number is s; ``xm[m][j]`` is the number of size-m k-matchings summed
    over the graphs with j edges, for m = 0..n//2.  Each graph's k-matchings
    are grown level by level: a set is kept with the bitmask of the later
    edges compatible with all of its members.
    """
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    top = len(slots)
    umk = {}
    xm = [[0] * (top + 1) for _ in range(n // 2 + 1)]
    for mask in range(1 << top):
        present = [e for i, e in enumerate(slots) if mask >> i & 1]
        j = len(present)
        adj = [0] * n
        incident = [0] * n  # bitmask of the present edges at each vertex
        for i, (u, v) in enumerate(present):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            incident[u] |= 1 << i
            incident[v] |= 1 << i
        compat = []
        for i, (u, v) in enumerate(present):
            near = ball(adj, 1 << u | 1 << v, k - 1)
            blocked = 0
            for w in range(n):
                if near >> w & 1:
                    blocked |= incident[w]
            later = (1 << j) - (1 << (i + 1))
            compat.append(later & ~blocked)
        level = [(1 << j) - 1]  # the empty set: every edge is a candidate
        size = 0
        while True:
            xm[size][j] += len(level)
            grown = []
            for cand in level:
                while cand:
                    low = cand & -cand
                    cand ^= low
                    grown.append(cand & compat[low.bit_length() - 1])
            if not grown:
                break
            level = grown
            size += 1
        umk.setdefault(size, [0] * (top + 1))[j] += 1
    return umk, xm


def _evaluate(hist, p, exact):
    """sum_j hist[j] p^j (1-p)^(N-j), N = len(hist) - 1: in Fractions, or
    by fsum over float terms."""
    top = len(hist) - 1
    if exact:
        q = Fraction(p)
        return sum(
            (c * q**j * (1 - q) ** (top - j) for j, c in enumerate(hist)), Fraction(0)
        )
    q = float(p)
    return math.fsum(c * (q**j * (1.0 - q) ** (top - j)) for j, c in enumerate(hist))


def umk_distribution(n, p, k, *, exact=False):
    """The k-matching number's distribution over G(n,p)."""
    umk, _ = mask_counts(n, k)
    return {size: _evaluate(hist, p, exact) for size, hist in sorted(umk.items())}


def expected_Xm(n, p, k, m, *, exact=False):
    """E[number of size-m k-matchings] over G(n,p)."""
    _, xm = mask_counts(n, k)
    if m >= len(xm):
        return Fraction(0) if exact else 0.0
    return _evaluate(xm[m], p, exact)


def _joins_two(matching, owner):
    """True iff an edge of ``matching`` has its endpoints in two different
    edges of the matching whose vertex-to-edge map is ``owner``."""
    return any(
        a in owner and b in owner and owner[a] != owner[b] for a, b in matching
    )


def pair_profile_table(n, m):
    """Ordered pairs of size-m matchings of K_n counted by intersection
    profile, keyed (r, c_v, c_e): r disjoint rest-edges, c_v single shared
    vertices, c_e shared edges.  Pairs where an edge of one matching joins
    two edges of the other are left out."""
    matchings = [
        combo
        for combo in combinations(combinations(range(n), 2), m)
        if len({x for e in combo for x in e}) == 2 * m
    ]
    owners = [{x: e for e in mm for x in e} for mm in matchings]
    table = {}
    for mi, owner_i in zip(matchings, owners):
        for mj, owner_j in zip(matchings, owners):
            if _joins_two(mi, owner_j) or _joins_two(mj, owner_i):
                continue
            c_e = len(set(mi) & set(mj))
            c_v = sum(1 for v, e in owner_i.items() if owner_j.get(v, e) != e)
            key = (m - c_e - c_v, c_v, c_e)
            table[key] = table.get(key, 0) + 1
    return table

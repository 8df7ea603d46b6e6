"""Plain Python breadth-first search and networkx graphs, the references the
CSR ball and distance kernels are tested against.  Both are built from the
edge arrays ``g.eu`` and ``g.ev`` alone, so they share no adjacency code
with kmatch."""

from collections import deque

import networkx as nx


def edge_list(g):
    """The edges of g as (u, v) tuples in ascending lexicographic order."""
    return list(zip(g.eu.tolist(), g.ev.tolist()))


def nx_graph(g):
    """The same graph in networkx, the independent distance reference."""
    out = nx.Graph(edge_list(g))
    out.add_nodes_from(range(g.n))
    return out


_last = (None, None)  # the last graph python_ball walked and its adjacency


def _adjacency(g):
    """Each vertex's neighbour list, built once per graph: a run of calls on
    one graph reuses it."""
    global _last
    if _last[0] is not g:
        adj = [[] for _ in range(g.n)]
        for u, v in edge_list(g):
            adj[u].append(v)
            adj[v].append(u)
        _last = (g, adj)
    return _last[1]


def python_ball(g, seeds, radius):
    """All vertices within distance <= radius of the seed set (seeds
    included), in BFS discovery order, one neighbour list at a time."""
    adj = _adjacency(g)
    seen = set(int(s) for s in seeds)
    frontier = deque(seen)
    out = list(seen)
    for _ in range(radius):
        if not frontier:
            break
        nxt = deque()
        while frontier:
            x = frontier.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    out.append(y)
        frontier = nxt
    return out

"""Plain Python breadth-first search, the reference the CSR ball and
distance kernels are tested against."""

from collections import deque


def python_ball(g, seeds, radius):
    """All vertices within distance <= radius of the seed set (seeds
    included), in BFS discovery order, one neighbour list at a time."""
    seen = set(int(s) for s in seeds)
    frontier = deque(seen)
    out = list(seen)
    for _ in range(radius):
        if not frontier:
            break
        nxt = deque()
        while frontier:
            x = frontier.popleft()
            for y in g.neighbors(x).tolist():
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    out.append(y)
        frontier = nxt
    return out

"""Spans recorded from outside the program, by wrapping the public
functions at the module attributes through which the layers call each
other (``kmatch.matching.bounded_ball``, ``kmatch.oracle.exact_um_k``, ...).

A span is [name, op, parent, start_ns, end_ns, size]: ``op`` numbers the
benchmark operation that caused it, ``parent`` is the index of the
enclosing span (-1 at the top) and ``size`` is an optional count taken
from the return value.  Spans stay in memory until ``dump`` writes them
to an .npz file.  A layer's self time is its span's duration minus its
direct children's durations.  A wrapper can also keep the function's last
result in ``Tracer.last``, which is how the benchmark gets a trial's graph
and matching back at the layer boundary, traced or not.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.last: dict[str, object] = {}
        self.op = -1
        self._stack: list[int] = []

    def _patch(self, module, attr: str, wrapper) -> None:
        setattr(module, attr, wrapper(getattr(module, attr)))

    def span(self, module, attr: str, name: str | None, size=None, keep=False) -> None:
        """Record a span named ``name`` around every call of module.attr
        (none when ``name`` is None); ``size(result)`` fills the span's
        count, and ``keep`` stores the result in ``self.last[attr]``."""
        spans, stack, last, clock = self.spans, self._stack, self.last, time.perf_counter_ns

        def wrapper(fn):
            def traced(*args, **kwargs):
                if name is None:
                    out = fn(*args, **kwargs)
                else:
                    idx = len(spans)
                    rec = [name, self.op, stack[-1] if stack else -1, clock(), 0, 0]
                    spans.append(rec)
                    stack.append(idx)
                    try:
                        out = fn(*args, **kwargs)
                    finally:
                        stack.pop()
                        rec[4] = clock()
                    if size is not None:
                        rec[5] = size(out)
                if keep:
                    last[attr] = out
                return out

            return traced

        self._patch(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of module.attr per operation, without a span."""
        counts = self.counts

        def wrapper(fn):
            def counted(*args, **kwargs):
                counts[(self.op, name)] += 1
                return fn(*args, **kwargs)

            return counted

        self._patch(module, attr, wrapper)

    def metrics_by_op(self) -> dict[int, dict[str, float]]:
        """Per-operation layer totals: ``<span>.s``, ``<span>.self_s``,
        ``<span>.calls`` and ``<span>.size`` for every span name,
        ``<span><<parent>.s`` and ``.calls`` split by the enclosing span's
        name, and the call counts under their own names."""
        spans = self.spans
        child_ns: dict[int, int] = defaultdict(int)
        for name, op, parent, t0, t1, size in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        # (op, name, parent name) -> [ns, self ns, calls, size]
        agg: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
        for i, (name, op, parent, t0, t1, size) in enumerate(spans):
            a = agg[(op, name, spans[parent][0] if parent >= 0 else "")]
            a[0] += t1 - t0
            a[1] += t1 - t0 - child_ns.get(i, 0)
            a[2] += 1
            a[3] += size
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (op, name, under), (ns, self_ns, calls, size) in agg.items():
            m = out[op]
            m[f"{name}.s"] += ns * 1e-9
            m[f"{name}.self_s"] += self_ns * 1e-9
            m[f"{name}.calls"] += calls
            m[f"{name}.size"] += size
            m[f"{name}<{under}.s"] += ns * 1e-9
            m[f"{name}<{under}.calls"] += calls
        for (op, name), n in self.counts.items():
            out[op][name] += n
        return {op: dict(m) for op, m in out.items()}

    def dump(self, path: str) -> None:
        """Write the spans as columns of an .npz file; ``name`` indexes
        ``names``, ``parent`` indexes the span arrays."""
        names = sorted({s[0] for s in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        cols = np.array(
            [[ids[s[0]], *s[1:]] for s in self.spans], dtype=np.int64
        ).reshape(-1, 6)
        np.savez(
            path,
            names=np.array(names),
            name=cols[:, 0],
            op=cols[:, 1],
            parent=cols[:, 2],
            start_ns=cols[:, 3],
            end_ns=cols[:, 4],
            size=cols[:, 5],
        )

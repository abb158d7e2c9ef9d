"""How fast a CPU runs graph-walking Python code right now.

On a shared host a CPU's speed drifts by a factor of up to 1.6 over
seconds to minutes, for every process on it alike. The benchmark times a
fixed breadth-first sweep on the CPU a child runs on, just before and just
after the child, and reports the child's times in reference seconds: the
measured seconds times ``REFERENCE_SWEEP_S`` over the sweep's measured
seconds. The sweep is the benchmark's own code over its own graph, so no
change to gridpanel moves it; it does the kind of work gridpanel's kernels
do (dict and tuple lookups over adjacency lists), so it slows with them.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from typing import Iterator

# The sweep's duration on an undisturbed CPU of the machine the reference
# figures in README.md were taken on; it only fixes the unit.
REFERENCE_SWEEP_S = 0.03


def sweep_graph() -> dict[int, tuple[int, ...]]:
    """A fixed sparse graph of 500 nodes: a banded random tree plus a few
    chords."""
    n_nodes = 500
    rng = random.Random(0)
    adj: dict[int, set[int]] = {v: set() for v in range(n_nodes)}
    for v in range(1, n_nodes):
        u = rng.randrange(max(0, v - 20), v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(n_nodes // 3):
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


@contextmanager
def pinned(cpu: int) -> Iterator[None]:
    """Keep this process on ``cpu`` for the duration of the block."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def sweep_seconds(adj: dict[int, tuple[int, ...]], cpu: int) -> float:
    """Seconds one breadth-first search from every second node of ``adj``
    takes on ``cpu``."""
    with pinned(cpu):
        start = time.perf_counter()
        for src in range(0, len(adj), 2):
            seen = {src}
            frontier = [src]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in adj[v]:
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
        return time.perf_counter() - start

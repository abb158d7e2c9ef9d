"""Minimal undirected simple-graph container.

Every traversal in the toolkit iterates nodes in sorted order, which makes
results independent of input row order and of how a graph was assembled.
Node identifiers therefore have to be mutually comparable (all strings or
all integers within one graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

NodeId = Hashable


class Graph:
    """Immutable simple undirected graph.

    Parallel edges collapse on construction; self-loops are rejected.
    Neighbor tuples are sorted, so iteration order is reproducible.
    """

    __slots__ = ("_nodes", "_index", "_adj", "_sets", "_rows", "_n_edges")

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[tuple[NodeId, NodeId]] = ()) -> None:
        adj: dict[NodeId, set[NodeId]] = {v: set() for v in nodes}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u!r}")
            if u not in adj:
                raise ValueError(f"edge endpoint {u!r} is not a node")
            if v not in adj:
                raise ValueError(f"edge endpoint {v!r} is not a node")
            adj[u].add(v)
            adj[v].add(u)
        self._nodes: tuple[NodeId, ...] = tuple(sorted(adj))
        self._index: dict[NodeId, int] = {v: i for i, v in enumerate(self._nodes)}
        self._adj: dict[NodeId, tuple[NodeId, ...]] = {v: tuple(sorted(adj[v])) for v in self._nodes}
        self._sets: dict[NodeId, frozenset[NodeId]] | None = None
        self._rows: tuple[tuple[int, ...], ...] | None = None
        self._n_edges: int = sum(len(nbrs) for nbrs in self._adj.values()) // 2

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    def neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        return self._adj[v]

    def degree(self, v: NodeId) -> int:
        return len(self._adj[v])

    def neighbor_sets(self) -> dict[NodeId, frozenset[NodeId]]:
        """Adjacency as frozensets, built once and cached."""
        if self._sets is None:
            self._sets = {v: frozenset(nbrs) for v, nbrs in self._adj.items()}
        return self._sets

    def neighbor_rows(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency by position: row ``i`` lists the sorted indices of the
        neighbors of ``nodes[i]``. Built once and cached."""
        if self._rows is None:
            index = self._index
            self._rows = tuple(tuple(index[w] for w in self._adj[v]) for v in self._nodes)
        return self._rows

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        sets = self.neighbor_sets()
        try:
            return v in sets[u]
        except KeyError:
            return False

    def has_node(self, v: NodeId) -> bool:
        return v in self._index

    def edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Each edge once, endpoints in sorted order."""
        out = []
        for u in self._nodes:
            iu = self._index[u]
            out.extend((u, v) for v in self._adj[u] if self._index[v] > iu)
        return tuple(out)

    def __contains__(self, v: NodeId) -> bool:
        return v in self._index

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


@dataclass(frozen=True)
class AnnualSnapshot:
    """One year's network state after filtering and circuit collapsing."""

    year: int
    voltage_floor_kv: int
    graph: Graph

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges


def as_graph(g: Graph | AnnualSnapshot) -> Graph:
    """Accept either a bare graph or a snapshot wrapping one."""
    if isinstance(g, AnnualSnapshot):
        return g.graph
    if isinstance(g, Graph):
        return g
    raise TypeError(f"expected Graph or AnnualSnapshot, got {type(g).__name__}")


def ring_lattice(n_nodes: int, coordination: int) -> Graph:
    """Ring of ``n_nodes`` where each node links to its ``coordination``
    nearest neighbors (half on each side).

    Callers validate that ``coordination`` is even, at least 2 and below
    ``n_nodes``; under those constraints the edge count is exactly
    ``n_nodes * coordination / 2``.
    """
    half = coordination // 2
    edges = [(i, (i + d) % n_nodes) for i in range(n_nodes) for d in range(1, half + 1)]
    return Graph(range(n_nodes), edges)

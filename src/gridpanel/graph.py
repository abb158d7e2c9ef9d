"""Minimal undirected simple-graph container.

Every traversal in the toolkit iterates nodes in sorted order, which makes
results independent of input row order and of how a graph was assembled.
Node identifiers therefore have to be mutually comparable (all strings or
all integers within one graph).

Adjacency is stored once, by node position; labels are translated only at
the API boundary (``nodes``, ``neighbors``, ``degree``, ``has_edge``, ``edges``).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, repeat
from typing import Hashable, Iterable, NamedTuple

NodeId = Hashable


class Graph:
    """Immutable simple undirected graph.

    Parallel edges collapse on construction; self-loops are rejected.
    Nodes are sorted and row ``i`` of the adjacency holds the sorted
    positions of the neighbors of ``nodes[i]``, so iteration is reproducible.
    """

    __slots__ = ("_nodes", "_index", "_rows", "_n_edges")

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[tuple[NodeId, NodeId]] = ()) -> None:
        self._nodes: tuple[NodeId, ...] = tuple(sorted(set(nodes)))
        index = self._index = {v: i for i, v in enumerate(self._nodes)}
        adj: list[set[int]] = [set() for _ in self._nodes]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u!r}")
            if u not in index:
                raise ValueError(f"edge endpoint {u!r} is not a node")
            if v not in index:
                raise ValueError(f"edge endpoint {v!r} is not a node")
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        self._rows: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(row)) for row in adj)
        self._n_edges: int = sum(map(len, self._rows)) // 2

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
        return tuple(self._nodes[j] for j in self._rows[self._index[v]])

    def degree(self, v: NodeId) -> int:
        return len(self._rows[self._index[v]])

    def neighbor_rows(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency by position: row ``i`` lists the sorted indices of the
        neighbors of ``nodes[i]``. This is the graph's own storage."""
        return self._rows

    def positions(self, labels: Iterable[NodeId]) -> list[int]:
        """Positions in :attr:`nodes` of those ``labels`` that are nodes,
        in the order given; labels that are not nodes are skipped."""
        index = self._index
        return [index[v] for v in labels if v in index]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        index = self._index
        return u in index and v in index and index[v] in self._rows[index[u]]

    def has_node(self, v: NodeId) -> bool:
        return v in self._index

    def edges(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Each edge once, endpoints in sorted order."""
        nodes = self._nodes
        return tuple((nodes[i], nodes[j]) for i, row in enumerate(self._rows) for j in row if j > i)

    def __contains__(self, v: NodeId) -> bool:
        return v in self._index

    def __repr__(self) -> str:
        return f"Graph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def _from_rows(
    nodes: tuple[NodeId, ...],
    index: dict[NodeId, int],
    rows: tuple[tuple[int, ...], ...],
) -> Graph:
    # A graph over storage the caller already holds in the form __init__
    # produces: sorted nodes, their positions, and sorted symmetric rows
    # without self-loops. The parts are shared, never copied, so the caller
    # must not mutate them afterwards. Module-level rather than a
    # classmethod, so that callers reach it even where their module's
    # ``Graph`` name is rebound to a plain function.
    graph = Graph.__new__(Graph)
    graph._nodes = nodes
    graph._index = index
    graph._rows = rows
    graph._n_edges = sum(map(len, rows)) // 2
    return graph


def _wedges(rows: tuple[tuple[int, ...], ...]) -> Counter[tuple[int, int]]:
    # Key (a, b) with a < b, because rows are sorted; the value is the
    # number of neighbours a and b have in common.
    return Counter(chain.from_iterable(map(combinations, rows, repeat(2))))


class AnnualSnapshot(NamedTuple):
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

import random

import pytest

from gridpanel import Graph
from gridpanel.graph import ring_lattice


def test_nodes_sorted_and_counted():
    g = Graph(["b", "a", "c"], [("a", "b")])
    assert g.nodes == ("a", "b", "c")
    assert g.n_nodes == 3
    assert g.n_edges == 1


def test_parallel_edges_collapse():
    g = Graph(range(3), [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.n_edges == 2
    assert g.edges() == ((0, 1), (1, 2))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(range(2), [(0, 0)])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(range(2), [(0, 5)])


def test_neighbors_sorted_and_degree():
    g = Graph(range(4), [(2, 0), (0, 1), (0, 3)])
    assert g.neighbors(0) == (1, 2, 3)
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(1, 2)
    assert not g.has_edge(0, 99)
    assert not g.has_edge(99, 0)


def test_edges_canonical_order():
    rng = random.Random(3)
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8) if rng.random() < 0.4]
    rng.shuffle(pairs)
    flipped = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
    g = Graph(range(8), flipped)
    assert list(g.edges()) == sorted(tuple(sorted(p)) for p in set(pairs))


def test_ring_lattice_cycle():
    g = ring_lattice(5, 2)
    assert g.n_edges == 5
    assert all(g.degree(v) == 2 for v in g.nodes)


def test_ring_lattice_next_nearest():
    g = ring_lattice(6, 4)
    assert g.n_edges == 12
    assert all(g.degree(v) == 4 for v in g.nodes)


def test_neighbor_rows_are_sorted_positions_built_once():
    g = Graph(["c", "a", "b", "d"], [("a", "c"), ("b", "c"), ("d", "a")])
    assert g.neighbor_rows() == ((2, 3), (2,), (0, 1), (0,))
    assert g.neighbor_rows() is g.neighbor_rows()
    assert g.neighbor_sets() == [frozenset({2, 3}), frozenset({2}), frozenset({0, 1}), frozenset({0})]
    assert g.neighbor_sets() is not g.neighbor_sets()

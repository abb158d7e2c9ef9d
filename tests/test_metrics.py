import itertools
import math
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    complete_graph,
    cycle_graph,
    hanging_tree_graph,
    leafy_test_graph,
    random_test_graph,
    relabeled,
    star_graph,
    string_relabeled,
    undefined_reason,
)
from gridpanel import (
    AnnualSnapshot,
    Graph,
    as_graph,
    MetricUndefinedError,
    ParameterError,
    apsp_summary,
    average_degree,
    build_panel,
    clustering_coefficient,
    gen_erdos_renyi,
    gen_ring_lattice,
    gen_watts_strogatz,
    is_small_world,
    lattice_clustering,
    link_density,
    metric_panel,
    metric_row,
    modularity_of,
    omega_class,
    random_baselines,
    small_world_omega,
    small_world_sigma,
)
from gridpanel.metrics import METRIC_NAMES, PathSummary, RandomBaselines, _omega, _sigma


def path_graph(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


graph_strategy = st.builds(
    random_test_graph,
    st.randoms(use_true_random=False),
    st.integers(min_value=2, max_value=24),
    st.floats(min_value=0.0, max_value=0.6),
)


# -- density and degree ------------------------------------------------------


def test_density_path_four_nodes():
    assert link_density(path_graph(4)) == 0.5


def test_density_complete():
    assert link_density(complete_graph(4)) == 1.0


def test_density_sparse_panel_value():
    g = random_test_graph(random.Random(0), 20, 0.0)
    g = Graph(range(20), [(i, (i + 1) % 20) for i in range(20)] + [(i, (i + 5) % 20) for i in range(20)])
    assert g.n_edges == 40
    assert link_density(g) == 80 / 380


def test_density_needs_two_nodes():
    assert undefined_reason(link_density, Graph([0], [])) == "too_few_nodes"
    assert undefined_reason(link_density, Graph([], [])) == "too_few_nodes"


def test_average_degree_star():
    g = Graph(range(6), [(0, i) for i in range(1, 6)])
    assert average_degree(g) == 10 / 6


def test_average_degree_single_node():
    assert average_degree(Graph([0], [])) == 0.0


def test_average_degree_empty_graph_undefined():
    assert undefined_reason(average_degree, Graph([], [])) == "empty_graph"


def test_clustering_empty_graph_undefined():
    assert undefined_reason(clustering_coefficient, Graph([], [])) == "empty_graph"


def test_undefined_error_message_is_the_text_alone():
    with pytest.raises(MetricUndefinedError) as info:
        link_density(Graph([0], []))
    assert str(info.value) == "link density needs at least two nodes"
    assert info.value.args == ("link density needs at least two nodes",)
    copy = pickle.loads(pickle.dumps(info.value))
    assert (str(copy), copy.reason) == ("link density needs at least two nodes", "too_few_nodes")


# -- shortest paths ----------------------------------------------------------


def test_path_stats_three_chain():
    s = apsp_summary(path_graph(3))
    assert s.avg_path_length == 4 / 3
    assert s.diameter == 2
    assert s.efficiency == 5 / 6
    assert s.reachable_pair_fraction == 1.0


def test_path_stats_five_cycle():
    s = apsp_summary(cycle_graph(5))
    assert s.avg_path_length == 1.5
    assert s.diameter == 2
    assert s.efficiency == 0.75


def test_path_stats_disconnected_pairs_excluded():
    g = Graph(range(3), [(0, 1)])
    s = apsp_summary(g)
    assert s.avg_path_length == 1.0
    assert s.diameter == 1
    assert s.efficiency == pytest.approx(1 / 3)
    assert s.reachable_pair_fraction == pytest.approx(1 / 3)


def test_path_stats_no_edges():
    s = apsp_summary(Graph(range(4), []))
    assert s.avg_path_length is None
    assert s.diameter is None
    assert s.efficiency == 0.0
    assert s.reachable_pair_fraction == 0.0


def test_path_stats_need_two_nodes():
    assert undefined_reason(apsp_summary, Graph([0], [])) == "too_few_nodes"


def test_path_stats_match_dense_oracle():
    rng = random.Random(101)
    for _ in range(60):
        g = random_test_graph(rng, rng.randint(2, 40), rng.uniform(0.02, 0.4))
        want = oracles.path_stats(g)
        got = apsp_summary(g)
        if want[0] is None:
            assert got.avg_path_length is None and got.diameter is None
        else:
            assert got.avg_path_length == pytest.approx(want[0], abs=1e-12)
            assert got.diameter == want[1]
        assert got.efficiency == pytest.approx(want[2], abs=1e-12)
        assert got.reachable_pair_fraction == pytest.approx(want[3], abs=1e-12)
        assert got == oracles.path_summary_by_bfs(g)


def tuple_mesh_graph(side):
    # helpers.mesh_graph labelled by (row, column) tuples
    return Graph(
        [(r, c) for r in range(side) for c in range(side)],
        [((r, c), (r, c + 1)) for r in range(side) for c in range(side - 1)]
        + [((r, c), (r + 1, c)) for r in range(side - 1) for c in range(side)],
    )


def disconnected_union():
    # A 70-node path, a 50-node cycle, K5 and ten isolated nodes: 135 nodes.
    edges = [(i, i + 1) for i in range(69)]
    edges += [(70 + i, 70 + (i + 1) % 50) for i in range(50)]
    edges += [(a, b) for a in range(120, 125) for b in range(a + 1, 125)]
    return Graph(range(135), edges)


def string_labelled(graph, seed):
    names = [f"bus-{i:04d}" for i in range(graph.n_nodes)]
    random.Random(seed).shuffle(names)
    name = dict(zip(graph.nodes, names))
    return Graph(names, [(name[u], name[v]) for u, v in graph.edges()])


def isolated_first_union():
    # Node 0 is isolated, then a 6-node path, then the largest component,
    # a 150-node cycle with a 40-node tail, then a triangle: 200 nodes.
    edges = [(i, i + 1) for i in range(1, 6)]
    edges += [(7 + i, 7 + (i + 1) % 150) for i in range(150)]
    edges += [(156 + i, 157 + i) for i in range(40)]
    edges += [(197, 198), (198, 199), (197, 199)]
    return Graph(range(200), edges)


def mixed_diameter_union():
    # A 120-node path (diameter 119), K12 (diameter 1), a 9-cycle
    # (diameter 4) and a single edge, in that order: 143 nodes.
    edges = [(i, i + 1) for i in range(119)]
    edges += [(a, b) for a in range(120, 132) for b in range(a + 1, 132)]
    edges += [(132 + i, 132 + (i + 1) % 9) for i in range(9)]
    edges += [(141, 142)]
    return Graph(range(143), edges)


def long_armed_star(arms=5, length=30):
    # Centre 0 and ``arms`` paths of ``length`` nodes hanging off it.
    edges = []
    for a in range(arms):
        first = 1 + a * length
        edges.append((0, first))
        edges += [(first + i, first + i + 1) for i in range(length - 1)]
    return Graph(range(1 + arms * length), edges)


def caterpillar(spine=40):
    # A spine path whose node i carries i % 4 leaves.
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        for _ in range(i % 4):
            edges.append((i, nxt))
            nxt += 1
    return Graph(range(nxt), edges)


def forest_with_pairs():
    # Five isolated edges (no node of one is a leaf), a 3-star, a 5-path,
    # three isolated nodes and a star with 74 leaves: 97 nodes.
    edges = [(2 * i, 2 * i + 1) for i in range(5)]
    edges += [(10, 11), (10, 12), (10, 13)]
    edges += [(14 + i, 15 + i) for i in range(4)]
    edges += [(22, 23 + i) for i in range(74)]
    return Graph(range(97), edges)


def leafy_cycle(size=30):
    # A cycle whose even nodes each carry two leaves.
    edges = [(i, (i + 1) % size) for i in range(size)]
    edges += [(i, size + i + j) for i in range(0, size, 2) for j in (0, 1)]
    return Graph(range(2 * size), edges)


def paths_on_a_cycle(size, hung):
    # A cycle whose node i carries a path of k nodes, for each (i, k) in
    # ``hung``; a path of 3 or more nodes is a tall tree.
    edges = [(i, (i + 1) % size) for i in range(size)]
    nxt = size
    for i, k in hung:
        edges += [(i if j == 0 else nxt + j - 1, nxt + j) for j in range(k)]
        nxt += k
    return Graph(range(nxt), edges)


def spider(legs=(1, 2, 3, 5, 8, 13)):
    # Centre 0 with one path per entry of ``legs``, that many nodes long.
    edges, nxt = [], 1
    for length in legs:
        edges += [(0 if i == 0 else nxt + i - 1, nxt + i) for i in range(length)]
        nxt += length
    return Graph(range(nxt), edges)


def deep_branching_on_cycle():
    # An 8-cycle. Node 0 carries a complete binary tree of depth 4, which
    # branches at depths 1, 2 and 3; node 4 carries a 2-node stem that
    # forks into three 3-node paths, a first branching at depth 2.
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(0 if v == 8 else 8 + (v - 9) // 2, v) for v in range(8, 8 + 30)]
    edges += [(4, 38), (38, 39)]
    nxt = 40
    for _ in range(3):
        edges += [(39, nxt), (nxt, nxt + 1), (nxt + 1, nxt + 2)]
        nxt += 3
    return Graph(range(nxt), edges)


def adjacent_roots(size=10):
    # A cycle whose every node carries a 2-node path with a leaf on its
    # first node, so each root's neighbors on the cycle are roots too.
    edges = [(i, (i + 1) % size) for i in range(size)]
    for i in range(size):
        a, b, c = size + 3 * i, size + 3 * i + 1, size + 3 * i + 2
        edges += [(i, a), (a, b), (a, c)]
    return Graph(range(4 * size), edges)


def tree_larger_than_core():
    # A triangle; node 0 carries a 60-node tree in which node v joins
    # v // 3, node 1 a 20-node path.
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(0 if v == 3 else 3 + (v - 4) // 3, v) for v in range(3, 63)]
    edges += [(1 if v == 63 else v - 1, v) for v in range(63, 83)]
    return Graph(range(83), edges)


def disjoint_union(*parts):
    # The parts side by side on int nodes, each part's nodes numbered in
    # its own node order after those of the parts before it.
    nodes, edges = 0, []
    for part in parts:
        position = {v: nodes + k for k, v in enumerate(part.nodes)}
        edges += [(position[u], position[v]) for u, v in part.edges()]
        nodes += part.n_nodes
    return Graph(range(nodes), edges)


def trees_beside_a_core():
    # A leafy 12-cycle, then tree components: a 7-node path, the spider,
    # a 5-leaf star, an isolated edge and an isolated node.
    return disjoint_union(leafy_cycle(12), path_graph(7), spider(), star_graph(5), path_graph(2), Graph([0], []))


def heights_two_and_three():
    # A 6-cycle. Node 0 carries a tree of height exactly 2: two children,
    # one with two leaves. Node 3 carries one of height exactly 3: a path
    # of three nodes with a second leaf on its middle node.
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(0, 6), (0, 7), (6, 8), (6, 9)]
    edges += [(3, 10), (10, 11), (11, 12), (11, 13)]
    return Graph(range(14), edges)


def cores_isolated_nodes_and_trees():
    # An isolated node, a triangle carrying a 4-node path, a path, a
    # 5-cycle carrying a height-2 tree, two isolated nodes, the spider,
    # the height-2-and-3 cycle, K4 and the two-tall-path cycle.
    return disjoint_union(
        Graph([0], []),
        paths_on_a_cycle(3, ((1, 4),)),
        path_graph(6),
        paths_on_a_cycle(5, ((2, 2),)),
        Graph([0, 1], []),
        spider(),
        heights_two_and_three(),
        complete_graph(4),
        paths_on_a_cycle(9, ((0, 6), (4, 9))),
    )


APSP_CASES = {
    **{f"path{n}": path_graph(n) for n in (2, 3, 4)},
    **{f"star{k}": star_graph(k) for k in (2, 5, 70)},
    "caterpillar40": caterpillar(),
    "forest-pairs": forest_with_pairs(),
    "leafy-cycle30": leafy_cycle(),
    "isolated-and-star": Graph(range(9), [(0, 1), (0, 2), (0, 3)]),
    "ring65x2": as_graph(gen_ring_lattice(65, 2)),
    "ring130x4": as_graph(gen_ring_lattice(130, 4)),
    "ring257x2": as_graph(gen_ring_lattice(257, 2)),
    "path300": path_graph(300),
    "mesh20x20": tuple_mesh_graph(20),
    "union": disconnected_union(),
    "isolated-first": isolated_first_union(),
    "mixed-diameters": mixed_diameter_union(),
    "star5x30": long_armed_star(),
    **{f"er177-s{s}": as_graph(gen_erdos_renyi(177, 177, s)) for s in (1, 2, 3)},
    # Watts-Strogatz at k = 2 is a ring whose rewired links leave most
    # nodes in trees hung on a small 2-core.
    **{f"ws177-s{s}": as_graph(gen_watts_strogatz(177, 2, 0.1, s)) for s in (1, 2, 3)},
    # A cycle with a 100-node path on one node.
    "pendant-path100": paths_on_a_cycle(12, ((0, 100),)),
    "spider": spider(),
    "deep-branching": deep_branching_on_cycle(),
    "adjacent-roots": adjacent_roots(),
    # Every 2-core node is a root, with profiles of three depths.
    "paths-on-every-node30": paths_on_a_cycle(30, [(i, 1 + i % 3) for i in range(30)]),
    "tree-over-core": tree_larger_than_core(),
    "trees-beside-core": trees_beside_a_core(),
    "two-tall-paths": paths_on_a_cycle(9, ((0, 6), (4, 9))),
    # Tall roots 1 to 5 apart, one of them carrying a path exactly as
    # deep as the tall threshold.
    "tall-paths-1-to-5-apart": paths_on_a_cycle(10, ((0, 3), (1, 7), (4, 5), (9, 12))),
    "tall-in-two-components": disjoint_union(deep_branching_on_cycle(), paths_on_a_cycle(7, ((0, 5), (3, 10)))),
    "heights-two-and-three": heights_two_and_three(),
    # Two 2-cores whose own diameters are the graph's: the sweep ends
    # with a level at which no node gains a source.
    "cycle-triangle-isolated": disjoint_union(cycle_graph(6), Graph([0], []), complete_graph(3)),
    "cores-isolated-and-trees": cores_isolated_nodes_and_trees(),
    # 512 * 511 pairs at distance 2: a slot count near n**2
    "star512": star_graph(512),
}
APSP_CASES.update(
    {
        f"{name}-str": string_labelled(APSP_CASES[name], seed)
        for seed, name in enumerate(
            (
                "ring130x4",
                "union",
                "isolated-first",
                "mixed-diameters",
                "star5x30",
                "er177-s1",
                "ws177-s1",
                "path4",
                "star70",
                "caterpillar40",
                "forest-pairs",
                "leafy-cycle30",
                "isolated-and-star",
                "pendant-path100",
                "spider",
                "deep-branching",
                "adjacent-roots",
                "tree-over-core",
                "trees-beside-core",
                "star512",
                "paths-on-every-node30",
                "two-tall-paths",
                "tall-in-two-components",
                "heights-two-and-three",
                "cores-isolated-and-trees",
            ),
            start=5,
        )
    }
)


@pytest.mark.parametrize("graph", APSP_CASES.values(), ids=APSP_CASES.keys())
def test_path_summary_equals_per_source_bfs_past_word_boundaries(graph):
    assert apsp_summary(graph) == oracles.path_summary_by_bfs(graph)


# The thorough profile (tests/conftest.py) raises this for a deep run.
PATH_EXAMPLES = max(150, settings.default.max_examples)


@settings(max_examples=PATH_EXAMPLES, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(min_value=2, max_value=90), st.integers(min_value=0, max_value=6))
def test_path_summary_equals_per_source_bfs_on_leafy_sparse_graphs(rng, n, extra):
    g = leafy_test_graph(rng, n, extra)
    assert apsp_summary(g) == oracles.path_summary_by_bfs(g)


@settings(max_examples=PATH_EXAMPLES, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=3, max_value=30),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=20),
)
def test_path_summary_equals_per_source_bfs_on_trees_hung_on_a_2_core(rng, core_size, chords, hung, forest):
    g = hanging_tree_graph(rng, core_size, chords, hung, forest)
    assert apsp_summary(g) == oracles.path_summary_by_bfs(g)


# (core_size, chords, hung, forest) of one hanging_tree_graph
TREE_SHAPES = st.tuples(
    st.integers(min_value=3, max_value=20),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10),
)


@settings(max_examples=PATH_EXAMPLES, deadline=None)
@given(st.randoms(use_true_random=False), TREE_SHAPES, TREE_SHAPES)
def test_path_summary_equals_per_source_bfs_on_two_hanging_tree_graphs(rng, first, second):
    # Tall trees in two components, whose roots must never meet.
    g = disjoint_union(hanging_tree_graph(rng, *first), hanging_tree_graph(rng, *second))
    assert apsp_summary(g) == oracles.path_summary_by_bfs(g)


# -- clustering --------------------------------------------------------------


def test_clustering_complete_and_tree():
    assert clustering_coefficient(complete_graph(4)) == 1.0
    assert clustering_coefficient(path_graph(5)) == 0.0


def test_clustering_diamond():
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert clustering_coefficient(g) == 5 / 6


def test_clustering_triangle_with_pendant():
    g = Graph(range(4), [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert clustering_coefficient(g) == 7 / 12
    assert clustering_coefficient(g, skip_low_degree=True) == 7 / 9


def test_clustering_all_low_degree():
    g = Graph(range(4), [(0, 1), (2, 3)])
    assert clustering_coefficient(g) == 0.0
    assert clustering_coefficient(g, skip_low_degree=True) == 0.0


def test_clustering_matches_pair_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        base = random_test_graph(rng, rng.randint(2, 35), rng.uniform(0.05, 0.5))
        for g in (base, string_relabeled(base)[0]):
            for skip in (False, True):
                got = clustering_coefficient(g, skip_low_degree=skip)
                assert got == pytest.approx(oracles.clustering(g, skip_low_degree=skip), abs=1e-12)
                assert got == oracles.clustering_by_node_fractions(g, skip_low_degree=skip)


@pytest.mark.parametrize(
    "graph",
    [
        *(as_graph(gen_ring_lattice(n, m)) for n, m in ((3, 2), (20, 4), (65, 6), (177, 2), (200, 10))),
        tuple_mesh_graph(20),
        as_graph(gen_watts_strogatz(177, 4, 0.1, 3)),
    ],
    ids=["ring3x2", "ring20x4", "ring65x6", "ring177x2", "ring200x10", "mesh20x20", "ws177x4"],
)
def test_clustering_equals_per_node_fractions(graph):
    for g in (graph, relabeled(graph, random.Random(8))[0], string_labelled(graph, 9)):
        for skip in (False, True):
            assert clustering_coefficient(g, skip_low_degree=skip) == oracles.clustering_by_node_fractions(
                g, skip_low_degree=skip
            )


@given(graph_strategy)
def test_property_clustering_equals_the_oracle(graph):
    for skip in (False, True):
        assert clustering_coefficient(graph, skip_low_degree=skip) == oracles.clustering_by_node_fractions(
            graph, skip_low_degree=skip
        )


# -- reference values --------------------------------------------------------


def test_random_reference_values():
    ref = random_baselines(100, 4.0)
    assert ref.clustering_random == 0.04
    assert ref.path_length_random == pytest.approx(
        (math.log(100) - 0.5772) / math.log(4.0) + 0.5, abs=1e-15
    )
    assert ref.path_length_random == pytest.approx(3.4055, abs=1e-4)


def test_random_reference_guards():
    assert undefined_reason(random_baselines, 1, 4.0) == "too_few_nodes"
    # too few nodes wins over a low average degree
    assert undefined_reason(random_baselines, 1, 0.0) == "too_few_nodes"
    assert undefined_reason(random_baselines, 100, 1.0) == "avg_degree_not_above_one"
    assert undefined_reason(random_baselines, 100, 0.5) == "avg_degree_not_above_one"


@pytest.mark.parametrize("avg_degree", [math.nan, math.inf, -math.inf, True, False])
@pytest.mark.parametrize("n_nodes", [1, 10])
def test_non_finite_average_degree_rejected(n_nodes, avg_degree):
    # random_baselines(10, nan) returned (nan, nan) and (10, inf) returned
    # (inf, 0.5); the lattice raised a bare ValueError or OverflowError,
    # and lattice_clustering(10, True) returned 0.0 as for degree 1.
    with pytest.raises(ParameterError, match="avg_degree"):
        random_baselines(n_nodes, avg_degree)
    with pytest.raises(ParameterError, match="avg_degree"):
        lattice_clustering(n_nodes, avg_degree)


def test_lattice_clustering_reference_points():
    assert lattice_clustering(20, 4.0) == 0.5
    assert lattice_clustering(200, 6.0) == 0.6
    # half of 5 rounds up, to coordination 6
    assert lattice_clustering(200, 5.0) == 0.6
    # coordination is capped at the largest feasible even value
    assert lattice_clustering(4, 3.0) == 0.0
    assert undefined_reason(lattice_clustering, 2, 2.0) == "too_few_nodes"


def test_lattice_clustering_matches_constructed_ring():
    # Every even coordination from 0 up past the cap, so the floor at 2
    # and the cap at what the ring can host are both exercised.
    for n in range(3, 61):
        cap = n - 1 if n % 2 else n - 2
        for m in range(0, n + 3, 2):
            built = clustering_coefficient(gen_ring_lattice(n, min(max(m, 2), cap)))
            assert lattice_clustering(n, float(m)) == built, (n, m)


# -- small-world scores ------------------------------------------------------


def test_sigma_zero_for_tree():
    g = path_graph(30)
    assert small_world_sigma(g) == 0.0
    assert not is_small_world(0.0)


def test_sigma_above_one_for_rewired_lattice():
    g = gen_watts_strogatz(100, 4, 0.1, seed=3)
    sigma = small_world_sigma(g)
    assert sigma > 1.0
    assert is_small_world(sigma)


def test_sigma_needs_mean_degree_above_one():
    assert undefined_reason(small_world_sigma, Graph(range(4), [(0, 1)])) == "avg_degree_not_above_one"
    assert undefined_reason(small_world_omega, Graph(range(4), [(0, 1)])) == "avg_degree_not_above_one"


def test_sigma_and_omega_need_a_reachable_pair():
    # unreachable through the public scores, whose baselines need an edge
    unreachable = PathSummary(None, None, 0.0, 0.0)
    base = RandomBaselines(0.5, 2.0)
    assert undefined_reason(_sigma, unreachable, 0.0, base) == "no_reachable_pairs"
    assert undefined_reason(_omega, unreachable, 0.0, 0.5, base) == "no_reachable_pairs"


def test_omega_needs_lattice_clustering_unless_both_are_zero():
    # a triangle with a pendant: the matched 4-node ring has no triangle
    g = Graph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert undefined_reason(small_world_omega, g) == "lattice_clustering_zero"
    # a 4-cycle: both clusterings are zero, so the ratio is taken as zero
    ring = cycle_graph(4)
    want = random_baselines(4, 2.0).path_length_random / apsp_summary(ring).avg_path_length
    assert small_world_omega(ring).raw == want


def test_omega_ring_is_lattice_like():
    from gridpanel import gen_ring_lattice

    omega = small_world_omega(gen_ring_lattice(100, 4))
    assert omega.value < 0
    assert omega_class(omega.value) in ("lattice_like", "small_world")
    assert omega.value >= -1.0


def test_omega_clamped_and_raw_kept():
    rng = random.Random(5)
    for _ in range(40):
        g = random_test_graph(rng, rng.randint(5, 30), rng.uniform(0.1, 0.5))
        try:
            omega = small_world_omega(g)
        except MetricUndefinedError:
            continue
        assert -1.0 <= omega.value <= 1.0
        if -1.0 <= omega.raw <= 1.0:
            assert omega.value == omega.raw


def test_omega_class_banding():
    assert omega_class(0.9) == "random_like"
    assert omega_class(0.7) == "random_like"
    assert omega_class(-0.9) == "lattice_like"
    assert omega_class(-0.7) == "lattice_like"
    assert omega_class(0.0) == "small_world"
    assert omega_class(0.69) == "small_world"
    assert omega_class(-0.69) == "small_world"


# -- invariance properties ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(graph_strategy, st.randoms(use_true_random=False))
def test_metrics_invariant_under_relabeling(g, rng):
    h, mapping = relabeled(g, rng)
    assert link_density(h) == link_density(g)
    assert average_degree(h) == average_degree(g)
    a, b = apsp_summary(g), apsp_summary(h)
    assert a == b
    for skip in (False, True):
        assert clustering_coefficient(g, skip_low_degree=skip) == clustering_coefficient(
            h, skip_low_degree=skip
        )
    if g.n_edges:
        assignment = {v: i % 3 for i, v in enumerate(g.nodes)}
        moved = {mapping[v]: c for v, c in assignment.items()}
        assert modularity_of(g, assignment) == modularity_of(h, moved)


@settings(max_examples=40, deadline=None)
@given(graph_strategy, st.randoms(use_true_random=False))
def test_adding_an_edge_never_lowers_efficiency(g, rng):
    missing = [
        (a, b)
        for i, a in enumerate(g.nodes)
        for b in g.nodes[i + 1 :]
        if not g.has_edge(a, b)
    ]
    if not missing:
        return
    extra = rng.choice(missing)
    grown = Graph(g.nodes, list(g.edges()) + [extra])
    assert apsp_summary(grown).efficiency >= apsp_summary(g).efficiency - 1e-15
    assert apsp_summary(grown).reachable_pair_fraction >= apsp_summary(g).reachable_pair_fraction


@settings(max_examples=30, deadline=None)
@given(graph_strategy)
def test_metric_ranges(g):
    assert 0.0 <= link_density(g) <= 1.0
    assert 0.0 <= clustering_coefficient(g) <= 1.0
    s = apsp_summary(g)
    if s.avg_path_length is not None:
        assert s.diameter >= s.avg_path_length >= 1.0
    assert 0.0 <= s.efficiency <= 1.0
    assert 0.0 <= s.reachable_pair_fraction <= 1.0


# -- per-year rows -----------------------------------------------------------


def snap(year, graph):
    return AnnualSnapshot(year=year, voltage_floor_kv=0, graph=graph)


def test_metric_row_reports_reasons_for_undefined():
    empty = metric_row(snap(1950, Graph([], [])))
    assert empty.n_nodes == 0
    assert empty.density is None
    assert empty.reasons["density"] == "empty_graph"
    lone = metric_row(snap(1951, Graph([0], [])))
    assert lone.avg_degree == 0.0
    assert lone.reasons["density"] == "too_few_nodes"
    edgeless = metric_row(snap(1952, Graph(range(3), [])))
    assert edgeless.density == 0.0
    assert edgeless.modularity is None
    assert edgeless.reasons["modularity"] == "no_edges"
    assert edgeless.avg_path_length is None
    assert edgeless.reasons["avg_path_length"] == "no_reachable_pairs"
    # the lattice needs three nodes, the baselines an average degree above
    # one: sigma and omega take the baselines' code
    pair = metric_row(snap(1953, Graph(range(2), [(0, 1)])))
    assert pair.reasons["clustering_lattice"] == "too_few_nodes"
    for name in ("clustering_random", "path_length_random", "sigma", "omega", "omega_raw"):
        assert pair.reasons[name] == "avg_degree_not_above_one", name


def every_labelled_graph(max_nodes):
    for n in range(max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(range(n), [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def test_metric_row_reasons_equal_the_rule_chain_on_every_small_graph():
    seen = Counter()
    graphs = 0
    for graph in every_labelled_graph(5):
        row = metric_row(snap(2000, graph))
        assert row.reasons == oracles.reasons_by_rule(graph), graph.edges()
        for name in METRIC_NAMES:
            assert (getattr(row, name) is None) == (name in row.reasons), (graph.edges(), name)
        seen.update(row.reasons.values())
        graphs += 1
    assert graphs == 1 + 1 + 2 + 8 + 64 + 1024
    assert set(seen) == {
        "empty_graph",
        "too_few_nodes",
        "no_edges",
        "no_reachable_pairs",
        "avg_degree_not_above_one",
        "lattice_clustering_zero",
    }


def test_metric_row_sparse_graph_skips_small_world_scores():
    row = metric_row(snap(1953, Graph(range(4), [(0, 1)])))
    assert row.sigma is None
    assert row.reasons["sigma"] == "avg_degree_not_above_one"


def test_metric_row_complete_fields_on_dense_graph():
    row = metric_row(snap(1990, as_graph(gen_watts_strogatz(60, 4, 0.1, seed=9))))
    for name in METRIC_NAMES:
        assert getattr(row, name) is not None, name
    assert row.reasons == {}
    d = row.as_dict()
    assert set(d) == set(METRIC_NAMES)
    assert d["sigma"] == row.sigma


def test_metric_row_scores_equal_public_scores_exactly():
    rng = random.Random(17)
    graphs = [random_test_graph(rng, rng.randint(2, 30), rng.uniform(0.02, 0.5)) for _ in range(60)]
    graphs += [
        as_graph(gen_watts_strogatz(60, 4, 0.1, seed=9)),
        as_graph(gen_erdos_renyi(50, 120, seed=4)),
        as_graph(gen_ring_lattice(40, 6)),
        path_graph(25),
        Graph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]),  # triangle on a 2-lattice
    ]
    outcomes = set()
    for graph in graphs:
        row = metric_row(snap(2000, graph))
        try:
            sigma = small_world_sigma(graph)
        except MetricUndefinedError:
            assert row.sigma is None and row.reasons["sigma"]
            outcomes.add("sigma undefined")
        else:
            assert row.sigma == sigma
            outcomes.add("sigma")
        try:
            omega = small_world_omega(graph)
        except MetricUndefinedError:
            assert row.omega is None and row.omega_raw is None
            assert row.reasons["omega"] and row.reasons["omega_raw"]
            outcomes.add(row.reasons["omega"])
        else:
            assert (row.omega, row.omega_raw) == (omega.value, omega.raw)
            outcomes.add("omega")
    assert outcomes >= {"sigma", "sigma undefined", "omega", "lattice_clustering_zero", "avg_degree_not_above_one"}


def test_metric_panel_over_fixture(country_records):
    snaps = build_panel(country_records, voltage_floor_kv=220)
    rows = metric_panel(snaps, seed=11)
    assert [r.year for r in rows] == [s.year for s in snaps]
    for row, snap in zip(rows, snaps):
        assert row.n_nodes == snap.n_nodes
        assert row.n_edges == snap.n_edges
        if row.avg_path_length is not None:
            assert row.diameter >= row.avg_path_length
        if row.density is not None:
            assert 0.0 <= row.density <= 1.0
        if row.modularity is not None:
            assert -0.5 <= row.modularity <= 1.0
        for name in METRIC_NAMES:
            if getattr(row, name) is None:
                assert row.reasons[name]


def test_metric_panel_deterministic(country_records):
    snaps = build_panel(country_records, voltage_floor_kv=220)
    first = metric_panel(snaps, seed=11)
    second = metric_panel(snaps, seed=11)
    assert first == second


def test_metric_panel_rejects_empty():
    with pytest.raises(ParameterError):
        metric_panel([])

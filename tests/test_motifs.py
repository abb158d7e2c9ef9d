import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import (
    complete_graph,
    cycle_graph,
    make_edge,
    make_node,
    mesh_graph,
    random_test_graph,
    small_record_sets,
    star_graph,
    string_relabeled,
)
from gridpanel import (
    Graph,
    ParameterError,
    build_record_set,
    count_four_cycles,
    count_stars,
    count_triangles,
    motif_counts,
    motif_shares,
    year_snapshots,
)
from gridpanel import motifs as motifs_module
from gridpanel.config import STAR_VARIANTS
from gridpanel.graph import ring_lattice
from gridpanel.motifs import MOTIF_NAMES, carried_motif_counts
from gridpanel.records import year_changes


DIAMOND = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# -- triangles ---------------------------------------------------------------


def test_triangle_counts():
    assert count_triangles(cycle_graph(3)) == 1
    assert count_triangles(Graph(range(4), [(0, 1), (1, 2), (2, 3)])) == 0
    assert count_triangles(complete_graph(4)) == 4
    assert count_triangles(complete_graph(5)) == 10
    assert count_triangles(DIAMOND) == 2


# -- four-cycles -------------------------------------------------------------


def test_four_cycle_plain_square():
    assert count_four_cycles(cycle_graph(4), chordless_only=False) == 1
    assert count_four_cycles(cycle_graph(4), chordless_only=True) == 1


def test_four_cycle_complete_graph():
    assert count_four_cycles(complete_graph(4), chordless_only=False) == 3
    assert count_four_cycles(complete_graph(4), chordless_only=True) == 0


def test_four_cycle_diamond():
    assert count_four_cycles(DIAMOND, chordless_only=False) == 1
    assert count_four_cycles(DIAMOND, chordless_only=True) == 0


def test_four_cycle_five_ring():
    assert count_four_cycles(cycle_graph(5), chordless_only=False) == 0


# -- stars -------------------------------------------------------------------


def test_claw_is_one_three_star():
    claw = star_graph(3)
    assert count_stars(claw, 3, variant="subgraph") == 1
    assert count_stars(claw, 3, variant="induced") == 1


def test_complete_graph_three_stars():
    k4 = complete_graph(4)
    assert count_stars(k4, 3, variant="subgraph") == 4
    assert count_stars(k4, 3, variant="induced") == 0


def test_cycle_has_no_three_stars():
    assert count_stars(cycle_graph(5), 3, variant="subgraph") == 0


def test_four_star_counts():
    s4 = star_graph(4)
    assert count_stars(s4, 4, variant="subgraph") == 1
    assert count_stars(s4, 4, variant="induced") == 1
    assert count_stars(s4, 3, variant="subgraph") == 4
    assert count_stars(s4, 3, variant="induced") == 4


def test_star_validation():
    g = star_graph(3)
    with pytest.raises(ParameterError):
        count_stars(g, 0, variant="subgraph")
    with pytest.raises(ParameterError):
        count_stars(g, 3, variant="maximal")


# -- bundle and shares -------------------------------------------------------


def test_motif_counts_bundle():
    counts = motif_counts(complete_graph(4), chordless_only=False, variant="subgraph")
    assert counts.as_dict() == {
        "triangle": 4,
        "four_cycle": 3,
        "three_star": 4,
        "four_star": 0,
    }
    assert counts.total == 11


def test_shares_triangle_plus_claw():
    g = Graph(range(7), [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6)])
    shares = motif_shares(motif_counts(g, chordless_only=True, variant="subgraph"))
    assert shares.triangle == 0.5
    assert shares.three_star == 0.5
    assert shares.four_cycle == 0.0
    assert shares.four_star == 0.0
    assert shares.total == 2


def test_shares_zero_total_flagged():
    shares = motif_shares(motif_counts(Graph(range(3), [(0, 1)]), chordless_only=True, variant="subgraph"))
    assert shares.total == 0
    assert shares.as_dict() == {name: 0.0 for name in MOTIF_NAMES}


def test_shares_sum_to_one_when_any_motif_exists():
    rng = random.Random(60)
    seen = 0
    for _ in range(30):
        g = random_test_graph(rng, rng.randint(4, 16), rng.uniform(0.2, 0.6))
        for chordless in (False, True):
            for variant in ("subgraph", "induced"):
                shares = motif_shares(motif_counts(g, chordless_only=chordless, variant=variant))
                if shares.total:
                    seen += 1
                    assert sum(shares.as_dict().values()) == pytest.approx(1.0, abs=1e-12)
    assert seen > 20


def test_shares_invariant_under_disjoint_duplication():
    rng = random.Random(61)
    for _ in range(10):
        g = random_test_graph(rng, rng.randint(4, 10), 0.5)
        offset = g.n_nodes
        doubled = Graph(
            list(g.nodes) + [v + offset for v in g.nodes],
            list(g.edges()) + [(u + offset, v + offset) for u, v in g.edges()],
        )
        one = motif_shares(motif_counts(g, chordless_only=True, variant="subgraph"))
        two = motif_shares(motif_counts(doubled, chordless_only=True, variant="subgraph"))
        assert two.total == 2 * one.total
        if one.total:
            assert one.as_dict() == two.as_dict()


# -- exhaustive oracle -------------------------------------------------------


def test_counts_match_subset_enumeration():
    rng = random.Random(777)
    for _ in range(25):
        base = random_test_graph(rng, rng.randint(4, 11), rng.uniform(0.2, 0.7))
        for g in (base, string_relabeled(base)[0]):
            assert count_triangles(g) == oracles.triangles_by_subsets(g)
            for chordless in (False, True):
                assert count_four_cycles(g, chordless_only=chordless) == oracles.four_cycles_by_subsets(
                    g, chordless
                )
            for leaves in (1, 2, 3, 4, 5):
                for variant in ("subgraph", "induced"):
                    assert count_stars(g, leaves, variant=variant) == oracles.stars_by_subsets(
                        g, leaves, variant
                    )


def complete_bipartite(a, b, *extra):
    return Graph(range(a + b), [(i, a + j) for i in range(a) for j in range(b)] + list(extra))


def disjoint_union():
    # K5, a 4-cycle, a diamond with a pendant, a 4-star and six isolated nodes.
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    edges += [(5, 6), (6, 7), (7, 8), (8, 5)]
    edges += [(9, 10), (9, 11), (9, 12), (10, 11), (10, 12), (12, 13)]
    edges += [(14, 15), (14, 16), (14, 17), (14, 18)]
    return Graph(range(25), edges)


LARGER_GRAPHS = {
    "mesh20x20": mesh_graph(20),
    "ring60x4": ring_lattice(60, 4),
    "ring61x6": ring_lattice(61, 6),
    "k44": complete_bipartite(4, 4),
    "k44-chord": complete_bipartite(4, 4, (0, 1)),
    "sparse300": random_test_graph(random.Random(5), 300, 0.02),
    "union": disjoint_union(),
}


@pytest.mark.parametrize("name", sorted(LARGER_GRAPHS))
def test_counts_match_edge_and_wedge_oracles_on_larger_graphs(name):
    base = LARGER_GRAPHS[name]
    for g in (base, string_relabeled(base)[0]):
        assert count_triangles(g) == oracles.triangles_by_edge_intersections(g)
        for chordless in (False, True):
            assert count_four_cycles(g, chordless_only=chordless) == oracles.four_cycles_by_wedge_pairs(
                g, chordless
            )
        for leaves in (1, 2, 3, 4, 5):
            for variant in ("subgraph", "induced"):
                assert count_stars(g, leaves, variant=variant) == oracles.stars_by_neighbour_subsets(
                    g, leaves, variant
                )


def test_larger_graph_counts_by_hand():
    mesh = LARGER_GRAPHS["mesh20x20"]
    assert (count_triangles(mesh), count_four_cycles(mesh, chordless_only=True)) == (0, 19 * 19)
    # In the (60, 4) ring each i, i+1, i+2 is a triangle and each window
    # i..i+3 (K4 less the edge i, i+3) holds one 4-cycle, chorded by i+1, i+2.
    ring = LARGER_GRAPHS["ring60x4"]
    assert count_triangles(ring) == 60
    assert (count_four_cycles(ring, chordless_only=False), count_four_cycles(ring, chordless_only=True)) == (60, 0)
    # The chord 0-1 closes 4 triangles and spoils the 6 squares with diagonal 0-1.
    for name, triangles, chordless in (("k44", 0, 36), ("k44-chord", 4, 30)):
        g = LARGER_GRAPHS[name]
        assert count_triangles(g) == triangles
        assert count_four_cycles(g, chordless_only=False) == 36
        assert count_four_cycles(g, chordless_only=True) == chordless
    sparse = LARGER_GRAPHS["sparse300"]
    assert count_triangles(sparse) > 0 and count_four_cycles(sparse, chordless_only=True) > 0


# The thorough profile (tests/conftest.py) raises this for a deep run.
ORACLE_EXAMPLES = max(30, settings.default.max_examples)


@settings(max_examples=ORACLE_EXAMPLES, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=4, max_value=9),
    st.floats(min_value=0.1, max_value=0.8),
)
def test_property_counts_match_oracle(rng, n, p):
    g = random_test_graph(rng, n, p)
    assert count_triangles(g) == oracles.triangles_by_subsets(g)
    assert count_four_cycles(g, chordless_only=True) == oracles.four_cycles_by_subsets(g, True)
    for leaves in (1, 2, 3, 4, 5):
        for variant in STAR_VARIANTS:
            assert count_stars(g, leaves, variant=variant) == oracles.stars_by_subsets(g, leaves, variant)


def test_motif_counts_carry_snapshot_year(country_records):
    from gridpanel import snapshot_at

    snap = snapshot_at(country_records, 1990, voltage_floor_kv=220)
    counts = motif_counts(snap, chordless_only=True, variant="subgraph")
    assert counts.year == 1990


def assert_bundle_matches_kernels(g):
    for chordless in (True, False):
        counts = motif_counts(g, chordless_only=chordless)
        assert counts.triangles == count_triangles(g)
        assert counts.four_cycles == count_four_cycles(g, chordless_only=chordless)
        assert counts.chordless_only is chordless


@pytest.mark.parametrize("name", sorted(LARGER_GRAPHS))
def test_motif_counts_equal_the_single_kernels(name):
    assert_bundle_matches_kernels(LARGER_GRAPHS[name])


def test_motif_counts_equal_the_single_kernels_on_fixture_years(country_records):
    for snap in year_snapshots(country_records, voltage_floor_kv=0):
        assert_bundle_matches_kernels(snap)


@settings(max_examples=30, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(min_value=4, max_value=12),
    st.floats(min_value=0.1, max_value=0.8),
)
def test_property_motif_counts_equal_the_single_kernels(rng, n, p):
    assert_bundle_matches_kernels(random_test_graph(rng, n, p))


def test_motif_counts_builds_one_wedge_count_per_snapshot(monkeypatch, country_records):
    calls = []
    wedges = motifs_module._wedges
    monkeypatch.setattr(motifs_module, "_wedges", lambda rows: calls.append(rows) or wedges(rows))
    snapshots = list(year_snapshots(country_records, voltage_floor_kv=0))
    for snap in snapshots:
        motif_counts(snap, chordless_only=True, variant="induced")
    assert calls == [snap.graph.neighbor_rows() for snap in snapshots]


def test_induced_stars_enumerate_each_centre_once(monkeypatch):
    # A ring of 30 stations, each linked to the two on either side, so
    # every station has degree 4 or more. In 2001 the chord S00-S15 is
    # added: two changed stations of 30, so that year is carried.
    nodes = [make_node(f"S{i:02d}", 2000) for i in range(30)]
    edges = [make_edge(f"r{i}-{k}", f"S{i:02d}", f"S{(i + k) % 30:02d}", 2000) for i in range(30) for k in (1, 2)]
    records = build_record_set(nodes, [*edges, make_edge("x", "S00", "S15", 2001)], dataset_end=2001)
    calls = []
    real = motifs_module._independent_subsets
    monkeypatch.setattr(
        motifs_module,
        "_independent_subsets",
        lambda pool, rows, found: calls.append(pool) or real(pool, rows, found),
    )
    first, carried = year_snapshots(records)
    recounted = motif_counts(carried, variant="induced")
    assert calls == list(carried.graph.neighbor_rows())
    census = carried_motif_counts(year_changes(records), variant="induced")
    next(census)
    calls.clear()
    assert next(census) == recounted
    # The carried year reads each centre once in each graph: the changed
    # stations and their neighbours.
    centres = {"S00", "S15", *carried.graph.neighbors("S00"), *carried.graph.neighbors("S15")}
    expected = [snap.graph.neighbor_rows()[at] for snap in (first, carried) for at in snap.graph.positions(centres)]
    assert sorted(calls) == sorted(expected)


def test_induced_stars_leave_no_cyclic_garbage():
    # The commands pause the cyclic collector, so a kernel must not leave
    # reference cycles behind.
    g = LARGER_GRAPHS["sparse300"]
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        motif_counts(g, variant="induced")
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


# -- the census carried along the year sweep -----------------------------------


def assert_census_matches(records, start, end, floor, chordless, variant):
    # Under the module's recount rule, and with RECOUNT_SHARE 0, which
    # carries every year with a station, the first one too. The census and
    # motif_counts share their kernels, so each year is also checked
    # against the edge, wedge and neighbour-subset oracles.
    snapshots = list(year_snapshots(records, start, end, floor))
    expected = [motif_counts(snap, chordless_only=chordless, variant=variant) for snap in snapshots]
    for snap, counts in zip(snapshots, expected):
        g = snap.graph
        assert counts[1:5] == (
            oracles.triangles_by_edge_intersections(g),
            oracles.four_cycles_by_wedge_pairs(g, chordless),
            oracles.stars_by_neighbour_subsets(g, 3, variant),
            oracles.stars_by_neighbour_subsets(g, 4, variant),
        ), snap.year
    for share in (motifs_module.RECOUNT_SHARE, 0):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(motifs_module, "RECOUNT_SHARE", share)
            census = carried_motif_counts(
                year_changes(records, start, end, floor), chordless_only=chordless, variant=variant
            )
            assert list(census) == expected, share


@pytest.mark.parametrize("variant", STAR_VARIANTS)
@pytest.mark.parametrize("chordless", [True, False])
@pytest.mark.parametrize("floor", [0, 220, 400])
def test_census_equals_motif_counts_on_the_fixtures(
    country_records, planted_records, churned_records, floor, chordless, variant
):
    for records in (country_records, planted_records, churned_records):
        assert_census_matches(records, records.dataset_start, records.dataset_end, floor, chordless, variant)


# The thorough profile (tests/conftest.py) raises this for a deep run.
CENSUS_EXAMPLES = max(60, settings.default.max_examples)


@settings(max_examples=CENSUS_EXAMPLES, deadline=None)
@given(
    small_record_sets(),
    st.sampled_from((0, 220, 400)),
    st.integers(2000, 2010),
    st.integers(0, 10),
    st.booleans(),
    st.sampled_from(STAR_VARIANTS),
)
def test_property_census_equals_motif_counts(records, floor, start, length, chordless, variant):
    assert_census_matches(records, start, min(start + length, 2010), floor, chordless, variant)


def test_census_recounts_a_year_once_its_changes_reach_the_share(monkeypatch):
    # A ring of 24 stations with chords. In 2001 one chord is added: two
    # changed stations, 2 * 12 = 24 of 24, so the year is recounted. In
    # 2002 station 24 joins and links to station 0: two changed stations
    # of 25, so the year is carried, as is 2003, which changes nothing.
    assert motifs_module.RECOUNT_SHARE == 12
    nodes = [make_node(f"S{i:02d}", 2000) for i in range(24)] + [make_node("S24", 2002)]
    edges = [make_edge(f"r{i}", f"S{i:02d}", f"S{(i + 1) % 24:02d}", 2000) for i in range(24)]
    edges += [make_edge(f"c{i}", f"S{i:02d}", f"S{i + 2:02d}", 2000) for i in range(0, 20, 4)]
    edges += [make_edge("x", "S05", "S07", 2001), make_edge("y", "S24", "S00", 2002)]
    records = build_record_set(nodes, edges, dataset_end=2003)
    recounted = []
    recount = motifs_module.motif_counts
    monkeypatch.setattr(motifs_module, "motif_counts", lambda g, **kw: recounted.append(g.year) or recount(g, **kw))
    for chordless in (True, False):
        for variant in STAR_VARIANTS:
            recounted.clear()
            census = list(carried_motif_counts(year_changes(records), chordless_only=chordless, variant=variant))
            assert recounted == [2000, 2001]
            expected = [recount(snap, chordless_only=chordless, variant=variant) for snap in year_snapshots(records)]
            assert census == expected
    assert [len(touched) for _, touched in year_changes(records)] == [24, 2, 2, 0]


def test_census_checks_the_variant_on_the_call():
    with pytest.raises(ParameterError, match="variant must be one of"):
        carried_motif_counts(iter(()), variant="nope")

import itertools
import math
import os
import statistics

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from gridpanel import (
    ParameterError,
    RunConfig,
    as_graph,
    apsp_summary,
    clustering_coefficient,
    efficiency_comparison,
    gen_erdos_renyi,
    gen_ring_lattice,
    gen_watts_strogatz,
)
from gridpanel import cli, generators
from gridpanel.generators import BaselineSpec, _summarize
from gridpanel.graph import Graph


# -- ring lattice ------------------------------------------------------------


def test_ring_lattice_basic_shapes():
    five = as_graph(gen_ring_lattice(5, 2))
    assert five.n_edges == 5
    assert all(five.degree(v) == 2 for v in five.nodes)
    six = as_graph(gen_ring_lattice(6, 4))
    assert six.n_edges == 12
    assert all(six.degree(v) == 4 for v in six.nodes)


def test_ring_lattice_clustering_reference():
    g = gen_ring_lattice(20, 4)
    assert clustering_coefficient(g) == 0.5


def test_ring_lattice_validation():
    for n, m in ((5, 3), (5, 0), (5, 5), (4, 6), (2, 2)):
        with pytest.raises(ParameterError):
            gen_ring_lattice(n, m)


# -- Erdos-Renyi -------------------------------------------------------------


def test_er_exact_edge_count():
    for n, e in ((10, 0), (10, 45), (30, 100), (2, 1)):
        g = gen_erdos_renyi(n, e, seed=4)
        assert g.n_nodes == n
        assert g.n_edges == e


def test_er_seed_determinism():
    a = as_graph(gen_erdos_renyi(25, 60, seed=9))
    b = as_graph(gen_erdos_renyi(25, 60, seed=9))
    c = as_graph(gen_erdos_renyi(25, 60, seed=10))
    assert a.edges() == b.edges()
    assert a.edges() != c.edges()


def test_er_bounds_validated():
    with pytest.raises(ParameterError):
        gen_erdos_renyi(5, 11, seed=1)
    with pytest.raises(ParameterError):
        gen_erdos_renyi(5, -1, seed=1)
    with pytest.raises(ParameterError):
        gen_erdos_renyi(0, 0, seed=1)


def test_pair_unranking_matches_lexicographic_order():
    for n in range(2, 9):
        expected = list(itertools.combinations(range(n), 2))
        got = [oracles.pair_at(i, n) for i in range(math.comb(n, 2))]
        assert got == expected


def storage(graph) -> tuple:
    return graph.nodes, graph._index, graph.neighbor_rows()


def test_er_rows_match_pairs_unranked_one_at_a_time():
    cases = [(n, e, seed) for n in range(1, 13) for e in range(0, math.comb(n, 2) + 1, 3) for seed in range(3)]
    cases += [(60, 120, 1), (97, 300, 5), (200, 400, 11), (40, 780, 2)]
    for n, e, seed in cases:
        got = as_graph(gen_erdos_renyi(n, e, seed))
        assert storage(got) == storage(oracles.erdos_renyi_by_unranking(n, e, seed)), (n, e, seed)


# -- Watts-Strogatz ----------------------------------------------------------


def test_ws_zero_probability_is_the_lattice():
    ws = as_graph(gen_watts_strogatz(20, 4, 0.0, seed=5))
    ring = as_graph(gen_ring_lattice(20, 4))
    assert ws.edges() == ring.edges()


def test_ws_preserves_edge_count():
    for p in (0.0, 0.1, 0.5, 1.0):
        g = gen_watts_strogatz(40, 4, p, seed=2)
        assert g.n_edges == 80
        assert g.n_nodes == 40


def test_ws_rows_match_the_graph_constructor():
    for n in range(3, 31):
        for m in range(2, n, 2):
            for p in (0.0, 0.1, 0.5, 1.0):
                for seed in range(2):
                    got = as_graph(gen_watts_strogatz(n, m, p, seed))
                    assert storage(got) == storage(Graph(range(n), got.edges())), (n, m, p, seed)


def test_ws_seed_determinism():
    a = as_graph(gen_watts_strogatz(30, 4, 0.3, seed=8))
    b = as_graph(gen_watts_strogatz(30, 4, 0.3, seed=8))
    assert a.edges() == b.edges()


def test_ws_full_rewiring_destroys_clustering():
    values = [
        clustering_coefficient(gen_watts_strogatz(100, 4, 1.0, seed=s)) for s in range(30)
    ]
    assert statistics.median(values) < 0.1


def test_ws_light_rewiring_keeps_clustering_high():
    values = [
        clustering_coefficient(gen_watts_strogatz(100, 4, 0.1, seed=s)) for s in range(30)
    ]
    assert statistics.median(values) > 0.3


def test_ws_parameter_validation():
    with pytest.raises(ParameterError):
        gen_watts_strogatz(10, 3, 0.1, seed=1)
    with pytest.raises(ParameterError):
        gen_watts_strogatz(10, 4, 1.5, seed=1)
    with pytest.raises(ParameterError):
        gen_watts_strogatz(10, 4, -0.1, seed=1)


# -- matched-size comparison -------------------------------------------------


def test_efficiency_comparison_shapes_and_determinism():
    first = efficiency_comparison(60, 90, replicates=5, seed=21)
    second = efficiency_comparison(60, 90, replicates=5, seed=21)
    assert set(first) == {"erdos_renyi", "watts_strogatz", "ring_lattice"}
    for family, ensemble in first.items():
        assert len(ensemble.rows) == 5
        assert ensemble.mean["efficiency"] == second[family].mean["efficiency"]
    assert first["ring_lattice"].std["efficiency"] == 0.0


def test_efficiency_comparison_matches_edges_across_families():
    result = efficiency_comparison(60, 90, replicates=3, seed=21)
    # 90 edges over 60 nodes quantizes to coordination 4, so all run at 120
    for family in ("ring_lattice", "erdos_renyi", "watts_strogatz"):
        assert result[family].achieved_edges == 120
        assert result[family].spec.n_edges == 90
        for row in result[family].rows:
            assert row["n_edges"] == 120
    # 150 edges over 60 nodes is degree 5, whose half rounds up: coordination 6
    assert efficiency_comparison(60, 150, replicates=1, seed=21)["ring_lattice"].achieved_edges == 180


def test_efficiency_ordering_random_above_rewired_above_ring():
    result = efficiency_comparison(60, 90, replicates=50, seed=33)
    er = result["erdos_renyi"].mean["efficiency"]
    ws = result["watts_strogatz"].mean["efficiency"]
    ring = result["ring_lattice"].mean["efficiency"]
    assert er > ws > ring


def test_efficiency_comparison_validation():
    with pytest.raises(ParameterError):
        efficiency_comparison(4, 6, replicates=2, seed=1)
    with pytest.raises(ParameterError):
        efficiency_comparison(60, 2000, replicates=2, seed=1)
    with pytest.raises(ParameterError):
        efficiency_comparison(60, 90, replicates=0, seed=1)


@pytest.mark.parametrize("rewiring_p", [1.5, -0.1, float("nan")])
def test_a_bad_rewiring_p_is_rejected_before_any_graph_is_measured(monkeypatch, rewiring_p):
    def forbidden(job):
        raise AssertionError(f"measured {job[0].__name__} before the check")

    monkeypatch.setattr(generators, "_measure", forbidden)
    with pytest.raises(ParameterError) as expected:
        RunConfig(rewiring_p=rewiring_p)
    with pytest.raises(ParameterError) as exc:
        efficiency_comparison(12, 24, 1, seed=1, rewiring_p=rewiring_p)
    assert str(exc.value) == str(expected.value)


# (n_nodes, n_edges, replicates, seed, rewiring_p)
COMPARISONS = [
    (60, 90, 5, 21, 0.1),
    (30, 45, 3, 5, 1.0),
    (12, 40, 4, 7, 0.0),
    (9, 9, 1, 3, 0.5),
    (6, 0, 2, 11, 0.1),
]


def test_the_cli_spread_equals_efficiency_comparison(monkeypatch):
    def forbidden():
        raise AssertionError("efficiency_comparison forked")

    monkeypatch.setattr(os, "fork", forbidden)
    # Three usable CPUs, so a spreading efficiency_comparison would fork on any host.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    sequential = [efficiency_comparison(n, m, r, seed, rewiring_p=p) for n, m, r, seed, p in COMPARISONS]
    monkeypatch.undo()
    plans = [generators._plan(*comparison) for comparison in COMPARISONS]

    def spread(work, jobs):  # as cmd_baselines spreads them
        return cli._spread_over_cpus(work, jobs, len(jobs))

    for w in (1, 2, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: w)
        assert generators._measure_plans(plans, spread) == sequential
        assert [generators._measure_plans([plan], spread) for plan in plans] == [[ensembles] for ensembles in sequential]


@pytest.mark.parametrize("n_nodes, n_edges", [(3, 0), (3, 3), (10, 0), (9, 36)])
@pytest.mark.parametrize("rewiring_p", [0.0, 1.0])
def test_every_plan_job_yields_efficiency_and_sigma(n_nodes, n_edges, rewiring_p):
    # A plan admits no graph on which sigma is undefined: from the fewest
    # nodes and no edges to the complete graph.
    plan = generators._plan(n_nodes, n_edges, 3, 5, rewiring_p)
    for job in plan.jobs:
        assert sorted(generators._measure(job)) == ["efficiency", "n_edges", "sigma"]


def test_sigma_reported_when_defined():
    result = efficiency_comparison(60, 90, replicates=3, seed=2)
    ws_rows = result["watts_strogatz"].rows
    assert all("sigma" in row for row in ws_rows)
    assert result["watts_strogatz"].mean["sigma"] > 1.0


@given(st.lists(st.one_of(st.floats(0, 1), st.floats(-1e150, 1e150)), min_size=1, max_size=30))
@example([0.1, 0.2, 0.3])
@example([0.0, 1e-310, 3e-320])
def test_summary_equals_exact_mean_and_pvariance(values):
    ensemble = _summarize(BaselineSpec("erdos_renyi", 3), [{"x": v} for v in values], 0)
    assert (ensemble.mean["x"], ensemble.std["x"]) == oracles.mean_and_std_by_statistics(values)


@pytest.mark.parametrize(
    "values, std",
    [
        # The root of the variance rounded to a float reads 0.047140452079103175.
        ([0.1, 0.1, 0.2], 0.04714045207910317),
        # The root lies halfway between 0.0 and the least float; the tie goes to 0.0.
        ([0.0, 5e-324], 0.0),
        ([0.0, 1e-323], 5e-324),
    ],
)
def test_summary_std_is_the_exact_root_rounded_once(values, std):
    ensemble = _summarize(BaselineSpec("erdos_renyi", 3), [{"x": v} for v in values], 0)
    assert ensemble.std["x"] == std
    assert oracles.mean_and_std_by_statistics(values)[1] == std


@pytest.mark.parametrize("comparison", COMPARISONS)
def test_lattice_mean_equals_its_replicate_value(comparison):
    # The lattice family's replicates are one build repeated, so its mean
    # is that build's value and its spread is zero.
    n, m, replicates, seed, p = comparison
    for r in sorted({1, 2, 3, replicates, 7}):
        lattice = efficiency_comparison(n, m, r, seed, rewiring_p=p)["ring_lattice"]
        for name, value in lattice.rows[0].items():
            assert lattice.mean[name] == value
            assert lattice.std[name] == 0.0

"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 7 needs real historical record sets; point GRIDPANEL_DATA_DIR at a
directory of per-country subdirectories (each with nodes.csv, edges.csv and
optionally events.csv) to enable it, otherwise it skips.
"""

import os
import random
import shutil
import statistics
import time

import pytest

import oracles
from helpers import (
    make_edge,
    make_node,
    planted_lifetime_records,
    random_test_graph,
    synthetic_records,
    tree_bytes,
    write_fixture_csvs,
)
from gridpanel import (
    Graph,
    annual_change_rates,
    apsp_summary,
    as_graph,
    average_degree,
    average_lifetime_by_year,
    build_panel,
    build_record_set,
    clustering_coefficient,
    efficiency_comparison,
    gen_erdos_renyi,
    gen_ring_lattice,
    gen_watts_strogatz,
    line_lifetimes,
    link_density,
    load_asset_records,
    modularity_detect,
    modularity_of,
    small_world_omega,
    small_world_sigma,
    snapshot_at,
    underperformers,
)
from gridpanel.cli import main as cli_main


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_metric_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(10_001)
    worst = 0.0
    for _ in range(200):
        g = random_test_graph(rng, rng.randint(2, 50), rng.uniform(0.02, 0.5))
        deviations = [
            abs(link_density(g) - oracles.density(g)),
            abs(average_degree(g) - oracles.mean_degree(g)),
            abs(clustering_coefficient(g) - oracles.clustering(g)),
        ]
        mine = apsp_summary(g)
        ref_l, ref_d, ref_eta, ref_rpf = oracles.path_stats(g)
        deviations.append(abs(mine.efficiency - ref_eta))
        deviations.append(abs(mine.reachable_pair_fraction - ref_rpf))
        if ref_l is None:
            assert mine.avg_path_length is None and mine.diameter is None
        else:
            deviations.append(abs(mine.avg_path_length - ref_l))
            deviations.append(abs(mine.diameter - ref_d))
        worst = max(worst, max(deviations))
    elapsed = time.perf_counter() - started
    verdict(
        "criterion 1 (density, degree, paths, diameter, clustering, efficiency vs oracle)",
        worst <= 1e-9 and elapsed < 10.0,
        f"max deviation {worst:.2e} over 200 graphs in {elapsed:.1f}s",
    )


def test_criterion_2_motif_oracle_equivalence():
    from gridpanel import count_four_cycles, count_stars, count_triangles

    started = time.perf_counter()
    rng = random.Random(20_002)
    mismatches = 0
    for _ in range(100):
        g = random_test_graph(rng, rng.randint(4, 12), rng.uniform(0.15, 0.75))
        if count_triangles(g) != oracles.triangles_by_subsets(g):
            mismatches += 1
        for chordless in (False, True):
            if count_four_cycles(g, chordless_only=chordless) != oracles.four_cycles_by_subsets(
                g, chordless
            ):
                mismatches += 1
        for leaves in (3, 4):
            for variant in ("subgraph", "induced"):
                if count_stars(g, leaves, variant=variant) != oracles.stars_by_subsets(
                    g, leaves, variant
                ):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    verdict(
        "criterion 2 (motif counts vs exhaustive enumeration)",
        mismatches == 0 and elapsed < 10.0,
        f"{mismatches} mismatches over 100 graphs, both cycle flags and star variants, in {elapsed:.1f}s",
    )


def _modularity_fixtures():
    yield Graph(range(5), [(i, (i + 1) % 5) for i in range(5)])
    yield Graph(range(3), [(0, 1), (1, 2)])
    yield Graph(range(4), [(a, b) for a in range(4) for b in range(a + 1, 4)])
    records = synthetic_records()
    for year in (1955, 1975, 2000):
        for floor in (0, 220):
            g = snapshot_at(records, year, voltage_floor_kv=floor).graph
            if g.n_edges:
                yield g
    yield as_graph(gen_watts_strogatz(40, 4, 0.2, seed=1))
    yield as_graph(gen_erdos_renyi(30, 60, seed=2))


def test_criterion_3_modularity_optimum_and_null():
    clique = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    bridge = Graph(range(8), clique + [(a + 4, b + 4) for a, b in clique] + [(3, 4)])
    partition = modularity_detect(bridge, seed=42)
    planted = {frozenset(range(4)), frozenset(range(4, 8))}
    recovered = set(partition.communities()) == planted
    best_q, _ = oracles.best_partition_exhaustive(bridge)
    optimum_hit = abs(partition.modularity - best_q) <= 1e-12
    null_ok = all(
        modularity_of(g, {v: 0 for v in g.nodes}) == 0.0 for g in _modularity_fixtures()
    )
    verdict(
        "criterion 3 (planted bipartition, exhaustive optimum, all-in-one Q = 0)",
        recovered and optimum_hit and null_ok,
        f"recovered={recovered}, Q={partition.modularity:.13f} vs optimum {best_q:.13f}, "
        f"all-in-one zero on every fixture={null_ok}",
    )


def test_criterion_4_small_world_classifiers():
    started = time.perf_counter()
    ws_sigma = []
    ws_omega = []
    for seed in range(30):
        g = gen_watts_strogatz(100, 4, 0.1, seed=seed)
        ws_sigma.append(small_world_sigma(g))
        ws_omega.append(small_world_omega(g).value)
    sigma_med = statistics.median(ws_sigma)
    omega_med = statistics.median(ws_omega)
    ring_omega = small_world_omega(gen_ring_lattice(100, 4)).value
    er_omega = statistics.median(
        small_world_omega(gen_erdos_renyi(100, 200, seed=seed)).value for seed in range(30)
    )
    elapsed = time.perf_counter() - started
    ok = (
        sigma_med > 1.0
        and -0.7 < omega_med < 0.7
        and ring_omega < 0.0
        and er_omega >= 0.7
        and elapsed < 60.0
    )
    verdict(
        "criterion 4 (small-world classifiers on reference ensembles)",
        ok,
        f"WS median sigma {sigma_med:.2f}, WS median omega {omega_med:.3f}, "
        f"ring omega {ring_omega:.3f}, ER median omega {er_omega:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_efficiency_ordering():
    started = time.perf_counter()
    runs = 20
    holds = 0
    for master_seed in range(runs):
        result = efficiency_comparison(60, 90, replicates=50, seed=master_seed)
        er = result["erdos_renyi"].mean["efficiency"]
        ws = result["watts_strogatz"].mean["efficiency"]
        ring = result["ring_lattice"].mean["efficiency"]
        if er > ws > ring:
            holds += 1
    elapsed = time.perf_counter() - started
    verdict(
        "criterion 5 (mean efficiency: random > rewired lattice > ring)",
        holds >= 0.95 * runs and elapsed < 60.0,
        f"ordering held in {holds}/{runs} seeded runs of 50 replicates in {elapsed:.1f}s",
    )


def test_criterion_6_temporal_conservation_and_lifetimes():
    conserved = True
    for seed in (7, 8, 9, 10):
        series = annual_change_rates(synthetic_records(seed=seed))
        for i in range(1, len(series.years)):
            delta = series.lines_in_operation[i] - series.lines_in_operation[i - 1]
            if delta != series.new_lines[i] - series.decommissions[i]:
                conserved = False

    planted = planted_lifetime_records()
    averages = average_lifetime_by_year(line_lifetimes(planted))
    means_exact = all(averages[year] == 25.0 for year in range(1955, 1975))

    lifetimes = line_lifetimes(synthetic_records())
    flagged = {
        t: {rec.edge_id for rec in underperformers(lifetimes, threshold=t)}
        for t in (0.1, 0.2, 0.3)
    }
    nested = flagged[0.1] <= flagged[0.2] <= flagged[0.3]
    verdict(
        "criterion 6 (line-count conservation, planted means, threshold nesting)",
        conserved and means_exact and nested,
        f"conservation={conserved}, planted means exact={means_exact}, "
        f"nesting sizes {sorted(len(flagged[t]) for t in flagged)}",
    )


def _country_dirs():
    root = os.environ.get("GRIDPANEL_DATA_DIR", "")
    if not root or not os.path.isdir(root):
        return []
    found = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(os.path.join(path, "nodes.csv")) and os.path.isfile(
            os.path.join(path, "edges.csv")
        ):
            found.append((name, path))
    return found


def _slope(pairs):
    xs, ys = zip(*pairs)
    return statistics.linear_regression(xs, ys).slope


@pytest.mark.skipif(
    not _country_dirs(),
    reason="historical record sets not supplied; set GRIDPANEL_DATA_DIR to enable",
)
def test_criterion_7_historical_trend_shapes():
    problems = []
    for country, path in _country_dirs():
        events = os.path.join(path, "events.csv")
        records = load_asset_records(
            os.path.join(path, "nodes.csv"),
            os.path.join(path, "edges.csv"),
            events if os.path.isfile(events) else None,
            country_tag=country,
        )
        snaps = build_panel(records, voltage_floor_kv=220)

        node_out_years = {n.year_out for n in records.nodes if n.year_out and n.voltage_kv >= 220}
        edge_out_years = {e.year_out for e in records.edges if e.year_out and e.voltage_kv >= 220}
        for prev, cur in zip(snaps, snaps[1:]):
            if cur.n_nodes < prev.n_nodes and cur.year not in node_out_years:
                problems.append(f"{country}: node count fell in {cur.year} without retirements")
            if cur.n_edges < prev.n_edges and cur.year not in edge_out_years:
                problems.append(f"{country}: edge count fell in {cur.year} without decommissions")

        eta_points = [
            (snap.year, apsp_summary(snap.graph).efficiency)
            for snap in snaps
            if snap.n_nodes >= 2 and snap.n_edges >= 1
        ]
        third = len(eta_points) // 3
        if third >= 3:
            early = _slope(eta_points[:third])
            late = _slope(eta_points[-third:])
            if early >= 0:
                problems.append(f"{country}: efficiency slope over first third is {early:.2e}, not negative")
            if abs(late) > 0.5 * abs(early):
                problems.append(
                    f"{country}: final-third slope {late:.2e} not flat relative to early decline {early:.2e}"
                )

        sigmas = []
        for snap in snaps:
            try:
                sigmas.append(small_world_sigma(snap.graph))
            except Exception:
                continue
        if sigmas and sum(s < 1.0 for s in sigmas) * 2 <= len(sigmas):
            problems.append(f"{country}: transmission-scope sigma not below 1 for a majority of years")

        if country.lower() in ("hu", "nl"):
            full = build_panel(records, voltage_floor_kv=0)
            full_sigma = []
            for snap in full:
                try:
                    full_sigma.append(small_world_sigma(snap.graph))
                except Exception:
                    continue
            if not any(s > 1.0 for s in full_sigma):
                problems.append(f"{country}: full-scope sigma never exceeds 1")

    verdict(
        "criterion 7 (historical trend shapes on supplied record sets)",
        not problems,
        "; ".join(problems) if problems else f"{len(_country_dirs())} countries checked",
    )


def test_criterion_8_cli_reruns_are_byte_identical(tmp_path):
    records = synthetic_records()
    paths = write_fixture_csvs(records, tmp_path)

    stable = []
    for command, extra in (
        ("panel", ()),
        ("motifs", ()),
        ("temporal", ()),
        ("baselines", ("--replicates", "3")),
    ):
        out = tmp_path / f"{command}_run"
        argv = [
            command,
            "--nodes",
            paths["nodes"],
            "--edges",
            paths["edges"],
            "--events",
            paths["events"],
            "--country-tag",
            "testland",
            "--voltage-floor",
            "220",
            "--seed",
            "42",
            "--out",
            str(out),
            *extra,
        ]
        assert cli_main(argv) == 0
        first = tree_bytes(out)
        manifest_backup = tmp_path / f"{command}_manifest_copy.txt"
        shutil.copy(out / f"{command}_manifest.txt", manifest_backup)
        shutil.rmtree(out)
        assert cli_main([command, "--config", str(manifest_backup)]) == 0
        stable.append(tree_bytes(out) == first)

    verdict(
        "criterion 8 (byte-identical re-execution from manifests)",
        all(stable),
        f"panel/motifs/temporal/baselines stable={stable}",
    )

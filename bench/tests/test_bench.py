"""Tests of the benchmark's own code: input generators, span arithmetic
and the counts computed at the wrappers.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

import gridpanel  # noqa: E402
from gridpanel import EdgeRecord, Graph, NodeRecord, build_record_set  # noqa: E402

def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


SMALL = {
    "geometric_growth": lambda seed: inputs.geometric_growth(seed, stations=80, years=15),
    "churn": lambda seed: inputs.churn(seed, stations=120, years=20),
}


def _written(rows: inputs.RecordRows, directory: Path) -> dict[str, bytes]:
    inputs.write_csvs(rows, str(directory))
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_inputs_are_identical_bytes_for_a_fixed_seed(name, tmp_path):
    generate = run.WORKLOADS[name].generate
    first = _written(generate(3), tmp_path / "a")
    second = _written(generate(3), tmp_path / "b")
    other = _written(generate(4), tmp_path / "c")
    assert first == second
    assert first != other


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generated_sets_pass_validation(name, tmp_path):
    rows = SMALL[name](5)
    paths = inputs.write_csvs(rows, str(tmp_path))
    records = gridpanel.parse_asset_records(paths["nodes"], paths["edges"], paths["events"])
    assert (records.dataset_start, records.dataset_end) == rows.span
    assert len(records.edges) == len(rows.edges)


def test_self_times_subtract_nested_children():
    spans = [
        ["cli", 0.0, 10.0, None, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["a.inner", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 9.0, 0, "r"],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_count_overlapping_children_once_and_clip_to_parent():
    spans = [
        ["p", 0.0, 10.0, None, "r"],
        ["c1", 1.0, 5.0, 0, "r"],
        ["c2", 3.0, 7.0, 0, "r"],
        ["c3", 8.0, 12.0, 0, "r"],
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_layer_metrics_sum_self_time_by_function_and_module():
    trace = {
        "spans": [
            ["cli", 0.0, 10.0, None, "r"],
            ["metrics.metric_row", 1.0, 6.0, 0, "r"],
            ["metrics.apsp_summary", 2.0, 5.0, 1, "r"],
            ["trace", 5.0, 5.5, 1, "r"],
            ["records.snapshot_at", 7.0, 8.0, 0, "r"],
        ],
        "counts": {"metrics.apsp_summary.distinct_graphs": 1, "metrics.lattice_clustering.distinct_args": 0},
    }
    times, counts = run.layer_metrics([trace], {"x.csv": b"h\n1\n2\n", "m.txt": b"abc"})
    assert times["metrics.apsp_summary.self_s"] == 3.0
    assert times["metrics.metric_row.self_s"] == 1.5
    assert times["metrics.self_s"] == 4.5
    assert times["records.self_s"] == 1.0
    assert times["cli.self_s"] == 4.0
    assert "trace.self_s" not in times
    assert counts["metrics.apsp_summary.calls"] == 1
    assert counts["metrics.apsp_summary.calls_per_graph"] == 1.0
    assert counts["cli.rows_written"] == 2
    assert counts["cli.bytes_written"] == 9


def test_layer_metrics_scale_self_times_to_reference_seconds():
    trace = {
        "spans": [["cli", 0.0, 4.0, None, "r"], ["records.snapshot_at", 1.0, 2.0, 0, "r"]],
        "counts": {"metrics.apsp_summary.distinct_graphs": 0, "metrics.lattice_clustering.distinct_args": 0},
        "scale": 0.5,
    }
    times, counts = run.layer_metrics([trace], {})
    assert times["records.snapshot_at.self_s"] == 0.5
    assert times["cli.self_s"] == 1.5
    assert counts["records.snapshot_at.calls"] == 1


def _tiny_records():
    # Triangle s0-s1-s2 plus pendant s3; c4 runs parallel to c0.
    nodes = [NodeRecord(f"s{i}", f"s{i}", 220, 2000) for i in range(4)]
    pairs = [("s0", "s1"), ("s1", "s2"), ("s0", "s2"), ("s2", "s3"), ("s0", "s1")]
    edges = [EdgeRecord(f"c{i}", a, b, 220, 2000) for i, (a, b) in enumerate(pairs)]
    return build_record_set(nodes, edges, dataset_end=2001)


def test_count_helpers_on_a_tiny_graph():
    graph = Graph(range(4), [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert tracing.edge_visits(graph.n_nodes, graph.n_edges) == 4 * 2 * 4
    assert tracing.wedges(graph) == 1 + 1 + 3 + 0
    assert tracing.records_scanned(_tiny_records()) == 4 + 5


def test_tracer_counts_match_hand_values_and_uninstall_restores():
    original = gridpanel.metrics.apsp_summary
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert gridpanel.generators.apsp_summary is gridpanel.metrics.apsp_summary is not original
        snapshots = gridpanel.records.build_panel(_tiny_records())
        for snap in snapshots:
            gridpanel.metrics.metric_row(snap)
            gridpanel.motifs.count_four_cycles(snap)
        gridpanel.metrics.small_world_sigma(snapshots[0])
    finally:
        tracer.uninstall()
    assert gridpanel.metrics.apsp_summary is original
    assert gridpanel.records.Graph is Graph

    dump = tracer.dump()
    counts = dump["counts"]
    assert counts["records.records_scanned"] == 2 * (4 + 5)
    # two snapshots of 4 nodes and 4 edges; sigma sweeps the first one again
    assert counts["metrics.apsp_summary.edge_visits"] == 3 * (4 * 2 * 4)
    assert counts["metrics.apsp_summary.distinct_graphs"] == 2
    assert counts["motifs.wedges"] == 2 * 5
    # two snapshots plus one matched ring lattice (4 nodes, coordination 2) per metric row
    assert counts["graph.edges_built"] == 2 * 4 + 2 * 4
    _times, exact = run.layer_metrics([dump], {})
    assert exact["metrics.apsp_summary.calls"] == 3
    assert exact["metrics.apsp_summary.calls_per_graph"] == 1.5
    assert exact["metrics.lattice_clustering.distinct_ratio"] == 0.5

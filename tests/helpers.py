"""Builders for synthetic record sets and CSV fixtures used across tests."""

from __future__ import annotations

import csv
import os
import random

from gridpanel import (
    AssetRecordSet,
    ChangeEvent,
    EdgeRecord,
    Graph,
    NodeRecord,
    build_record_set,
)


def make_node(node_id, year_in, *, year_out=None, voltage=220, label="", lat=None, lon=None):
    return NodeRecord(
        node_id=node_id,
        label=label or f"station {node_id}",
        voltage_kv=voltage,
        year_in=year_in,
        year_out=year_out,
        lat=lat,
        lon=lon,
    )


def make_edge(edge_id, a, b, year_in, *, year_out=None, voltage=220, circuits=1, events=()):
    return EdgeRecord(
        edge_id=edge_id,
        node_a=a,
        node_b=b,
        voltage_kv=voltage,
        year_in=year_in,
        year_out=year_out,
        circuits=circuits,
        events=tuple(ChangeEvent(year=year, kind=kind) for year, kind in events),
    )


def random_test_graph(rng: random.Random, n_nodes: int, edge_p: float) -> Graph:
    """Test-local random graph, independent of the package generators."""
    edges = [
        (a, b)
        for a in range(n_nodes)
        for b in range(a + 1, n_nodes)
        if rng.random() < edge_p
    ]
    return Graph(range(n_nodes), edges)


def mesh_graph(side: int) -> Graph:
    """Square grid of ``side * side`` int nodes: node ``r * side + c``
    links to its right and lower neighbours."""
    edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    edges += [(v, v + side) for v in range(side * (side - 1))]
    return Graph(range(side * side), edges)


def relabeled(graph: Graph, rng: random.Random) -> tuple[Graph, dict]:
    """Copy of the graph under a random node-id permutation."""
    shuffled = list(graph.nodes)
    rng.shuffle(shuffled)
    mapping = {old: new for old, new in zip(graph.nodes, shuffled)}
    return Graph(mapping.values(), [(mapping[u], mapping[v]) for u, v in graph.edges()]), mapping


def string_relabeled(graph: Graph) -> tuple[Graph, dict]:
    """Copy of a graph labelled by ints below 997 under string labels whose
    sorted order differs from the int order, so that a node's position no
    longer equals its label. Graphs with labels below 97 keep their
    two-digit labels."""
    modulus, width = (97, 2) if max(graph.nodes, default=0) < 97 else (997, 3)
    mapping = {v: f"n{(37 * v + 3) % modulus:0{width}d}" for v in graph.nodes}
    return Graph(mapping.values(), [(mapping[u], mapping[v]) for u, v in graph.edges()]), mapping


def synthetic_records(seed=7, start=1950, n_years=55, country="testland") -> AssetRecordSet:
    """A deterministic grown grid: mixed voltages, decommissions, events.

    Stations never retire, so endpoint liveness always holds; circuits
    come and go and occasionally duplicate a corridor.
    """
    rng = random.Random(seed)
    end = start + n_years - 1
    nodes: list[NodeRecord] = []
    voltage_of: dict[str, int] = {}

    def add_node(year):
        node_id = f"N{len(nodes):03d}"
        voltage = rng.choices((120, 220, 400), weights=(3, 5, 2))[0]
        nodes.append(
            make_node(
                node_id,
                year,
                voltage=voltage,
                lat=round(45.0 + rng.random() * 5.0, 4),
                lon=round(10.0 + rng.random() * 10.0, 4),
            )
        )
        voltage_of[node_id] = voltage
        return node_id

    edges: list[dict] = []

    def add_edge(a, b, year):
        edges.append(
            {
                "edge_id": f"E{len(edges):03d}",
                "a": a,
                "b": b,
                "voltage": min(voltage_of[a], voltage_of[b]),
                "circuits": rng.choice((1, 1, 1, 2)),
                "year_in": year,
                "year_out": None,
                "events": [],
            }
        )

    existing = [add_node(start) for _ in range(4)]
    for a, b in zip(existing, existing[1:]):
        add_edge(a, b, start)

    for year in range(start + 1, end + 1):
        for _ in range(rng.choice((0, 1, 1, 2))):
            new_id = add_node(year)
            for other in rng.sample(existing, k=min(len(existing), rng.choice((1, 1, 2)))):
                add_edge(new_id, other, year)
            existing.append(new_id)
        if rng.random() < 0.5 and len(existing) > 5:
            a, b = rng.sample(existing, 2)
            if a != b:
                add_edge(a, b, year)
        if year >= start + 15 and rng.random() < 0.4:
            alive = [e for e in edges if e["year_out"] is None and e["year_in"] < year]
            if alive:
                victim = rng.choice(alive)
                victim["year_out"] = year
                if rng.random() < 0.5:
                    victim["events"].append((year, "decommission"))
        if rng.random() < 0.5:
            alive = [e for e in edges if e["year_out"] is None and e["year_in"] <= year]
            if alive:
                touched = rng.choice(alive)
                touched["events"].append(
                    (year, rng.choice(("voltage_upgrade", "split", "reroute", "other")))
                )

    edge_records = [
        make_edge(
            e["edge_id"],
            e["a"],
            e["b"],
            e["year_in"],
            year_out=e["year_out"],
            voltage=e["voltage"],
            circuits=e["circuits"],
            events=sorted(e["events"]),
        )
        for e in edges
    ]
    return build_record_set(
        nodes,
        edge_records,
        country_tag=country,
        dataset_start=start,
        dataset_end=end,
    )


def planted_lifetime_records(start=1950, end=2010) -> AssetRecordSet:
    """Per commissioning year 1955-1974: one line changed after 20 years,
    one after 30, so the observed mean is exactly 25 everywhere. Plus a
    censored line from 1990."""
    nodes = [
        make_node("H1", start, voltage=400),
        make_node("H2", start, voltage=400),
        make_node("H3", start, voltage=400),
    ]
    edges = []
    for year in range(1955, 1975):
        edges.append(
            make_edge(f"P{year}a", "H1", "H2", year, voltage=400, events=[(year + 20, "voltage_upgrade")])
        )
        edges.append(
            make_edge(f"P{year}b", "H2", "H3", year, voltage=400, events=[(year + 30, "reroute")])
        )
    edges.append(make_edge("C1990", "H1", "H3", 1990, voltage=400))
    return build_record_set(
        nodes, edges, country_tag="planted", dataset_start=start, dataset_end=end
    )


def write_fixture_csvs(records: AssetRecordSet, directory) -> dict[str, str]:
    """Write a record set out in the documented CSV schemas."""
    paths = {
        "nodes": str(directory / "nodes.csv"),
        "edges": str(directory / "edges.csv"),
        "events": str(directory / "events.csv"),
    }

    def cell(value):
        return "" if value is None else value

    with open(paths["nodes"], "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("node_id", "label", "voltage_kv", "year_in", "year_out", "lat", "lon"))
        for rec in records.nodes:
            writer.writerow(
                (rec.node_id, rec.label, rec.voltage_kv, rec.year_in, cell(rec.year_out), cell(rec.lat), cell(rec.lon))
            )
    with open(paths["edges"], "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("edge_id", "node_a", "node_b", "voltage_kv", "circuits", "year_in", "year_out"))
        for rec in records.edges:
            writer.writerow(
                (rec.edge_id, rec.node_a, rec.node_b, rec.voltage_kv, rec.circuits, rec.year_in, cell(rec.year_out))
            )
    with open(paths["events"], "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("edge_id", "year", "kind"))
        for rec in records.edges:
            for ev in rec.events:
                writer.writerow((rec.edge_id, ev.year, ev.kind))
    return paths


def tree_bytes(directory) -> dict[str, bytes]:
    """Contents of the regular files directly inside ``directory``, by name."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                out[name] = handle.read()
    return out

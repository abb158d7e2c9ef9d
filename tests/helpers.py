"""Builders for synthetic record sets and CSV fixtures used across tests."""

from __future__ import annotations

import csv
import os
import random

import pytest
from hypothesis import strategies as st

from gridpanel import (
    AssetRecordSet,
    ChangeEvent,
    EdgeRecord,
    Graph,
    MetricUndefinedError,
    NodeRecord,
    build_record_set,
)
from gridpanel.records import EVENT_KINDS


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


def leafy_test_graph(rng: random.Random, n_nodes: int, extra_edges: int) -> Graph:
    """Sparse random graph on ``n_nodes`` int nodes, rich in degree-one
    nodes: a random forest, in which a node joins an earlier one with
    probability 0.9 and otherwise starts a new tree, plus ``extra_edges``
    random links, which close cycles."""
    edges = {(rng.randrange(v), v) for v in range(1, n_nodes) if rng.random() < 0.9}
    for _ in range(extra_edges if n_nodes > 1 else 0):
        a, b = rng.sample(range(n_nodes), 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(range(n_nodes), sorted(edges))


def hanging_tree_graph(rng: random.Random, core_size: int, chords: int, hung: int, forest: int) -> Graph:
    """A 2-core with random trees hung on it, beside random tree
    components, under shuffled int labels. The core is a ``core_size``
    cycle (``core_size`` >= 3) plus ``chords`` random links. Each of the
    ``hung`` tree nodes joins either the last node added or a random
    earlier one, so trees grow both deep and bushy. The ``forest`` nodes
    form separate trees: each starts a new one with probability 0.2 and
    otherwise joins a random earlier forest node."""
    edges = {(i, i + 1) for i in range(core_size - 1)} | {(0, core_size - 1)}
    for _ in range(chords):
        a, b = sorted(rng.sample(range(core_size), 2))
        edges.add((a, b))
    n = core_size
    for _ in range(hung):
        edges.add((rng.choice((n - 1, rng.randrange(n))), n))
        n += 1
    first = n
    for _ in range(forest):
        if n > first and rng.random() >= 0.2:
            edges.add((rng.randrange(first, n), n))
        n += 1
    label = list(range(n))
    rng.shuffle(label)
    return Graph(range(n), [(label[a], label[b]) for a, b in edges])


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


def undefined_reason(kernel, *args):
    """The reason code of the MetricUndefinedError that kernel(*args) raises."""
    with pytest.raises(MetricUndefinedError) as info:
        kernel(*args)
    return info.value.reason


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


def churned_records(seed=11, start=2000, n_years=30) -> AssetRecordSet:
    """A valid grid whose stations come and go: each year a few stations
    are built and linked to two or three live ones, a few retire with
    their circuits, some circuits are rebuilt on their corridor and some
    corridors get a parallel circuit. Station ids are drawn at random,
    so a new station can sort between old ones and move their positions.
    Voltages are mixed, so each floor sees a different grid."""
    rng = random.Random(seed)
    end = start + n_years - 1
    ids = rng.sample(range(1000), 200)
    nodes: dict[str, dict] = {}
    edges: list[dict] = []

    def build_station(year):
        node_id = f"K{ids[len(nodes)]:03d}"
        nodes[node_id] = {"year_in": year, "year_out": None, "voltage": rng.choice((110, 220, 220, 400))}
        return node_id

    def build_circuit(a, b, year):
        voltage = min(nodes[a]["voltage"], nodes[b]["voltage"])
        edges.append({"a": a, "b": b, "year_in": year, "year_out": None, "voltage": voltage})

    live = [build_station(start) for _ in range(8)]
    for a, b in zip(live, live[1:] + live[:1]):
        build_circuit(a, b, start)
    for a, b in zip(live[::2], live[2::2]):
        build_circuit(a, b, start)
    for year in range(start + 1, end + 1):
        for _ in range(rng.choice((1, 2, 3))):
            new = build_station(year)
            for other in rng.sample(live, min(len(live), rng.choice((2, 2, 3)))):
                build_circuit(new, other, year)
            live.append(new)
        circuits = [e for e in edges if e["year_out"] is None and e["year_in"] < year]
        for e in rng.sample(circuits, min(len(circuits), rng.choice((0, 1, 2)))):
            e["year_out"] = year
            if rng.random() < 0.6:
                build_circuit(e["a"], e["b"], year)
        if circuits and rng.random() < 0.4:
            e = rng.choice(circuits)
            build_circuit(e["b"], e["a"], year)
        if len(live) > 12 and rng.random() < 0.5:
            gone = live.pop(rng.randrange(len(live)))
            nodes[gone]["year_out"] = year
            for e in edges:
                if e["year_out"] is None and gone in (e["a"], e["b"]):
                    e["year_out"] = year
    return build_record_set(
        [make_node(n, v["year_in"], year_out=v["year_out"], voltage=v["voltage"]) for n, v in nodes.items()],
        [
            make_edge(f"C{i:03d}", e["a"], e["b"], e["year_in"], year_out=e["year_out"], voltage=e["voltage"])
            for i, e in enumerate(edges)
        ],
        country_tag="churned",
        dataset_start=start,
        dataset_end=end,
    )


@st.composite
def small_record_sets(draw) -> AssetRecordSet:
    """Unvalidated record sets spanning 2000-2010 over eight stations, P
    to W, each with one record or more. Lives may start or end outside
    the span, be empty, run backwards or outlive an endpoint, and a
    voltage may lie below a floor of 220 or 400 kV. A circuit may get a
    parallel record on its corridor, written from the other end, and a
    rebuild that starts on the corridor in the year it ends."""
    ids = "PQRSTUVW"
    years = st.integers(1998, 2012)

    def lives(last_start):
        # (year_in, year_out): a missing year_out, or one up to 14 years on
        # or a year back.
        lengths = st.one_of(st.none(), st.integers(-1, 14))
        return st.tuples(st.integers(1998, last_start), lengths).map(
            lambda life: (life[0], None if life[1] is None else sum(life))
        )

    voltages = st.sampled_from((110, 220, 400, 400))
    stations = draw(st.lists(st.tuples(lives(2006), voltages), min_size=len(ids), max_size=len(ids)))
    stations = list(zip(ids, stations))
    stations += draw(st.lists(st.tuples(st.sampled_from(ids), st.tuples(lives(2012), voltages)), max_size=6))
    nodes = [
        make_node(node_id, year_in, year_out=year_out, voltage=voltage)
        for node_id, ((year_in, year_out), voltage) in stations
    ]
    ends = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
    extras = st.one_of(st.none(), st.tuples(lives(2010), voltages))
    edges = []
    for (a, b), (year_in, year_out), voltage, parallel, rebuild in draw(
        st.lists(st.tuples(ends, lives(2010), voltages, extras, st.one_of(st.none(), years)), min_size=8, max_size=28)
    ):
        edges.append(make_edge(f"e{len(edges)}", a, b, year_in, year_out=year_out, voltage=voltage))
        if parallel is not None:
            (p_in, p_out), p_voltage = parallel
            edges.append(make_edge(f"e{len(edges)}", b, a, p_in, year_out=p_out, voltage=p_voltage))
        if rebuild is not None and year_out is not None:
            edges.append(make_edge(f"e{len(edges)}", a, b, year_out, year_out=rebuild, voltage=voltage))
    return build_record_set(nodes, edges, dataset_start=2000, dataset_end=2010)



@st.composite
def flawed_record_sets(draw) -> AssetRecordSet:
    """small_record_sets with the other flaws validation reports: events
    of every kind dated in and out of their circuit's life, decommission
    events on and off ``year_out``, self-loops, endpoints naming no
    station, repeated circuit ids, voltages and circuit counts of zero
    or below, and a dataset span that may be narrower than the records'
    years or reversed."""
    base = draw(small_record_sets())
    low = st.sampled_from((0, -110))
    nodes = [rec._replace(voltage_kv=draw(low)) if draw(st.integers(0, 7)) == 0 else rec for rec in base.nodes]
    events = st.lists(st.tuples(st.integers(1996, 2014), st.sampled_from(EVENT_KINDS)), max_size=3)
    flaws = st.sets(st.sampled_from(("self_loop", "unknown_end", "repeated_id", "voltage", "circuits")), max_size=2)
    edges = []
    for rec in base.edges:
        dated = [ChangeEvent(year, kind) for year, kind in draw(events)]
        if rec.year_out is not None and draw(st.booleans()):
            dated.append(ChangeEvent(rec.year_out, "decommission"))
        rec = rec._replace(events=tuple(dated))
        for flaw in sorted(draw(flaws)):
            if flaw == "self_loop":
                rec = rec._replace(node_b=rec.node_a)
            elif flaw == "unknown_end":
                rec = rec._replace(node_a="X")
            elif flaw == "repeated_id" and edges:
                rec = rec._replace(edge_id=edges[-1].edge_id)
            elif flaw == "voltage":
                rec = rec._replace(voltage_kv=draw(low))
            elif flaw == "circuits":
                rec = rec._replace(circuits=draw(st.sampled_from((0, -1))))
        edges.append(rec)
    start, end = draw(st.sampled_from(((2000, 2010), (2003, 2007), (2010, 2000))))
    return build_record_set(nodes, edges, dataset_start=start, dataset_end=end)

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

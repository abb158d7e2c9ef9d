"""Brute-force reference routes, deliberately unrelated to the package internals.

Everything here trades speed for obviousness: dense matrices, double loops,
exhaustive subset and partition enumeration. Tests compare the fast package
code against these on small inputs.
"""

from __future__ import annotations

import csv
import itertools
import random
import statistics
from collections import Counter
from fractions import Fraction
from math import comb, floor, inf, sqrt

import numpy as np

from gridpanel import ChangeEvent, EdgeRecord, Graph, NodeRecord, ParseError, build_record_set
from gridpanel.metrics import METRIC_NAMES
from gridpanel.records import (
    EDGE_HEADER,
    EVENT_HEADER,
    EVENT_KINDS,
    NODE_HEADER,
    _int_field,
    _opt_float_field,
    _opt_year_field,
    _year_field,
)


def index_of(graph) -> dict:
    return {node: i for i, node in enumerate(graph.nodes)}


def adjacency_matrix(graph) -> np.ndarray:
    n = graph.n_nodes
    idx = index_of(graph)
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in graph.edges():
        a[idx[u], idx[v]] = 1
        a[idx[v], idx[u]] = 1
    return a


def distance_matrix(graph) -> np.ndarray:
    """Floyd-Warshall over a dense float matrix."""
    n = graph.n_nodes
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    a = adjacency_matrix(graph)
    d[a == 1] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def path_stats(graph):
    """(avg shortest path, diameter, efficiency, reachable pair fraction)."""
    n = graph.n_nodes
    d = distance_matrix(graph)
    off = ~np.eye(n, dtype=bool)
    finite = np.isfinite(d) & off
    total = n * (n - 1)
    reached = int(finite.sum())
    efficiency = float((1.0 / d[finite]).sum() / total) if total else 0.0
    if reached == 0:
        return None, None, 0.0, 0.0
    return (
        float(d[finite].mean()),
        int(d[finite].max()),
        efficiency,
        reached / total,
    )


def path_summary_by_bfs(graph):
    """(avg shortest path, diameter, efficiency, reachable pair fraction)
    from one plain breadth-first search per source node, with the same
    exact rational reduction as the package, so results compare by ``==``."""
    n = graph.n_nodes
    hist = Counter()
    for src in graph.nodes:
        dist = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in graph.neighbors(v):
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        for dv in dist.values():
            if dv:
                hist[dv] += 1
    total = n * (n - 1)
    reachable = sum(hist.values())
    if reachable == 0:
        return None, None, 0.0, 0.0
    avg = float(Fraction(sum(d * c for d, c in hist.items()), reachable))
    eff = float(sum(Fraction(c, d) for d, c in hist.items()) / total)
    return avg, max(hist), eff, float(Fraction(reachable, total))


def density(graph) -> float:
    n = graph.n_nodes
    return 2.0 * graph.n_edges / (n * (n - 1))


def mean_degree(graph) -> float:
    a = adjacency_matrix(graph)
    return float(a.sum(axis=1).mean()) if graph.n_nodes else 0.0


def clustering(graph, skip_low_degree=False) -> float:
    a = adjacency_matrix(graph)
    idx = index_of(graph)
    values = []
    for node in graph.nodes:
        neigh = [idx[m] for m in graph.neighbors(node)]
        k = len(neigh)
        if k < 2:
            if not skip_low_degree:
                values.append(0.0)
            continue
        linked = 0
        for i in range(k):
            for j in range(i + 1, k):
                if a[neigh[i], neigh[j]]:
                    linked += 1
        values.append(2.0 * linked / (k * (k - 1)))
    if not values:
        return 0.0
    return sum(values) / len(values)


def clustering_by_node_fractions(graph, skip_low_degree=False) -> float:
    """Mean local clustering with one exact ``Fraction`` per node, summed
    in node order, so results compare with the package by ``==``."""
    sets = {v: frozenset(graph.neighbors(v)) for v in graph.nodes}
    total = Fraction(0)
    eligible = 0
    for sv in sets.values():
        kv = len(sv)
        if kv < 2:
            continue
        eligible += 1
        linked_twice = sum(len(sets[u] & sv) for u in sv)
        total += Fraction(linked_twice, kv * (kv - 1))
    if skip_low_degree:
        return float(total / eligible) if eligible else 0.0
    return float(total / graph.n_nodes)


def reasons_by_rule(graph) -> dict[str, str]:
    """The reason code of every undefined metric in a ``metric_row``, from
    one chain of tests on node and edge counts, average degree and
    clustering, where the package reads each code from the kernel that
    raised it.

    Without an edge no pair is reachable. With average degree above one
    there is an edge and there are at least three nodes, so only the
    lattice clustering can still leave omega undefined.
    """
    n, e = graph.n_nodes, graph.n_edges
    if n == 0:
        return {name: "empty_graph" for name in METRIC_NAMES if name not in ("n_nodes", "n_edges")}
    reasons = {}
    if e == 0:
        reasons["modularity"] = "no_edges"
    if n < 2:
        for name in ("density", "avg_path_length", "diameter", "efficiency", "reachable_pair_fraction"):
            reasons[name] = "too_few_nodes"
    elif e == 0:
        reasons["avg_path_length"] = reasons["diameter"] = "no_reachable_pairs"
    if n < 3:
        reasons["clustering_lattice"] = "too_few_nodes"
    small_world = ("clustering_random", "path_length_random", "sigma", "omega", "omega_raw")
    avg_degree = Fraction(2 * e, n)
    if n < 2:
        reasons.update(dict.fromkeys(small_world, "too_few_nodes"))
    elif avg_degree <= 1:
        reasons.update(dict.fromkeys(small_world, "avg_degree_not_above_one"))
    else:
        # ring lattice with the even coordination nearest the average
        # degree (halves round up), at least 2, at most what n can host
        m = min(max(2, 2 * floor(avg_degree / 2 + Fraction(1, 2))), n - 1 if n % 2 else n - 2)
        ring = Graph(range(n), [(i, (i + j) % n) for i in range(n) for j in range(1, m // 2 + 1)])
        if clustering(ring) == 0 and clustering(graph) > 0:
            reasons["omega"] = reasons["omega_raw"] = "lattice_clustering_zero"
    return reasons


def modularity_pairwise(graph, assignment, gamma=1.0) -> float:
    """Double sum over all ordered node pairs, diagonal included."""
    a = adjacency_matrix(graph)
    idx = index_of(graph)
    degree = a.sum(axis=1)
    two_m = float(degree.sum())
    total = 0.0
    for u in graph.nodes:
        for v in graph.nodes:
            if assignment[u] != assignment[v]:
                continue
            i, j = idx[u], idx[v]
            total += a[i, j] - gamma * degree[i] * degree[j] / two_m
    return total / two_m


def set_partitions(items):
    """All partitions of a sequence into nonempty blocks (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def best_partition_exhaustive(graph, gamma=1.0):
    """(best modularity, one optimal partition as a set of frozensets)."""
    best_q = -inf
    best = None
    for blocks in set_partitions(graph.nodes):
        assignment = {node: i for i, block in enumerate(blocks) for node in block}
        q = modularity_pairwise(graph, assignment, gamma)
        if q > best_q:
            best_q = q
            best = frozenset(frozenset(block) for block in blocks)
    return best_q, best


def louvain_by_fractions(graph, gamma=1.0, seed=42):
    """(assignment, modularity) of seeded multi-level Louvain with every
    gain an exact ``Fraction``: dict adjacency keyed by level node, the
    visiting order shuffled once per level, the largest gain winning and
    equal gains going to the lowest community label, communities relabelled
    by smallest member, at most 64 passes per level."""
    gamma = Fraction(gamma)
    rng = random.Random(seed)
    idx = index_of(graph)
    adj = {idx[u]: {idx[v]: 1 for v in graph.neighbors(u)} for u in graph.nodes}
    two_m = 2 * graph.n_edges
    membership = list(range(graph.n_nodes))
    while True:
        k = {u: sum(nbrs.values()) for u, nbrs in adj.items()}
        comm = {u: u for u in adj}
        tot = dict(k)
        order = sorted(adj)
        rng.shuffle(order)
        for _ in range(64):
            improved = False
            for u in order:
                a = comm[u]
                tot[a] -= k[u]
                weights = {a: 0}
                for v, w in adj[u].items():
                    if v != u:
                        weights[comm[v]] = weights.get(comm[v], 0) + w
                gains = {c: w - gamma * k[u] * Fraction(tot[c], two_m) for c, w in weights.items()}
                best = max(gains.values())
                comm[u] = min(c for c, gain in gains.items() if gain == best)
                tot[comm[u]] += k[u]
                improved = improved or comm[u] != a
            if not improved:
                break
        groups = {}
        for u in sorted(adj):
            groups.setdefault(comm[u], []).append(u)
        to_new = {label: i for i, label in enumerate(groups)}
        membership = [to_new[comm[s]] for s in membership]
        if len(groups) == len(adj):
            break
        new_adj = {i: {} for i in range(len(groups))}
        for u, nbrs in adj.items():
            row = new_adj[to_new[comm[u]]]
            for v, w in nbrs.items():
                cv = to_new[comm[v]]
                row[cv] = row.get(cv, 0) + w
        adj = new_adj
    assignment = {node: membership[i] for i, node in enumerate(graph.nodes)}
    internal, degree_sum = Counter(), Counter()
    for u, v in graph.edges():
        if assignment[u] == assignment[v]:
            internal[assignment[u]] += 1
    for u in graph.nodes:
        degree_sum[assignment[u]] += graph.degree(u)
    q = sum(Fraction(internal[c], graph.n_edges) - gamma * Fraction(d, two_m) ** 2 for c, d in degree_sum.items())
    return assignment, float(q)


def triangles_by_subsets(graph) -> int:
    count = 0
    for trio in itertools.combinations(graph.nodes, 3):
        edges = sum(graph.has_edge(a, b) for a, b in itertools.combinations(trio, 2))
        if edges == 3:
            count += 1
    return count


def four_cycles_by_subsets(graph, chordless: bool) -> int:
    count = 0
    for quad in itertools.combinations(graph.nodes, 4):
        w, x, y, z = quad
        cycles = 0
        for order in ((w, x, y, z), (w, y, x, z), (w, x, z, y)):
            a, b, c, d = order
            if (
                graph.has_edge(a, b)
                and graph.has_edge(b, c)
                and graph.has_edge(c, d)
                and graph.has_edge(d, a)
            ):
                cycles += 1
        if chordless:
            edges = sum(graph.has_edge(a, b) for a, b in itertools.combinations(quad, 2))
            if cycles and edges == 4:
                count += 1
        else:
            count += cycles
    return count


def stars_by_subsets(graph, leaves: int, variant: str) -> int:
    count = 0
    for subset in itertools.combinations(graph.nodes, leaves + 1):
        for center in subset:
            rest = [node for node in subset if node != center]
            if not all(graph.has_edge(center, leaf) for leaf in rest):
                continue
            if variant == "induced" and any(
                graph.has_edge(a, b) for a, b in itertools.combinations(rest, 2)
            ):
                continue
            count += 1
    return count


def triangles_by_edge_intersections(graph) -> int:
    """Common neighbours of each edge's endpoints, summed over edges; each
    triangle is seen once per edge. Works on graphs too large to enumerate."""
    sets = graph.neighbor_sets()
    acc = 0
    for u, su in enumerate(sets):
        acc += sum(len(su & sets[v]) for v in su if v > u)
    return acc // 3


def four_cycles_by_wedge_pairs(graph, chordless: bool) -> int:
    """A dict of wedge counts filled by a double loop over every node's
    neighbour pairs; a diagonal pair with w common neighbours closes
    ``w choose 2`` cycles, and each cycle has two diagonals."""
    wedges = Counter()
    for nbrs in graph.neighbor_rows():
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                wedges[(nbrs[i], nbrs[j])] += 1
    if not chordless:
        return sum(comb(w, 2) for w in wedges.values()) // 2
    sets = graph.neighbor_sets()
    doubled = 0
    for (u, v), w in wedges.items():
        if w < 2 or v in sets[u]:
            continue
        common = sets[u] & sets[v]
        linked_pairs = sum(len(sets[x] & common) for x in common) // 2
        doubled += comb(w, 2) - linked_pairs
    return doubled // 2


def stars_by_neighbour_subsets(graph, leaves: int, variant: str) -> int:
    """Every ``leaves``-subset of every node's neighbours, kept when the
    variant allows it; linear in stars rather than in node subsets."""
    count = 0
    for center in graph.nodes:
        for rest in itertools.combinations(graph.neighbors(center), leaves):
            if variant == "induced" and any(
                graph.has_edge(a, b) for a, b in itertools.combinations(rest, 2)
            ):
                continue
            count += 1
    return count


def pair_at(index: int, n_nodes: int) -> tuple[int, int]:
    """Unrank one slot of the lexicographic list of node pairs
    ``(i, j)``, ``i < j``, from a square-root estimate of ``i``."""

    def pairs_before(i: int) -> int:
        return i * (2 * n_nodes - 1 - i) // 2

    i = int((2 * n_nodes - 1 - sqrt((2 * n_nodes - 1) ** 2 - 8 * index)) // 2)
    while pairs_before(i + 1) <= index:
        i += 1
    while pairs_before(i) > index:
        i -= 1
    return i, index - pairs_before(i) + i + 1


def erdos_renyi_by_unranking(n_nodes: int, n_edges: int, seed: int) -> Graph:
    """gen_erdos_renyi's graph from the same seeded sample of pair slots,
    each slot unranked on its own and the edges passed to the Graph
    constructor."""
    picks = random.Random(seed).sample(range(comb(n_nodes, 2)), n_edges)
    return Graph(range(n_nodes), [pair_at(idx, n_nodes) for idx in picks])


def moving_average_by_fractions(values, window: int) -> list:
    """Centered moving average, each window's mean an exact Fraction."""
    half = window // 2
    out = []
    for i in range(len(values)):
        picked = [Fraction(v) for v in values[max(0, i - half) : i + half + 1] if v is not None]
        out.append(float(sum(picked) / len(picked)) if picked else None)
    return out


def mean_and_std_by_statistics(values) -> tuple[float, float]:
    """``statistics.fmean`` and the root of ``statistics.pvariance``."""
    return statistics.fmean(values), sqrt(statistics.pvariance(values))


def snapshot_by_full_scan(records, year: int, voltage_floor_kv: int = 0) -> Graph:
    """A year's snapshot graph from checking every node and edge record,
    started or not, against the year and the floor."""

    def in_service(rec) -> bool:
        return (
            rec.voltage_kv >= voltage_floor_kv
            and rec.year_in <= year
            and (rec.year_out is None or year < rec.year_out)
        )

    alive_nodes = {rec.node_id for rec in records.nodes if in_service(rec)}
    pairs = {
        tuple(sorted((rec.node_a, rec.node_b)))
        for rec in records.edges
        if in_service(rec) and rec.node_a in alive_nodes and rec.node_b in alive_nodes
    }
    return Graph(alive_nodes, pairs)


def _rows_of(path: str, header) -> list[tuple[int, list[str]]]:
    # Every non-blank row of a CSV file with the line it starts on, read
    # whole before any field is parsed.
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, None, f"cannot read file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(path, 1, "empty file, expected a header row") from None
        if [c.strip() for c in first] != list(header):
            raise ParseError(path, 1, f"bad header, expected {','.join(header)}")
        rows = []
        start = reader.line_num + 1
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(path, line, f"expected {len(header)} fields, got {len(row)}")
            rows.append((line, row))
    return rows


def records_by_rows(node_file: str, edge_file: str, event_file: str | None = None, **kwargs):
    """``load_asset_records`` as a file-by-file reader: each file's rows
    are read and their field counts checked before any field is parsed,
    and every field goes through its grammar helper, row by row. The
    helpers are the package's own, the one home of the field grammar;
    what this checks is the loader's single pass, its kept values and
    shared events, and the order of its errors."""
    nodes = []
    for line, row in _rows_of(node_file, NODE_HEADER):
        node_id, label, voltage, y_in, y_out, lat, lon = row
        if node_id.strip() == "":
            raise ParseError(node_file, line, "node_id must not be empty")
        nodes.append(
            NodeRecord(
                node_id=node_id.strip(),
                label=label.strip(),
                voltage_kv=_int_field(voltage, "voltage_kv", node_file, line),
                year_in=_year_field(y_in, "year_in", node_file, line),
                year_out=_opt_year_field(y_out, "year_out", node_file, line),
                lat=_opt_float_field(lat, "lat", node_file, line),
                lon=_opt_float_field(lon, "lon", node_file, line),
            )
        )
    if not nodes:
        raise ParseError(node_file, None, "no node records")

    edge_fields = []
    for line, row in _rows_of(edge_file, EDGE_HEADER):
        edge_id, node_a, node_b, voltage, circuits, y_in, y_out = row
        if edge_id.strip() == "":
            raise ParseError(edge_file, line, "edge_id must not be empty")
        voltage_kv = _int_field(voltage, "voltage_kv", edge_file, line)
        n_circuits = _int_field(circuits, "circuits", edge_file, line)
        year_in = _year_field(y_in, "year_in", edge_file, line)
        year_out = _opt_year_field(y_out, "year_out", edge_file, line)
        edge_fields.append((edge_id.strip(), node_a.strip(), node_b.strip(), voltage_kv, year_in, year_out, n_circuits))

    by_edge: dict[str, list] = {}
    if event_file is not None:
        known = {fields[0] for fields in edge_fields}
        for line, row in _rows_of(event_file, EVENT_HEADER):
            edge_id, year, kind = (c.strip() for c in row)
            if kind not in EVENT_KINDS:
                raise ParseError(event_file, line, f"kind must be one of {', '.join(EVENT_KINDS)}, got {kind!r}")
            if edge_id not in known:
                raise ParseError(event_file, line, f"event for unknown edge_id {edge_id!r}")
            by_edge.setdefault(edge_id, []).append(ChangeEvent(year=_year_field(year, "year", event_file, line), kind=kind))

    edges = [
        EdgeRecord(*fields, events=tuple(sorted(by_edge.get(fields[0], ()), key=lambda ev: (ev.year, ev.kind))))
        for fields in edge_fields
    ]
    return build_record_set(nodes, edges, **kwargs)

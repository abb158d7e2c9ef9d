"""Brute-force reference routes, deliberately unrelated to the package internals.

Everything here trades speed for obviousness: dense matrices, double loops,
exhaustive subset and partition enumeration. Tests compare the fast package
code against these on small inputs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb, inf

import numpy as np

from gridpanel import Graph


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

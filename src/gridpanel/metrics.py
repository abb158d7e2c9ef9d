"""Whole-graph structure metrics and small-world diagnostics.

Conventions used throughout:

* Path statistics are taken over ordered reachable pairs only, and the
  fraction of reachable pairs is reported alongside so that values from
  fragmented years are never mistaken for connected ones.
* Efficiency treats unreachable pairs as contributing zero.
* Ratios of small integers are accumulated as exact rationals and
  converted to float once at the end. Results are therefore independent
  of node labelling and of summation order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, NamedTuple

from .errors import MetricUndefinedError, ParameterError
from .graph import AnnualSnapshot, Graph, as_graph, ring_lattice

# Truncated Euler-Mascheroni constant; the reference-path formula is
# conventionally quoted at four decimals, so keep it that way.
RANDOM_PATH_CONSTANT = 0.5772

# |omega| below this counts as small-world-compatible.
OMEGA_BAND = 0.7

METRIC_NAMES = (
    "n_nodes",
    "n_edges",
    "density",
    "avg_degree",
    "avg_path_length",
    "diameter",
    "clustering",
    "modularity",
    "efficiency",
    "clustering_random",
    "path_length_random",
    "clustering_lattice",
    "sigma",
    "omega",
    "omega_raw",
    "reachable_pair_fraction",
)


class PathSummary(NamedTuple):
    """Shortest-path statistics from one full breadth-first sweep."""

    avg_path_length: float | None
    diameter: int | None
    efficiency: float
    reachable_pair_fraction: float


class RandomBaselines(NamedTuple):
    """Expected clustering and path length of a random graph with the
    same node count and average degree."""

    clustering_random: float
    path_length_random: float


class Omega(NamedTuple):
    """Lattice-and-random small-world coefficient, clamped and raw."""

    value: float
    raw: float


@dataclass(frozen=True)
class CommunityPartition:
    """A node-to-community assignment with its achieved modularity.

    The detection is greedy, so ``modularity`` is a lower bound on the
    graph's optimum, not the optimum itself.
    """

    assignment: Mapping[Hashable, int]
    gamma: float
    seed: int
    modularity: float

    @property
    def n_communities(self) -> int:
        return len(set(self.assignment.values()))

    def communities(self) -> tuple[frozenset, ...]:
        """Member sets, ordered by community label."""
        groups: dict[int, set] = {}
        for node, label in self.assignment.items():
            groups.setdefault(label, set()).add(node)
        return tuple(frozenset(groups[label]) for label in sorted(groups))


@dataclass(frozen=True)
class MetricRow:
    """All per-year metrics, with reason codes for the undefined ones.

    ``reasons`` maps a metric name to a short code explaining why its
    value is None; metrics with values never appear in it.
    """

    year: int
    n_nodes: int
    n_edges: int
    density: float | None
    avg_degree: float | None
    avg_path_length: float | None
    diameter: int | None
    clustering: float | None
    modularity: float | None
    efficiency: float | None
    clustering_random: float | None
    path_length_random: float | None
    clustering_lattice: float | None
    sigma: float | None
    omega: float | None
    omega_raw: float | None
    reachable_pair_fraction: float | None
    reasons: Mapping[str, str]

    def as_dict(self) -> dict[str, float | int | None]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def link_density(g: Graph | AnnualSnapshot) -> float:
    """Fraction of possible links present: ``2E / (N (N - 1))``."""
    graph = as_graph(g)
    n = graph.n_nodes
    if n < 2:
        raise MetricUndefinedError("link density needs at least two nodes")
    return 2 * graph.n_edges / (n * (n - 1))


def average_degree(g: Graph | AnnualSnapshot) -> float:
    """Mean node degree: ``2E / N``."""
    graph = as_graph(g)
    if graph.n_nodes == 0:
        raise MetricUndefinedError("average degree needs at least one node")
    return 2 * graph.n_edges / graph.n_nodes


def apsp_summary(g: Graph | AnnualSnapshot) -> PathSummary:
    """Average shortest path, diameter, efficiency and pair coverage.

    All sources are swept at once, breadth-first: node ``i`` holds a
    bitset (a Python int) ``unseen[i]`` of the sources in its own
    connected component, other than ``i``, that have not reached it yet,
    and another of those that reached it at the last level. The component
    masks come from one O(n + m) pass over the rows. Each level ORs the
    last-level bitsets over a node's neighbors, keeps the bits still in
    ``unseen``, removes them from it, and counts them into a histogram of
    finite distances.

    Only active nodes, those with ``unseen`` nonzero, are walked; a node
    drops out once it has been reached from its whole component, and
    passes nothing on after the level at which it finished. An active
    node gains at least one source at every level: if some source is
    farther than ``d - 1`` from it, the breadth-first layers around it are
    contiguous, so some source sits at exactly ``d``, and distance is
    symmetric. The histogram therefore has no empty level and the sweep
    ends, at the diameter, when no node is active. That is about
    sum over i of ecc(i) * deg(i) ORs of n-bit integers, where visiting
    every node at every level took (diameter + 1) * 2m. Memory is three
    lists of n such integers (unseen, last level, next level), about
    3 * n**2 / 8 bytes, where one BFS per source needed O(n). Every
    statistic is read off the histogram with exact rationals, so the
    result does not depend on node labels or summation order.

    Averages run over ordered reachable pairs. With no reachable pair at
    all the path length and diameter are None while efficiency is 0.
    """
    graph = as_graph(g)
    n = graph.n_nodes
    if n < 2:
        raise MetricUndefinedError("path summary needs at least two nodes")
    rows = graph.neighbor_rows()
    unseen = _component_masks(rows)
    frontier = [1 << i for i in range(n)]
    active = [i for i in range(n) if unseen[i]]
    hist: dict[int, int] = {}
    d = 0
    while active:
        d += 1
        nxt = [0] * n
        found = 0
        still = []
        for i in active:
            reached = 0
            for j in rows[i]:
                reached |= frontier[j]
            new = reached & unseen[i]
            found += new.bit_count()
            nxt[i] = new
            left = unseen[i] ^ new
            unseen[i] = left
            if left:
                still.append(i)
        hist[d] = found
        frontier = nxt
        active = still

    total = n * (n - 1)
    reachable = sum(hist.values())
    if reachable == 0:
        return PathSummary(None, None, 0.0, 0.0)
    avg = float(Fraction(sum(d * c for d, c in hist.items()), reachable))
    eff = float(sum(Fraction(c, d) for d, c in hist.items()) / total)
    return PathSummary(avg, max(hist), eff, float(Fraction(reachable, total)))


def _component_masks(rows: tuple[tuple[int, ...], ...]) -> list[int]:
    """Entry ``i`` is the bitset of the positions in the connected
    component of ``i``, without ``i`` itself: 0 for an isolated node."""
    n = len(rows)
    masks = [0] * n
    placed = [False] * n
    for start in range(n):
        if placed[start]:
            continue
        placed[start] = True
        members = [start]
        for v in members:
            for w in rows[v]:
                if not placed[w]:
                    placed[w] = True
                    members.append(w)
        mask = sum(1 << v for v in members)
        for v in members:
            masks[v] = mask ^ (1 << v)
    return masks


def clustering_coefficient(g: Graph | AnnualSnapshot, *, skip_low_degree: bool = False) -> float:
    """Mean local clustering.

    A node's local coefficient is the fraction of its neighbor pairs
    that are themselves linked. Nodes with degree below two contribute
    zero by default; ``skip_low_degree=True`` drops them from the mean
    instead (0.0 if nothing is left).

    Nodes of one degree ``k`` share the denominator ``k (k - 1)``, so
    their linked-neighbor counts are summed as integers per degree and
    the mean is one exact rational sum over the distinct degrees: the
    same rational, and so the same float, as a sum over nodes.
    """
    graph = as_graph(g)
    n = graph.n_nodes
    if n == 0:
        raise MetricUndefinedError("clustering needs at least one node")
    sets = graph.neighbor_sets()
    linked_by_degree: dict[int, int] = {}
    eligible = 0
    for sv in sets:
        kv = len(sv)
        if kv < 2:
            continue
        eligible += 1
        linked_twice = sum(len(sets[u] & sv) for u in sv)
        linked_by_degree[kv] = linked_by_degree.get(kv, 0) + linked_twice
    total = sum((Fraction(t, k * (k - 1)) for k, t in linked_by_degree.items()), Fraction(0))
    if skip_low_degree:
        return float(total / eligible) if eligible else 0.0
    return float(total / n)


def modularity_of(
    g: Graph | AnnualSnapshot,
    assignment: Mapping[Hashable, int],
    gamma: float = 1.0,
) -> float:
    """Modularity of a given partition at resolution ``gamma``.

    Evaluated per community as (internal edge share) minus gamma times
    (degree share squared), which sums exactly the usual pairwise form
    including diagonal terms. Exact rational arithmetic keeps the result
    independent of community iteration order; the all-in-one partition
    yields exactly 0.0 at gamma 1.
    """
    _check_gamma(gamma)
    graph = as_graph(g)
    if graph.n_edges == 0:
        raise MetricUndefinedError("modularity needs at least one edge")
    missing = [v for v in graph.nodes if v not in assignment]
    if missing:
        raise ParameterError(f"assignment misses {len(missing)} nodes, e.g. {missing[0]!r}")
    community = [assignment[v] for v in graph.nodes]
    intra: Counter = Counter()
    ktot: Counter = Counter()
    for i, row in enumerate(graph.neighbor_rows()):
        c = community[i]
        ktot[c] += len(row)
        # each internal edge is seen from both ends, so it adds 2
        intra[c] += sum(1 for j in row if community[j] == c)
    return _modularity(intra.values(), ktot.values(), 2 * graph.n_edges, gamma)


def _modularity(internal: Iterable[int], degree_sums: Iterable[int], two_m: int, gamma: float) -> float:
    # sum over communities of in_c / 2m - gamma * (tot_c / 2m)**2, where
    # in_c counts each internal edge from both ends; with gamma = p / q
    # exactly, that is one integer ratio, rounded to float once.
    p, q = Fraction(gamma).as_integer_ratio()
    return float(Fraction(q * two_m * sum(internal) - p * sum(t * t for t in degree_sums), q * two_m * two_m))


def _check_gamma(gamma: float) -> None:
    if not math.isfinite(gamma):
        raise ParameterError(f"gamma must be a finite number, got {gamma!r}")


def _local_moving(
    adj: list[tuple[tuple[int, int], ...]],
    k: list[int],
    order: list[int],
    p: int,
    q: int,
) -> list[int]:
    # Weighted one-level pass over nodes 0..len(adj)-1: each node joins the
    # candidate community with the largest gain; equal gains go to the
    # lowest label. Scaled by q * 2m, the gain of community c for node u is
    # the integer q * 2m * w_c - p * k_u * tot_c, so the comparison is exact.
    size = len(adj)
    q_two_m = q * sum(k)
    comm = list(range(size))
    tot = k[:]
    acc = [0] * size  # weight from u to each community; zero between nodes
    for _ in range(64):  # converges in a handful of passes; cap is defensive
        improved = False
        for u in order:
            a = comm[u]
            ku = k[u]
            tot[a] -= ku
            row = adj[u]
            for v, w in row:
                acc[comm[v]] += w
            p_ku = p * ku
            best_c = a
            best_gain = q_two_m * acc[a] - p_ku * tot[a]
            # weights are positive, so a nonzero acc[c] marks a candidate
            # not yet scored; scoring it resets acc[c] for the next node
            for v, _w in row:
                c = comm[v]
                w_c = acc[c]
                if w_c:
                    acc[c] = 0
                    gain = q_two_m * w_c - p_ku * tot[c]
                    if gain > best_gain or (gain == best_gain and c < best_c):
                        best_gain, best_c = gain, c
            if best_c != a:
                comm[u] = best_c
                improved = True
            tot[best_c] += ku
        if not improved:
            break
    return comm


def modularity_detect(
    g: Graph | AnnualSnapshot,
    gamma: float = 1.0,
    seed: int = 42,
) -> CommunityPartition:
    """Greedy multi-level community detection (Louvain).

    Repeats local moving and community aggregation until no merge
    happens. The node visiting order is shuffled once per level from the
    seed. Gains are compared exactly, with ``gamma`` taken as its binary
    fraction; the largest gain wins and equal gains go to the lowest
    community label, so a given (graph, gamma, seed) always yields the
    same partition. Each level makes at most 64 passes.
    """
    _check_gamma(gamma)
    graph = as_graph(g)
    if graph.n_edges == 0:
        raise MetricUndefinedError("community detection needs at least one edge")
    n = graph.n_nodes
    p, q = Fraction(gamma).as_integer_ratio()
    # Level nodes are 0..size-1: adj[u] holds (v, weight) for v != u, and
    # loop[u] is u's self-weight, every internal edge counted from both ends.
    adj = [tuple((j, 1) for j in row) for row in graph.neighbor_rows()]
    loop = [0] * n
    k = [len(row) for row in adj]

    rng = random.Random(seed)
    membership = list(range(n))
    while True:
        size = len(adj)
        order = list(range(size))
        rng.shuffle(order)
        comm = _local_moving(adj, k, order, p, q)
        # Relabel communities 0..count-1 by first appearance in node order,
        # that is by smallest member, which keeps labels anchored to the
        # lowest original node id through levels.
        to_new = [-1] * size
        members: list[list[int]] = []
        for u in range(size):
            c = comm[u]
            if to_new[c] < 0:
                to_new[c] = len(members)
                members.append([])
            members[to_new[c]].append(u)
        node_to_new = [to_new[c] for c in comm]
        membership = [node_to_new[s] for s in membership]
        count = len(members)
        if count == size:
            break
        acc = [0] * count
        new_adj = []
        new_loop = []
        for cu, group in enumerate(members):
            self_weight = 0
            touched = []
            for u in group:
                self_weight += loop[u]
                for v, w in adj[u]:
                    cv = node_to_new[v]
                    if cv == cu:
                        self_weight += w
                    else:
                        if not acc[cv]:
                            touched.append(cv)
                        acc[cv] += w
            new_adj.append(tuple((cv, acc[cv]) for cv in touched))
            for cv in touched:
                acc[cv] = 0
            new_loop.append(self_weight)
        k = [sum(k[u] for u in group) for group in members]
        adj, loop = new_adj, new_loop

    assignment = {graph.nodes[i]: membership[i] for i in range(n)}
    return CommunityPartition(
        assignment=assignment,
        gamma=gamma,
        seed=seed,
        # every last-level node is its own community
        modularity=_modularity(loop, k, 2 * graph.n_edges, gamma),
    )


def random_baselines(n_nodes: int, avg_degree: float) -> RandomBaselines:
    """Closed-form random-graph references for clustering and path length.

    Clustering: ``k / N``. Path length: ``(ln N - 0.5772) / ln k + 0.5``.
    Defined for at least two nodes and average degree above one.
    """
    if n_nodes < 2:
        raise MetricUndefinedError("random-graph baselines need at least two nodes")
    if avg_degree <= 1.0:
        raise MetricUndefinedError("random-graph baselines need average degree above one")
    c_r = avg_degree / n_nodes
    l_r = (math.log(n_nodes) - RANDOM_PATH_CONSTANT) / math.log(avg_degree) + 0.5
    return RandomBaselines(c_r, l_r)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def lattice_clustering(n_nodes: int, avg_degree: float) -> float:
    """Clustering of a ring lattice matched to ``n_nodes`` and degree.

    The coordination number is the average degree rounded to the nearest
    even integer, floored at 2 and capped at what a ring of ``n_nodes``
    can host. The lattice is built explicitly and measured with
    :func:`clustering_coefficient` rather than approximated.
    """
    if n_nodes < 3:
        raise MetricUndefinedError("lattice reference needs at least three nodes")
    m = max(2, 2 * _round_half_up(avg_degree / 2))
    m_max = n_nodes - 1 if n_nodes % 2 else n_nodes - 2
    return clustering_coefficient(ring_lattice(n_nodes, min(m, m_max)))


def small_world_sigma(g: Graph | AnnualSnapshot) -> float:
    """Clustering-over-path-length ratio against random references:
    ``(C / C_rand) / (L / L_rand)``. Values above one indicate
    small-world structure."""
    graph = as_graph(g)
    paths = apsp_summary(graph)
    base = random_baselines(graph.n_nodes, average_degree(graph))
    return _sigma(paths, clustering_coefficient(graph), base)


def _sigma(paths: PathSummary, c: float, base: RandomBaselines) -> float:
    if paths.avg_path_length is None:
        raise MetricUndefinedError("sigma needs at least one reachable pair")
    return (c / base.clustering_random) / (paths.avg_path_length / base.path_length_random)


def is_small_world(sigma: float) -> bool:
    return sigma > 1.0


def small_world_omega(g: Graph | AnnualSnapshot) -> Omega:
    """Position between lattice (-1) and random (+1) structure:
    ``L_rand / L - C / C_lattice``.

    The raw value is clamped to [-1, 1]; both are returned. When the
    matched lattice has zero clustering the ratio is taken as zero if the
    graph's clustering is also zero, and undefined otherwise.
    """
    graph = as_graph(g)
    paths = apsp_summary(graph)
    k = average_degree(graph)
    base = random_baselines(graph.n_nodes, k)
    return _omega(paths, clustering_coefficient(graph), lattice_clustering(graph.n_nodes, k), base)


def _omega(paths: PathSummary, c: float, c_lattice: float, base: RandomBaselines) -> Omega:
    if paths.avg_path_length is None:
        raise MetricUndefinedError("omega needs at least one reachable pair")
    if c_lattice == 0.0:
        if c > 0.0:
            raise MetricUndefinedError("matched lattice clustering is zero, cannot normalize")
        ratio = 0.0
    else:
        ratio = c / c_lattice
    raw = base.path_length_random / paths.avg_path_length - ratio
    return Omega(min(1.0, max(-1.0, raw)), raw)


def omega_class(omega_value: float, band: float = OMEGA_BAND) -> str:
    """Classify an omega value: below -band lattice_like, above +band
    random_like, small_world in between."""
    if omega_value >= band:
        return "random_like"
    if omega_value <= -band:
        return "lattice_like"
    return "small_world"


def metric_row(snapshot: AnnualSnapshot, gamma: float = 1.0, seed: int = 42) -> MetricRow:
    """Evaluate every metric on one snapshot, recording why any is None."""
    graph = snapshot.graph
    n, e = graph.n_nodes, graph.n_edges
    reasons: dict[str, str] = {}
    values: dict[str, float | int | None] = {name: None for name in METRIC_NAMES}
    values["n_nodes"] = n
    values["n_edges"] = e

    def undefined(reason: str, *names: str) -> None:
        for name in names:
            reasons[name] = reason

    if n == 0:
        undefined("empty_graph", *[m for m in METRIC_NAMES if m not in ("n_nodes", "n_edges")])
        return MetricRow(year=snapshot.year, reasons=reasons, **values)

    values["avg_degree"] = k = average_degree(graph)
    values["clustering"] = c = clustering_coefficient(graph)

    if e == 0:
        undefined("no_edges", "modularity")
    else:
        values["modularity"] = modularity_detect(graph, gamma, seed).modularity

    if n < 2:
        undefined(
            "too_few_nodes",
            "density",
            "avg_path_length",
            "diameter",
            "efficiency",
            "reachable_pair_fraction",
        )
    else:
        values["density"] = link_density(graph)
        paths = apsp_summary(graph)
        values["efficiency"] = paths.efficiency
        values["reachable_pair_fraction"] = paths.reachable_pair_fraction
        if paths.avg_path_length is None:
            undefined("no_reachable_pairs", "avg_path_length", "diameter")
        else:
            values["avg_path_length"] = paths.avg_path_length
            values["diameter"] = paths.diameter

    if n < 3:
        undefined("too_few_nodes", "clustering_lattice")
    else:
        values["clustering_lattice"] = lattice_clustering(n, k)

    if n < 2:
        undefined("too_few_nodes", "clustering_random", "path_length_random", "sigma", "omega", "omega_raw")
        return MetricRow(year=snapshot.year, reasons=reasons, **values)
    if k <= 1.0:
        undefined("avg_degree_not_above_one", "clustering_random", "path_length_random", "sigma", "omega", "omega_raw")
        return MetricRow(year=snapshot.year, reasons=reasons, **values)

    base = random_baselines(n, k)
    values["clustering_random"] = base.clustering_random
    values["path_length_random"] = base.path_length_random

    # Average degree above one needs an edge and, with at most one edge
    # between two nodes, at least three nodes: paths and the lattice
    # reference are both set here, and a pair is reachable.
    values["sigma"] = _sigma(paths, c, base)
    try:
        values["omega"], values["omega_raw"] = _omega(paths, c, values["clustering_lattice"], base)
    except MetricUndefinedError:
        undefined("lattice_clustering_zero", "omega", "omega_raw")

    return MetricRow(year=snapshot.year, reasons=reasons, **values)


def metric_panel(
    snapshots: list[AnnualSnapshot],
    gamma: float = 1.0,
    seed: int = 42,
) -> list[MetricRow]:
    """Metric rows for a run of snapshots, one per year, in input order."""
    if not snapshots:
        raise ParameterError("metric panel needs at least one snapshot")
    return [metric_row(snap, gamma=gamma, seed=seed) for snap in snapshots]

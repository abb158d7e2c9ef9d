"""Reference-graph families for judging empirical efficiency.

Three families: uniform random graphs with an exact edge count, ring
lattices, and rewired ring lattices. The rewired family and the lattice
share a coordination number derived from the requested edge count, so
their edge totals can differ from the random family's; the achieved
count is reported per replicate rather than silently patched.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple

from .errors import MetricUndefinedError, ParameterError
from .graph import AnnualSnapshot, Graph, _from_rows, ring_lattice
from .metrics import _round_half_up, _sigma, apsp_summary, average_degree, clustering_coefficient, random_baselines

FAMILIES = ("erdos_renyi", "watts_strogatz", "ring_lattice")


class BaselineSpec(NamedTuple):
    """Generation parameters for one family ensemble."""

    family: str
    n_nodes: int
    n_edges: int | None = None
    coordination: int | None = None
    rewiring_p: float | None = None
    replicates: int = 1
    seed: int = 0


class BaselineEnsemble(NamedTuple):
    """Replicate metric rows plus per-metric mean and spread.

    ``achieved_edges`` documents the edge count the family actually
    produces, which for lattice-based families may differ from the
    requested one.
    """

    spec: BaselineSpec
    rows: tuple[dict[str, float], ...]
    mean: dict[str, float]
    std: dict[str, float]
    achieved_edges: int


def gen_ring_lattice(n_nodes: int, coordination: int) -> AnnualSnapshot:
    """Ring lattice where every node links to its nearest neighbors,
    half on each side. Coordination must be even, at least 2 and below
    the node count; the edge count is then exactly ``N * m / 2``."""
    _check_coordination(n_nodes, coordination)
    return _wrap(ring_lattice(n_nodes, coordination))


def gen_erdos_renyi(n_nodes: int, n_edges: int, seed: int) -> AnnualSnapshot:
    """Uniform random simple graph with exactly ``n_edges`` edges.

    Edge slots are drawn without replacement from the lexicographic list
    of node pairs ``(i, j)``, ``i < j``, so the same seed always returns
    the same graph.
    """
    if n_nodes < 1:
        raise ParameterError(f"need at least one node, got {n_nodes}")
    max_edges = n_nodes * (n_nodes - 1) // 2
    if not 0 <= n_edges <= max_edges:
        raise ParameterError(
            f"edge count {n_edges} outside 0..{max_edges} for {n_nodes} nodes"
        )
    rng = random.Random(seed)
    picks = rng.sample(range(max_edges), n_edges)
    picks.sort()
    # One ascending walk unranks the slots: the pairs with first node i
    # end just below ``stop``. Pairs arrive in lexicographic order, so
    # each row is filled in ascending order, lower neighbours first.
    rows: list[list[int]] = [[] for _ in range(n_nodes)]
    i, stop = 0, n_nodes - 1
    for idx in picks:
        while idx >= stop:
            i += 1
            stop += n_nodes - 1 - i
        j = idx - stop + n_nodes
        rows[i].append(j)
        rows[j].append(i)
    return _wrap_rows(n_nodes, map(tuple, rows))


def gen_watts_strogatz(n_nodes: int, coordination: int, rewiring_p: float, seed: int) -> AnnualSnapshot:
    """Ring lattice with each edge's far endpoint rewired with
    probability ``rewiring_p``.

    Rewiring targets are redrawn while they would create a self-loop or
    a duplicate edge, so the graph stays simple and keeps exactly
    ``N * m / 2`` edges. Probability 0 returns the pristine lattice.
    """
    _check_coordination(n_nodes, coordination)
    if not 0.0 <= rewiring_p <= 1.0:
        raise ParameterError(f"rewiring probability must lie in [0, 1], got {rewiring_p!r}")
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n_nodes)]
    for distance in range(1, coordination // 2 + 1):
        for near in range(n_nodes):
            far = (near + distance) % n_nodes
            adj[near].add(far)
            adj[far].add(near)
    for distance in range(1, coordination // 2 + 1):
        for near in range(n_nodes):
            if rng.random() >= rewiring_p:
                continue
            if len(adj[near]) >= n_nodes - 1:
                continue  # nothing left to rewire to
            far = (near + distance) % n_nodes
            while True:
                target = rng.randrange(n_nodes)
                if target != near and target not in adj[near]:
                    break
            adj[near].discard(far)
            adj[far].discard(near)
            adj[near].add(target)
            adj[target].add(near)
    return _wrap_rows(n_nodes, (tuple(sorted(row)) for row in adj))


def efficiency_comparison(
    n_nodes: int,
    n_edges: int,
    replicates: int,
    seed: int,
    *,
    rewiring_p: float = 0.1,
) -> dict[str, BaselineEnsemble]:
    """Efficiency (and sigma) ensembles for all three families.

    A fair comparison needs every family at the same node and edge
    count, but a ring lattice only exists at multiples of ``n_nodes / 2``
    edges. The requested ``n_edges`` is therefore quantized through the
    even coordination ``2 * round(n_edges / n_nodes)`` and all three
    families run at that matched count; each ensemble reports the
    residual via ``achieved_edges`` alongside the requested count.
    Raises when no feasible coordination exists.
    """
    if replicates < 1:
        raise ParameterError(f"need at least one replicate, got {replicates}")
    coordination = max(2, 2 * _round_half_up(n_edges / n_nodes)) if n_nodes else 0
    if n_nodes < 3 or coordination >= n_nodes:
        raise ParameterError(
            f"no ring lattice with {n_nodes} nodes can match {n_edges} edges "
            f"(derived coordination {coordination})"
        )
    max_edges = n_nodes * (n_nodes - 1) // 2
    if not 0 <= n_edges <= max_edges:
        raise ParameterError(f"edge count {n_edges} outside 0..{max_edges} for {n_nodes} nodes")
    matched_edges = n_nodes * coordination // 2

    out: dict[str, BaselineEnsemble] = {}

    spec = BaselineSpec("erdos_renyi", n_nodes, n_edges=n_edges, replicates=replicates, seed=seed)
    rows = [
        _measure(gen_erdos_renyi(n_nodes, matched_edges, child))
        for child in _child_seeds(seed, "erdos_renyi", replicates)
    ]
    out["erdos_renyi"] = _summarize(spec, rows, matched_edges)

    spec = BaselineSpec(
        "watts_strogatz",
        n_nodes,
        n_edges=n_edges,
        coordination=coordination,
        rewiring_p=rewiring_p,
        replicates=replicates,
        seed=seed,
    )
    rows = [
        _measure(gen_watts_strogatz(n_nodes, coordination, rewiring_p, child))
        for child in _child_seeds(seed, "watts_strogatz", replicates)
    ]
    out["watts_strogatz"] = _summarize(spec, rows, matched_edges)

    spec = BaselineSpec(
        "ring_lattice",
        n_nodes,
        n_edges=n_edges,
        coordination=coordination,
        replicates=replicates,
        seed=seed,
    )
    # deterministic family: one build, identical replicate rows
    row = _measure(gen_ring_lattice(n_nodes, coordination))
    out["ring_lattice"] = _summarize(spec, [dict(row) for _ in range(replicates)], matched_edges)
    return out


def _wrap(graph: Graph) -> AnnualSnapshot:
    return AnnualSnapshot(year=0, voltage_floor_kv=0, graph=graph)


def _wrap_rows(n_nodes: int, rows: Iterable[tuple[int, ...]]) -> AnnualSnapshot:
    # A graph on nodes 0..n_nodes-1 from its sorted, symmetric position
    # rows, which are then also its neighbour lists.
    nodes = tuple(range(n_nodes))
    return _wrap(_from_rows(nodes, dict(zip(nodes, nodes)), tuple(rows)))


def _check_coordination(n_nodes: int, coordination: int) -> None:
    if coordination % 2 or coordination < 2:
        raise ParameterError(f"coordination must be even and at least 2, got {coordination}")
    if coordination >= n_nodes:
        raise ParameterError(
            f"coordination {coordination} does not fit a ring of {n_nodes} nodes"
        )


def _child_seeds(seed: int, family: str, count: int) -> list[int]:
    # String seeding hashes via sha512, stable across platforms.
    rng = random.Random(f"{seed}:{family}")
    return [rng.getrandbits(63) for _ in range(count)]


def _measure(snapshot: AnnualSnapshot) -> dict[str, float]:
    paths = apsp_summary(snapshot)
    row: dict[str, float] = {"n_edges": float(snapshot.n_edges), "efficiency": paths.efficiency}
    try:
        base = random_baselines(snapshot.n_nodes, average_degree(snapshot))
        row["sigma"] = _sigma(paths, clustering_coefficient(snapshot), base)
    except MetricUndefinedError:
        pass  # degenerate replicate; left out of the sigma ensemble
    return row


def _summarize(spec: BaselineSpec, rows: list[dict[str, float]], achieved_edges: int) -> BaselineEnsemble:
    metrics = sorted({name for row in rows for name in row})
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in metrics:
        values = [row[name] for row in rows if name in row]
        n = len(values)
        mean[name] = math.fsum(values) / n
        # The root of the exact population variance, rounded once: with
        # the values scaled to integers X over one denominator D, it is
        # (n * sum(X**2) - sum(X)**2) / (n**2 * D**2).
        ratios = [value.as_integer_ratio() for value in values]
        common = math.lcm(*(q for _, q in ratios))
        scaled = [p * (common // q) for p, q in ratios]
        spread = n * sum(x * x for x in scaled) - sum(scaled) ** 2
        std[name] = math.sqrt(spread / (n * n * common * common))
    return BaselineEnsemble(
        spec=spec,
        rows=tuple(rows),
        mean=mean,
        std=std,
        achieved_edges=achieved_edges,
    )

"""Reference-graph families for judging empirical efficiency.

Three families: uniform random graphs with an exact edge count, ring
lattices, and rewired ring lattices. A ring lattice exists only at some
edge counts, so all three families run at the lattice's count nearest
the requested one; that achieved count is reported beside the request
rather than silently patched.
"""

from __future__ import annotations

import math
import random
from itertools import islice
from typing import Callable, Iterable, NamedTuple

from .config import check
from .errors import ParameterError
from .graph import AnnualSnapshot, Graph, _from_rows, ring_lattice
from .metrics import _lattice_coordination, _sigma_of, apsp_summary

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
    max_edges = _max_edges(n_nodes, n_edges)
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
    check("rewiring_p", rewiring_p)
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
    edges. The requested ``n_edges`` is therefore quantized through an
    even coordination, twice ``n_edges / n_nodes`` rounded half up and
    at least 2, and all three families run at that matched count; each
    ensemble reports the residual via ``achieved_edges`` alongside the
    requested count.
    Raises ParameterError, before any graph is generated, when no
    feasible coordination exists or when ``replicates``, ``n_edges`` or
    ``rewiring_p`` is out of range.
    """
    return _measure_plans([_plan(n_nodes, n_edges, replicates, seed, rewiring_p)], map)[0]


class _Plan(NamedTuple):
    # One efficiency_comparison's work: ``replicates`` Erdos-Renyi jobs,
    # as many Watts-Strogatz jobs, then the one ring lattice job, each a
    # (generator, args) pair that _measure runs; and what _ensembles
    # summarizes their rows with.
    specs: tuple[BaselineSpec, BaselineSpec, BaselineSpec]
    jobs: list[tuple[Callable[..., AnnualSnapshot], tuple]]
    achieved_edges: int


def _plan(n_nodes: int, n_edges: int, replicates: int, seed: int, rewiring_p: float) -> _Plan:
    check("replicates", replicates)
    check("rewiring_p", rewiring_p)
    coordination = _lattice_coordination(2 * n_edges / n_nodes) if n_nodes else 0
    if n_nodes < 3 or coordination >= n_nodes:
        raise ParameterError(
            f"no ring lattice with {n_nodes} nodes can match {n_edges} edges "
            f"(derived coordination {coordination})"
        )
    _max_edges(n_nodes, n_edges)
    matched_edges = n_nodes * coordination // 2

    specs = (
        BaselineSpec("erdos_renyi", n_nodes, n_edges=n_edges, replicates=replicates, seed=seed),
        BaselineSpec(
            "watts_strogatz",
            n_nodes,
            n_edges=n_edges,
            coordination=coordination,
            rewiring_p=rewiring_p,
            replicates=replicates,
            seed=seed,
        ),
        BaselineSpec(
            "ring_lattice",
            n_nodes,
            n_edges=n_edges,
            coordination=coordination,
            replicates=replicates,
            seed=seed,
        ),
    )
    jobs = [
        (gen_erdos_renyi, (n_nodes, matched_edges, child)) for child in _child_seeds(seed, "erdos_renyi", replicates)
    ]
    jobs += [
        (gen_watts_strogatz, (n_nodes, coordination, rewiring_p, child))
        for child in _child_seeds(seed, "watts_strogatz", replicates)
    ]
    jobs.append((gen_ring_lattice, (n_nodes, coordination)))
    return _Plan(specs, jobs, matched_edges)


def _measure_plans(plans: list[_Plan], spread: Callable) -> list[dict[str, BaselineEnsemble]]:
    # Each plan's three ensembles, the jobs of all plans measured as one
    # list by spread(_measure, jobs): map in the library, which never
    # forks, and the forked cli._spread_over_cpus in the baselines command.
    jobs = [job for plan in plans for job in plan.jobs]
    rows = iter(spread(_measure, jobs))
    return [_ensembles(plan, list(islice(rows, len(plan.jobs)))) for plan in plans]


def _ensembles(plan: _Plan, rows: list[dict[str, float]]) -> dict[str, BaselineEnsemble]:
    # The three ensembles from the rows of plan.jobs, in job order.
    er, ws, lattice = plan.specs
    replicates = er.replicates
    return {
        "erdos_renyi": _summarize(er, rows[:replicates], plan.achieved_edges),
        "watts_strogatz": _summarize(ws, rows[replicates:-1], plan.achieved_edges),
        # deterministic family: one build, identical replicate rows
        "ring_lattice": _summarize(lattice, [dict(rows[-1]) for _ in range(replicates)], plan.achieved_edges),
    }


def _wrap(graph: Graph) -> AnnualSnapshot:
    return AnnualSnapshot(year=0, voltage_floor_kv=0, graph=graph)


def _wrap_rows(n_nodes: int, rows: Iterable[tuple[int, ...]]) -> AnnualSnapshot:
    # A graph on nodes 0..n_nodes-1 from its sorted, symmetric position
    # rows, which are then also its neighbour lists.
    nodes = tuple(range(n_nodes))
    return _wrap(_from_rows(nodes, dict(zip(nodes, nodes)), tuple(rows)))


def _max_edges(n_nodes: int, n_edges: int) -> int:
    # The most edges a simple graph on n_nodes can hold; n_edges must fit.
    max_edges = n_nodes * (n_nodes - 1) // 2
    if not 0 <= n_edges <= max_edges:
        raise ParameterError(f"edge count {n_edges} outside 0..{max_edges} for {n_nodes} nodes")
    return max_edges


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


def _measure(job: tuple[Callable[..., AnnualSnapshot], tuple]) -> dict[str, float]:
    # A _plan job has n >= 3 nodes and average degree c, even, 2 <= c < n,
    # so some pair is reachable and sigma is defined.
    generator, args = job
    graph = generator(*args).graph
    paths = apsp_summary(graph)
    return {"n_edges": float(graph.n_edges), "efficiency": paths.efficiency, "sigma": _sigma_of(graph, paths)}


def _root_of_ratio(p: int, q: int) -> float:
    # The square root of p / q, p >= 0 and q > 0, rounded once to a float,
    # as CPython 3.11's statistics._float_sqrt_of_frac takes it. The ratio
    # is scaled by a power of four to at least 2 ** 108, so its integer
    # root has at least 55 bits, two past a float's 53; that root's last
    # bit is set when it is inexact (round to odd), so the one int/int
    # division that scales it back rounds as the exact root would.
    shift = (p.bit_length() - q.bit_length() - 109) // 2
    if shift >= 0:
        q <<= 2 * shift
    else:
        p <<= -2 * shift
    root = math.isqrt(p // q)
    root |= root * root * q != p
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _summarize(spec: BaselineSpec, rows: list[dict[str, float]], achieved_edges: int) -> BaselineEnsemble:
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in sorted(rows[0]):
        values = [row[name] for row in rows]
        n = len(values)
        # The exact mean, rounded once, and the root of the exact
        # population variance: with the values scaled to integers X over
        # one denominator D, they are sum(X) / (n * D) and the root of
        # (n * sum(X**2) - sum(X)**2) / (n**2 * D**2).
        ratios = [value.as_integer_ratio() for value in values]
        common = math.lcm(*(q for _, q in ratios))
        scaled = [p * (common // q) for p, q in ratios]
        total = sum(scaled)
        mean[name] = total / (n * common)
        spread = n * sum(x * x for x in scaled) - total ** 2
        std[name] = _root_of_ratio(spread, (n * common) ** 2)
    return BaselineEnsemble(
        spec=spec,
        rows=tuple(rows),
        mean=mean,
        std=std,
        achieved_edges=achieved_edges,
    )

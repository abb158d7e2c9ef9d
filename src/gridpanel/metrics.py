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
from typing import Any, Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .config import check
from .errors import MetricUndefinedError, ParameterError
from .graph import AnnualSnapshot, Graph, _wedges, as_graph, ring_lattice

# Truncated Euler-Mascheroni constant; the reference-path formula is
# conventionally quoted at four decimals, so keep it that way.
RANDOM_PATH_CONSTANT = 0.5772

# |omega| below this counts as small-world-compatible.
OMEGA_BAND = 0.7

# A tree with a node at least this deep under its root is tall, and
# apsp_summary folds it from both ends instead of sending its nodes
# through the sweep. Among the 50 Watts-Strogatz references of the
# seed-1 baselines benchmark input (177 nodes, 221 edges, coordination
# 2), 231 of 284 trees are tall and the deepest is 77 deep; the median
# sweep fell from 51 to 14 levels. In process (CPython 3.11.7, one CPU,
# medians of 21 paired rounds), depths 3, 4 and 6 timed within 6% of
# each other; 2 made the 70 growth-grid snapshots of the panel benchmark
# input 20% slower than 3, and 1 (every tree) 2.3 times as slow.
_TALL_DEPTH = 3


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


class CommunityPartition(NamedTuple):
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


class MetricRow(NamedTuple):
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


METRIC_NAMES = tuple(name for name in MetricRow._fields if name not in ("year", "reasons"))


def link_density(g: Graph | AnnualSnapshot) -> float:
    """Fraction of possible links present: ``2E / (N (N - 1))``."""
    graph = as_graph(g)
    n = graph.n_nodes
    if n < 2:
        raise MetricUndefinedError("link density needs at least two nodes", "too_few_nodes")
    return 2 * graph.n_edges / (n * (n - 1))


def average_degree(g: Graph | AnnualSnapshot) -> float:
    """Mean node degree: ``2E / N``."""
    graph = as_graph(g)
    if graph.n_nodes == 0:
        raise MetricUndefinedError("average degree needs at least one node", "empty_graph")
    return 2 * graph.n_edges / graph.n_nodes


def apsp_summary(g: Graph | AnnualSnapshot) -> PathSummary:
    """Average shortest path, diameter, efficiency and pair coverage.

    All sources are swept at once, breadth-first: node ``i`` holds a
    bitset (a Python int) ``unseen[i]`` of the sources, other than ``i``,
    that have not reached it yet, and another of those that reached it at
    the last level. Each level ORs the last-level bitsets over a node's
    neighbors, keeps the bits still in ``unseen``, removes them from it,
    and counts them into a histogram of finite distances.

    Only active nodes are walked. A node drops out at its first level
    that adds nothing, or once ``unseen`` is empty, and passes nothing on
    after the level at which it finished. Until then it gains a source at
    every level: if some source is farther than ``d - 1`` from it, the
    breadth-first layers around it are contiguous, so some source sits at
    exactly ``d``, and distance is symmetric. So a node that gains
    nothing has been reached from its whole component, and no component
    masks are needed. Only the last level, at which every node still
    active gains nothing, can be empty; it is not recorded.

    Only 2-core nodes are targets. The 2-core is what is left after
    repeatedly removing nodes of degree one or zero; each removed node is
    in a tree, and its parent is its one neighbor left when it goes. A
    tree whose top node is left in the 2-core hangs on that node, its
    root, and a tree node at depth ``t`` under root ``r`` is at
    ``t + d(r, y)`` from every node ``y`` outside ``r``'s tree, because
    every path out of the tree passes ``r``. A tree is tall if it has a
    node at depth ``_TALL_DEPTH`` or more, and short otherwise. So:

    * The sweep is one loop per level over the 2-core, each node reading
      its 2-core neighbors. A root is a 2-core node with a nonzero depth
      profile, how many of its tree nodes sit at each depth.
    * A short tree's node is a source that enters the sweep at its root
      at level ``t``. A root's own tree is not in its ``unseen``. A
      shortest path from a 2-core node to a source never enters a tree
      other than the source's own, so every 2-core node still gains a
      source at every level.
    * When root ``r`` finds ``c`` sources at level ``d``, its tree nodes
      at depth ``t`` find them at ``d + t``. ``r``'s profile times ``c``
      is added at level ``d``, summed over the roots.
    * A tall tree is folded from both ends instead. Its nodes are no
      sources: they are cleared from every ``unseen`` and never enter
      the sweep, so a deep tree does not keep the whole 2-core active
      until its deepest node arrives. Its root's profile is doubled, so
      the fold above counts each pair of a tree node and a source in
      both orders. A node of ``r``'s tall tree and one of ``q``'s are
      ``d(r, q)`` plus both depths apart: when ``r`` finds ``q``, the
      product of their profiles is added at level ``d(r, q)``, so each
      ordered pair is counted once from each end.
    * Pairs inside one tree, its root included, and in trees with no
      2-core at all, come from subtree profiles. With ``S_i`` the profile
      of child ``i``'s subtree one level down and ``s = sum(S_i)``, a
      node's ``2 * s + s**2 - sum(S_i**2)`` counts, by distance, the
      ordered pairs whose path turns at it: the node with each of its
      descendants, and descendants under different children.

    A profile is packed into one Python int, slot ``t`` counting distance
    ``t`` in ``width = 2 * n.bit_length() + 2`` bits, so a product of two
    profiles is their convolution, done exactly in C. Every slot of every
    packed value counts distinct nodes or distinct ordered pairs, at most
    four times over, so it stays below ``4 * n**2 < 2**width`` and never
    carries into the next.

    A short tree is at most ``_TALL_DEPTH - 1`` deep, so the sweep takes
    at most the largest eccentricity in the 2-core plus ``_TALL_DEPTH``
    levels, the last of which may be empty. The work is about the sum
    over 2-core nodes i of that many times core degree(i) ORs of n-bit
    integers, plus O(tree nodes) operations on packed ints of at most
    (tree height + diameter + 1) slots, one per root and level, and at
    most (number of tall roots)**2 pair terms. Memory is three lists of n
    n-bit integers (unseen, last level, next level), about 3 * n**2 / 8
    bytes, where one BFS per source needed O(n), plus at most one n-bit
    integer per tree node for the injected sources and profiles of
    O(n * width) bits. Every statistic is read off the histogram as one
    exact integer ratio, so the result does not depend on node labels or
    summation order.

    Averages run over ordered reachable pairs. With no reachable pair at
    all the path length and diameter are None while efficiency is 0.
    """
    graph = as_graph(g)
    n = graph.n_nodes
    if n < 2:
        raise MetricUndefinedError("path summary needs at least two nodes", "too_few_nodes")
    rows = graph.neighbor_rows()
    width = 2 * n.bit_length() + 2
    one = 1 << width

    # Peel degree-<=1 nodes. A node leaves after all its children, so
    # ``order`` lists children first, and its one neighbor still present,
    # if any, is its parent. below[v] is v's packed profile of
    # descendants, by depth under v; cross[v] counts, the same way, the
    # ordered pairs of them that sit under different children of v.
    degree = [len(row) for row in rows]
    parent = [-1] * n
    peeled = [False] * n
    order = [v for v in range(n) if degree[v] < 2]
    below: dict[int, int] = {}
    cross: dict[int, int] = {}
    pairs = 0
    for v in order:
        peeled[v] = True
        s = below.pop(v, 0)
        if s:
            pairs += 2 * s + cross.pop(v, 0)
            up = (s + 1) << width
        else:
            up = one
        for p in rows[v]:
            if not peeled[p]:
                parent[v] = p
                degree[p] -= 1
                if degree[p] == 1:
                    order.append(p)
                s = below.get(p, 0)
                if s:
                    cross[p] = cross.get(p, 0) + ((s * up) << 1)
                below[p] = s + up
                break

    # What is left in ``below`` are the roots, 2-core nodes that trees
    # hang on; profile[i] is 0 for all other nodes. Only a root has a
    # peeled neighbor, so only its row is cut down to the 2-core. A tall
    # root's profile is doubled, since it folds each source for both
    # orders of the pair.
    core_rows = list(rows)
    profile = [0] * n
    tall = []
    for r, s in below.items():
        pairs += 2 * s + cross.get(r, 0)
        profile[r] = s >> width
        if s >> (_TALL_DEPTH * width):
            profile[r] <<= 1
            tall.append(r)
        core_rows[r] = tuple(j for j in rows[r] if not peeled[j])
    # root[x] is the root x's tree hangs on, or -1 if the tree's nodes
    # are not sources: a tall tree, or a tree with no 2-core at all.
    # inject[t] maps each other root to the bits of its tree nodes at
    # depth t; hidden holds the bits of the nodes that are not sources.
    depth = [0] * n
    root = list(range(n))
    for r in tall:
        root[r] = -1
    inject: list[dict[int, int]] = [{}]
    hidden = 0
    for x in reversed(order):
        p = parent[x]
        r = root[x] = root[p] if p >= 0 else -1
        if r < 0:
            hidden |= 1 << x
            continue
        t = depth[x] = depth[p] + 1
        if t == len(inject):
            inject.append({})
        inject[t][r] = inject[t].get(r, 0) | (1 << x)

    active = [i for i in range(n) if not peeled[i]]
    sources = ((1 << n) - 1) ^ hidden
    unseen = [0] * n
    for i in active:
        unseen[i] = sources ^ (1 << i)
    for level in inject:
        for r, bits in level.items():
            unseen[r] ^= bits
    tall_mask = sum(1 << r for r in tall)
    frontier = [1 << i for i in range(n)]
    hist: dict[int, int] = {}
    d = 0
    while active:
        d += 1
        nxt = [0] * n
        found = fold = 0
        still = []
        for i in active:
            reached = 0
            for j in core_rows[i]:
                reached |= frontier[j]
            new = reached & unseen[i]
            c = new.bit_count()
            found += c
            if profile[i]:
                fold += c * profile[i]
            nxt[i] = new
            left = unseen[i] ^ new
            unseen[i] = left
            if new and left:
                still.append(i)
        if d < len(inject):
            for r, bits in inject[d].items():
                nxt[r] |= bits
        if found:
            hist[d] = found
        if fold:
            pairs += fold << (width * (d + 1))
        # Tall roots that meet at level d: both profiles are doubled, so
        # meet is four times the pairs of their trees' nodes, at d plus
        # both depths.
        meet = 0
        for r in tall:
            met = nxt[r] & tall_mask
            if met:
                near = 0
                while met:
                    low = met & -met
                    near += profile[low.bit_length() - 1]
                    met ^= low
                meet += profile[r] * near
        if meet:
            pairs += (meet >> 2) << (width * (d + 2))
        frontier = nxt
        active = still

    mask = one - 1
    d = 0
    while pairs:
        pairs >>= width
        d += 1
        c = pairs & mask
        if c:
            hist[d] = hist.get(d, 0) + c

    total = n * (n - 1)
    reachable = sum(hist.values())
    if reachable == 0:
        return PathSummary(None, None, 0.0, 0.0)
    # Each statistic is one int / int, which rounds correctly to a float;
    # efficiency's sum of c / d is taken over the lcm of the distances.
    common = math.lcm(*hist)
    eff = sum(c * (common // d) for d, c in hist.items()) / (common * total)
    return PathSummary(sum(d * c for d, c in hist.items()) / reachable, max(hist), eff, reachable / total)


def clustering_coefficient(g: Graph | AnnualSnapshot, *, skip_low_degree: bool = False) -> float:
    """Mean local clustering.

    A node's local coefficient is the fraction of its neighbor pairs
    that are themselves linked. Nodes with degree below two contribute
    zero by default; ``skip_low_degree=True`` drops them from the mean
    instead (0.0 if nothing is left).

    Linked neighbor pairs come off the wedge count the motif kernels
    read too: a linked pair (a, b) with w common neighbors gives a and
    b each w linked neighbor pairs that hold the other, so over its
    neighbors a node counts each of its linked pairs twice. Nodes of
    one degree ``k`` share the denominator ``k (k - 1)``, so these
    counts are summed as integers per degree, and the mean is one
    integer ratio over the lcm of the degrees' denominators: the same
    rational, and so the same float, as a sum over nodes.
    """
    graph = as_graph(g)
    n = graph.n_nodes
    if n == 0:
        raise MetricUndefinedError("clustering needs at least one node", "empty_graph")
    rows = graph.neighbor_rows()
    linked_by_degree: Counter[int] = Counter()
    for (a, b), w in _wedges(rows).items():
        if b in rows[a]:
            linked_by_degree[len(rows[a])] += w
            linked_by_degree[len(rows[b])] += w
    eligible = sum(len(row) > 1 for row in rows)
    common = math.lcm(*(k * (k - 1) for k in linked_by_degree))
    total = sum(t * (common // (k * (k - 1))) for k, t in linked_by_degree.items())
    if skip_low_degree:
        return total / (common * eligible) if eligible else 0.0
    return total / (common * n)


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
    check("gamma", gamma)
    graph = as_graph(g)
    if graph.n_edges == 0:
        raise MetricUndefinedError("modularity needs at least one edge", "no_edges")
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
    p, q = gamma.as_integer_ratio()
    return (q * two_m * sum(internal) - p * sum(t * t for t in degree_sums)) / (q * two_m * two_m)


def _local_moving(rows: Sequence[Sequence[int]], k: list[int], order: list[int], p: int, q: int) -> list[int]:
    """One-level pass over nodes 0..len(rows)-1 of a multigraph.

    Row u lists u's neighbors, never u itself, once per unit of edge
    weight, so u's weight to community c is its count of row entries in c.
    Each node joins the candidate community with the largest gain; equal
    gains go to the lowest label. Scaled by q * 2m, the gain of community
    c for node u is the integer q * 2m * w_c - p * k_u * tot_c, so the
    comparison is exact. The largest gain with the lowest label first is
    a total order, so the order of a row's entries cannot change a move.

    A node is scored again only if something it compares has changed.
    ``changed[c]`` is the move count at which ``tot[c]`` last changed, and
    ``scored[u]`` the move count right after u was last scored. A move
    stamps both the community left and the one joined. So if neither u's
    community nor any neighbor's has a later stamp than u's, no neighbor
    has moved and no candidate's ``tot`` has changed: every w_c and tot_c
    u would compare is the one it compared last time. The candidates are
    then those of its last scoring, less at most the community it left
    then, which lost. By the total order u would choose its community
    again, and it is skipped.
    """
    size = len(rows)
    q_two_m = q * sum(k)
    comm = list(range(size))
    tot = k[:]
    acc = [0] * size  # weight from u to each community; zero between nodes
    changed = [0] * size
    scored = [-1] * size
    moves = 0
    for _ in range(64):  # converges in a handful of passes; cap is defensive
        improved = False
        for u in order:
            row = rows[u]
            last = scored[u]
            if changed[comm[u]] <= last:
                for v in row:
                    if changed[comm[v]] > last:
                        break
                else:
                    continue
            a = comm[u]
            ku = k[u]
            for v in row:
                acc[comm[v]] += 1
            p_ku = p * ku
            # u's own community is scored without u, and only here
            best_c = a
            best_gain = q_two_m * acc[a] - p_ku * (tot[a] - ku)
            acc[a] = 0
            # a nonzero acc[c] marks a candidate not yet scored; scoring it
            # resets acc[c], for the entries still to come and the next node
            for v in row:
                c = comm[v]
                w_c = acc[c]
                if w_c:
                    acc[c] = 0
                    gain = q_two_m * w_c - p_ku * tot[c]
                    if gain > best_gain or (gain == best_gain and c < best_c):
                        best_gain, best_c = gain, c
            if best_c != a:
                comm[u] = best_c
                tot[a] -= ku
                tot[best_c] += ku
                moves += 1
                changed[a] = changed[best_c] = moves
                improved = True
            scored[u] = moves
        if not improved:
            break
    return comm


def _louvain_levels(g: Graph | AnnualSnapshot, gamma: float, seed: int) -> tuple[float, list[list[int]]]:
    """The modularity that Louvain reaches, and each merging level's map
    from its nodes to the next level's. ``loop[u]`` is level node u's
    self-weight, every internal edge counted from both ends, and ``k[u]``
    its degree, self-weight included."""
    check("gamma", gamma)
    check("seed", seed)
    graph = as_graph(g)
    if graph.n_edges == 0:
        raise MetricUndefinedError("community detection needs at least one edge", "no_edges")
    p, q = gamma.as_integer_ratio()
    rows: Sequence[Sequence[int]] = graph.neighbor_rows()
    k = list(map(len, rows))
    loop = [0] * len(rows)
    rng = random.Random(seed)
    maps = []
    while True:
        size = len(rows)
        order = list(range(size))
        rng.shuffle(order)
        comm = _local_moving(rows, k, order, p, q)
        # Relabel communities 0..count-1 by first appearance in node order,
        # that is by smallest member, which keeps labels anchored to the
        # lowest original node id through levels.
        first = dict.fromkeys(comm)
        count = len(first)
        if count == size:
            break
        labels = dict(zip(first, range(count)))
        to_new = list(map(labels.__getitem__, comm))
        maps.append(to_new)
        # A community's row is its members' rows in new labels, less the
        # entries of its own label, which are internal weight.
        new_rows: list[list[int]] = [[] for _ in range(count)]
        new_k = [0] * count
        new_loop = [0] * count
        for c, row, k_u, loop_u in zip(to_new, rows, k, loop):
            new_rows[c].extend(map(to_new.__getitem__, row))
            new_k[c] += k_u
            new_loop[c] += loop_u
        for c, row in enumerate(new_rows):
            own = row.count(c)
            if own:
                new_loop[c] += own
                new_rows[c] = [v for v in row if v != c]
        rows, k, loop = new_rows, new_k, new_loop
    # every last-level node is its own community
    return _modularity(loop, k, 2 * graph.n_edges, gamma), maps


def modularity_detect(g: Graph | AnnualSnapshot, gamma: float = 1.0, seed: int = 42) -> CommunityPartition:
    """Greedy multi-level community detection (Louvain).

    Repeats local moving and community aggregation until no merge
    happens. The node visiting order is shuffled once per level from the
    seed. Gains are compared exactly, with ``gamma`` taken as its binary
    fraction; the largest gain wins and equal gains go to the lowest
    community label, so a given (graph, gamma, seed) always yields the
    same partition. Each level makes at most 64 passes.

    Every level is a multigraph of neighbor rows, each neighbor listed
    once per unit of edge weight. Level 0 reads the graph's own rows; a
    community's row on the next level is its members' rows in the new
    labels. The assignment composes the levels' label maps.
    """
    modularity, maps = _louvain_levels(g, gamma, seed)
    graph = as_graph(g)
    membership: Sequence[int] = range(graph.n_nodes)
    for to_new in maps:
        membership = list(map(to_new.__getitem__, membership))
    assignment = dict(zip(graph.nodes, membership))
    return CommunityPartition(assignment=assignment, gamma=gamma, seed=seed, modularity=modularity)


def random_baselines(n_nodes: int, avg_degree: float) -> RandomBaselines:
    """Closed-form random-graph references for clustering and path length.

    Clustering: ``k / N``. Path length: ``(ln N - 0.5772) / ln k + 0.5``.
    Defined for at least two nodes and average degree above one.
    """
    check("n_nodes", n_nodes)
    check("avg_degree", avg_degree)
    if n_nodes < 2:
        raise MetricUndefinedError("random-graph baselines need at least two nodes", "too_few_nodes")
    if avg_degree <= 1.0:
        raise MetricUndefinedError("random-graph baselines need average degree above one", "avg_degree_not_above_one")
    c_r = avg_degree / n_nodes
    l_r = (math.log(n_nodes) - RANDOM_PATH_CONSTANT) / math.log(avg_degree) + 0.5
    return RandomBaselines(c_r, l_r)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _lattice_coordination(avg_degree: float) -> int:
    return max(2, 2 * _round_half_up(avg_degree / 2))


def lattice_clustering(n_nodes: int, avg_degree: float) -> float:
    """Clustering of a ring lattice matched to ``n_nodes`` and degree.

    The coordination number is the average degree rounded to the nearest
    even integer, floored at 2 and capped at what a ring of ``n_nodes``
    can host. A lattice is built explicitly and measured with
    :func:`clustering_coefficient` rather than approximated.

    It is the smallest ring with the same clustering. A ring lattice
    looks the same from every node, and with ``k = m / 2`` neighbours on
    each side and at least ``3k + 1`` nodes, no two neighbours of a node
    are linked around the far side of the ring. Every such ring has one
    clustering, so a ring of ``min(n_nodes, 3k + 1)`` nodes stands in.
    """
    check("n_nodes", n_nodes)
    check("avg_degree", avg_degree)
    if n_nodes < 3:
        raise MetricUndefinedError("lattice reference needs at least three nodes", "too_few_nodes")
    m = _lattice_coordination(avg_degree)
    m = min(m, n_nodes - 1 if n_nodes % 2 else n_nodes - 2)
    return clustering_coefficient(ring_lattice(min(n_nodes, 3 * (m // 2) + 1), m))


def small_world_sigma(g: Graph | AnnualSnapshot) -> float:
    """Clustering-over-path-length ratio against random references:
    ``(C / C_rand) / (L / L_rand)``. Values above one indicate
    small-world structure."""
    graph = as_graph(g)
    return _sigma_of(graph, apsp_summary(graph))


def _sigma_of(graph: Graph, paths: PathSummary) -> float:
    # small_world_sigma of a graph whose paths are already summarized.
    base = random_baselines(graph.n_nodes, average_degree(graph))
    return _sigma(paths, clustering_coefficient(graph), base)


def _sigma(paths: PathSummary, c: float, base: RandomBaselines) -> float:
    if paths.avg_path_length is None:
        raise MetricUndefinedError("sigma needs at least one reachable pair", "no_reachable_pairs")
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
        raise MetricUndefinedError("omega needs at least one reachable pair", "no_reachable_pairs")
    if c_lattice == 0.0:
        if c > 0.0:
            raise MetricUndefinedError("matched lattice clustering is zero, cannot normalize", "lattice_clustering_zero")
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
    """Evaluate every metric on one snapshot, recording why any is None.

    Each kernel owns its undefined rule: when it raises
    ``MetricUndefinedError``, every metric it feeds is None with the
    error's ``reason``. Sigma and omega take the reason of their first
    undefined input, the random baselines before the paths before the
    lattice, and are computed only when all their inputs are defined.
    ``gamma`` and ``seed`` are checked first, on an empty year too.
    """
    check("gamma", gamma)
    check("seed", seed)
    graph = snapshot.graph
    n = graph.n_nodes
    values: dict[str, float | int | None] = dict.fromkeys(METRIC_NAMES)
    values["n_nodes"] = n
    values["n_edges"] = graph.n_edges
    reasons: dict[str, str] = {}
    if n == 0:
        # Every metric but the counts is empty_graph here, although density
        # would say too_few_nodes and Louvain no_edges.
        reasons.update((m, "empty_graph") for m in METRIC_NAMES if m not in ("n_nodes", "n_edges"))
        return MetricRow(year=snapshot.year, reasons=reasons, **values)

    def fill(names: tuple[str, ...], kernel: Callable[..., Any], *args: Any, needs: tuple[str, ...] = ()) -> Any:
        # Store kernel(*args) under names and return it. If a metric in
        # needs is undefined, or the kernel raises, store that reason.
        for need in needs:
            if need in reasons:
                reasons.update(dict.fromkeys(names, reasons[need]))
                return None
        try:
            result = kernel(*args)
        except MetricUndefinedError as exc:
            reasons.update(dict.fromkeys(names, exc.reason))
            return None
        values.update(zip(names, result if len(names) > 1 else (result,)))
        return result

    k = values["avg_degree"] = average_degree(graph)
    c = values["clustering"] = clustering_coefficient(graph)
    fill(("modularity",), lambda: _louvain_levels(graph, gamma, seed)[0])
    fill(("density",), link_density, graph)
    paths = fill(PathSummary._fields, apsp_summary, graph)
    if paths is not None and paths.avg_path_length is None:
        reasons.update(dict.fromkeys(("avg_path_length", "diameter"), "no_reachable_pairs"))
    lattice = fill(("clustering_lattice",), lattice_clustering, n, k)
    base = fill(RandomBaselines._fields, random_baselines, n, k)
    # efficiency is undefined exactly when apsp_summary raised
    needs = ("clustering_random", "efficiency")
    fill(("sigma",), _sigma, paths, c, base, needs=needs)
    fill(("omega", "omega_raw"), _omega, paths, c, lattice, base, needs=needs + ("clustering_lattice",))
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

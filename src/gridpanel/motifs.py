"""Counts of small recurring subgraphs: triangles, 4-cycles and stars.

Triangles and 4-cycles come from one pair kernel, which reads a
``Counter`` of node pairs and the neighbours each pair has in common.
A whole graph feeds it its wedges: every pair of neighbours of every
centre, each unordered pair once, filled in a single C-level pass over
the position rows, so cost scales with wedges rather than with dense
node-triple or node-quadruple enumeration (Chiba and Nishizeki, SIAM J.
Comput. 1985). Cycle counting defaults to chordless 4-cycles, meaning
the four nodes induce exactly the cycle and nothing more; with
``chordless_only=False`` every distinct 4-cycle subgraph is counted,
chords or not. Stars come from one star kernel with two variants:
``subgraph`` takes any choice of center plus k neighbors, ``induced``
additionally requires the leaves to be pairwise unlinked. It counts
every leaf count asked of it at once, from ``C(degree, k)`` per centre
or from one depth-first pass over each centre's neighbours.

Along a year sweep, :func:`carried_motif_counts` carries the four totals
from one year to the next. It feeds the pair kernel the 2-walks from
some stations instead of the wedges: each pair of stations then appears
once from each end, so over every station the pair sums come out twice
the whole graph's. The sums split into per-station terms, and a
station's terms read only its own row and its neighbours' rows, so a
year recounts only the stations whose neighbourhood changed.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from math import comb
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .config import STAR_VARIANTS, check
from .errors import ParameterError
from .graph import AnnualSnapshot, Graph, NodeId, _wedges, as_graph

MOTIF_NAMES = ("triangle", "four_cycle", "three_star", "four_star")

# carried_motif_counts recounts a year from scratch once its changed
# stations number one in this many of the graph's. Each changed station
# brings its neighbours, and each of those is counted in two graphs, so
# near this share a carried year reads about as many 2-walks as a
# recount reads wedges. Timed year by year on grown and churned grids at
# 0 and 220 kV, a carried year is mostly the faster below it and the
# slower above, and the rule's choices cost within 1% of always taking
# the faster way over each grid's years.
RECOUNT_SHARE = 12


class MotifCounts(NamedTuple):
    """Raw motif counts for one snapshot year."""

    year: int
    triangles: int
    four_cycles: int
    three_stars: int
    four_stars: int
    variant: str
    chordless_only: bool

    @property
    def total(self) -> int:
        return self.triangles + self.four_cycles + self.three_stars + self.four_stars

    def as_dict(self) -> dict[str, int]:
        # each count field is its motif name in the plural
        return {name: getattr(self, f"{name}s") for name in MOTIF_NAMES}


class MotifShares(NamedTuple):
    """Counts normalized by the total over the four tracked motifs.

    ``total`` is kept so that an all-zero year (flagged by total 0) can
    be told apart from a year where one motif genuinely dominates.
    """

    year: int
    triangle: float
    four_cycle: float
    three_star: float
    four_star: float
    total: int

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in MOTIF_NAMES}


def _walks(rows: Sequence[tuple[int, ...]], positions: Collection[int]) -> Counter[tuple[int, int]]:
    # Key (a, c) for each station a at ``positions`` and each other
    # station c two steps from it; the value is the number of neighbours
    # a and c have in common. A pair of two such stations appears once
    # from each end.
    walks = Counter(
        chain.from_iterable(zip(repeat(a), chain.from_iterable(map(rows.__getitem__, rows[a]))) for a in positions)
    )
    for a in positions:
        del walks[a, a]
    return walks


def _pair_sums(
    rows: Sequence[tuple[int, ...]], pairs: Counter[tuple[int, int]], chordless_only: bool
) -> tuple[int, int]:
    # Over node pairs with w common neighbours each: the w triangles that
    # close on each linked pair, and the C(w, 2) 4-cycles with each pair
    # as a diagonal. A chordless 4-cycle also needs its diagonal pair
    # unlinked and its two middle corners unlinked, so each linked pair
    # among the common neighbours is one cycle fewer.
    closed = sum(w for (a, b), w in pairs.items() if b in rows[a])
    if not chordless_only:
        return closed, sum(map(comb, pairs.values(), repeat(2)))
    cycles = 0
    for (a, b), w in pairs.items():
        if w > 1 and b not in rows[a]:
            common = set(rows[a]).intersection(rows[b])
            cycles += comb(w, 2) - sum(len(common.intersection(rows[x])) for x in common) // 2
    return closed, cycles


def _stars(
    rows: Sequence[tuple[int, ...]], centres: Sequence[tuple[int, ...]], sizes: Sequence[int], induced: bool
) -> list[int]:
    # Stars centred on the stations whose rows are ``centres``, one total
    # per leaf count in ``sizes``: every choice of that many of a centre's
    # neighbours, or only the pairwise-unlinked choices if ``induced``.
    if not induced:
        degrees = list(map(len, centres))
        return [sum(map(comb, degrees, repeat(k))) for k in sizes]
    found = [0] * (max(sizes) + 1)
    for row in centres:
        _independent_subsets(row, rows, found)
    return [found[k] for k in sizes]


def count_triangles(g: Graph | AnnualSnapshot) -> int:
    """Number of triangles: the wedges whose end pair is linked.

    Every triangle closes three wedges, one per corner.
    """
    rows = as_graph(g).neighbor_rows()
    closed, _ = _pair_sums(rows, _wedges(rows), chordless_only=False)
    return closed // 3


def count_four_cycles(g: Graph | AnnualSnapshot, *, chordless_only: bool = True) -> int:
    """Number of 4-cycles, from the wedge count of each diagonal pair.

    A pair of nodes with w common neighbors closes ``w choose 2``
    cycles; summing over pairs counts every cycle twice, once per
    diagonal. The chordless variant keeps only unlinked diagonals and
    subtracts the linked pairs among their common neighbours, which is
    exactly the induced-cycle condition.
    """
    check("chordless_only", chordless_only)
    rows = as_graph(g).neighbor_rows()
    _, cycles = _pair_sums(rows, _wedges(rows), chordless_only)
    return cycles // 2


def count_stars(g: Graph | AnnualSnapshot, leaves: int, *, variant: str = "subgraph") -> int:
    """Number of stars with ``leaves`` leaves around any center.

    The subgraph variant counts every way to pick the leaves among a
    center's neighbors, ``C(degree, leaves)`` per center. The induced
    variant keeps only leaf sets with no internal links, found in one
    depth-first pass over each center's neighbors that counts the
    unlinked sets of every size up to ``leaves`` on the way.
    """
    check("leaves", leaves)
    if leaves < 1:
        raise ParameterError(f"a star needs at least one leaf, got {leaves}")
    check("variant", variant)
    rows = as_graph(g).neighbor_rows()
    return _stars(rows, rows, (leaves,), variant == "induced")[0]


def _independent_subsets(pool: Sequence[int], rows: Sequence[tuple[int, ...]], found: list[int]) -> None:
    # Adds to found[s] the pairwise-unlinked s-member subsets of the
    # sorted pool, for every s from 1 below len(found), in one depth-first
    # pass. Each member of a level's pool completes one subset of that
    # level's size; the next level's pool keeps the later members unlinked
    # to it. A stack, not a nested recursive function, leaves no reference
    # cycle for the paused collector.
    levels = [(pool, 1)]
    while levels:
        pool, size = levels.pop()
        found[size] += len(pool)
        if size + 1 < len(found):
            for idx, cand in enumerate(pool):
                row = rows[cand]
                levels.append(([c for c in pool[idx + 1 :] if c not in row], size + 1))


def motif_counts(
    g: Graph | AnnualSnapshot,
    *,
    chordless_only: bool = True,
    variant: str = "subgraph",
) -> MotifCounts:
    """All four motif counts for one graph or snapshot, with triangles
    and 4-cycles read from one wedge count."""
    check("chordless_only", chordless_only)
    check("variant", variant)
    year = g.year if isinstance(g, AnnualSnapshot) else 0
    rows = as_graph(g).neighbor_rows()
    closed, cycles = _pair_sums(rows, _wedges(rows), chordless_only)
    three_stars, four_stars = _stars(rows, rows, (3, 4), variant == "induced")
    return MotifCounts(year, closed // 3, cycles // 2, three_stars, four_stars, variant, chordless_only)


def motif_shares(counts: MotifCounts) -> MotifShares:
    """Normalize one year's counts; an all-zero year keeps zero shares."""
    total = counts.total
    raw = counts.as_dict()
    shares = {name: raw[name] / total if total else 0.0 for name in MOTIF_NAMES}
    return MotifShares(counts.year, total=total, **shares)


def carried_motif_counts(
    years: Iterable[tuple[AnnualSnapshot, Collection[NodeId]]],
    *,
    chordless_only: bool = True,
    variant: str = "subgraph",
) -> Iterator[MotifCounts]:
    """:func:`motif_counts` of each snapshot in ``years``, each year's
    totals carried from the year before.

    ``years`` pairs consecutive snapshots of one sweep with the stations,
    by label, whose neighbour set changed since the previous snapshot or
    that entered or left the graph, as :func:`gridpanel.records.year_changes`
    yields them; the first set must name every station of the first
    snapshot. Each year, the stations in the set and their neighbours in
    the new graph leave the totals with their terms in the old graph and
    enter them with their terms in the new one. No other station's terms
    can change: a station outside the set keeps its row, so a changed
    neighbour of it is in the set and has it as a neighbour this year.

    A year whose set's size times ``RECOUNT_SHARE`` is at least its
    graph's station count is recounted from scratch by
    :func:`motif_counts` instead, and so is the first year. Both ways give the same counts; the
    rule only picks the cheaper one. Both options are checked on the call.
    """
    check("chordless_only", chordless_only)
    check("variant", variant)
    return _carry(years, chordless_only, variant)


def _carry(
    years: Iterable[tuple[AnnualSnapshot, Collection[NodeId]]], chordless_only: bool, variant: str
) -> Iterator[MotifCounts]:
    # ``sums`` holds the kernels' totals over every station of the last
    # graph: the pair sums of its 2-walks, six times its triangles and
    # four times its 4-cycles, and its 3- and 4-stars. ``terms`` gives
    # the share of the stations at ``positions``.
    induced = variant == "induced"

    def terms(rows: Sequence[tuple[int, ...]], positions: Collection[int]) -> tuple[int, ...]:
        closed, cycles = _pair_sums(rows, _walks(rows, positions), chordless_only)
        return closed, cycles, *_stars(rows, [rows[a] for a in positions], (3, 4), induced)

    last = Graph(())
    sums = (0, 0, 0, 0)
    for snap, touched in years:
        graph = snap.graph
        if len(touched) * RECOUNT_SHARE < graph.n_nodes:
            nodes, rows = graph.nodes, graph.neighbor_rows()
            changed = graph.positions(touched)
            new = set(changed).union(chain.from_iterable(map(rows.__getitem__, changed)))
            old = last.positions({*touched, *map(nodes.__getitem__, new)})
            before, after = terms(last.neighbor_rows(), old), terms(rows, new)
            sums = tuple(total - was + now for total, was, now in zip(sums, before, after))
            counts = MotifCounts(snap.year, sums[0] // 6, sums[1] // 4, *sums[2:], variant, chordless_only)
        else:
            counts = motif_counts(snap, chordless_only=chordless_only, variant=variant)
            sums = (6 * counts.triangles, 4 * counts.four_cycles, counts.three_stars, counts.four_stars)
        yield counts
        last = graph

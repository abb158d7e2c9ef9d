"""Counts of small recurring subgraphs: triangles, 4-cycles and stars.

Triangles and 4-cycles are read from one wedge count per graph: a
``Counter`` over every pair of neighbours of every centre, filled in a
single C-level pass over the position rows, so cost scales with wedges
rather than with dense node-triple or node-quadruple enumeration
(Chiba and Nishizeki, SIAM J. Comput. 1985). Cycle counting defaults to
chordless 4-cycles, meaning the four nodes induce exactly the cycle and
nothing more; with ``chordless_only=False`` every distinct 4-cycle
subgraph is counted, chords or not. Star counting has two variants:
``subgraph`` takes any choice of center plus k neighbors, ``induced``
additionally requires the leaves to be pairwise unlinked.

Along a year sweep, :func:`carried_motif_counts` carries the four totals
from one year to the next. Each total is a sum of per-station terms, and
a station's terms read only its own row and its neighbours' rows, so a
year recounts only the stations whose neighbourhood changed.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, repeat
from math import comb
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .config import STAR_VARIANTS
from .errors import ParameterError
from .graph import AnnualSnapshot, Graph, NodeId, as_graph

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


def _wedges(rows: tuple[tuple[int, ...], ...]) -> Counter[tuple[int, int]]:
    # Key (a, b) with a < b, because rows are sorted; the value is the
    # number of neighbours a and b have in common.
    return Counter(chain.from_iterable(map(combinations, rows, repeat(2))))


def count_triangles(g: Graph | AnnualSnapshot) -> int:
    """Number of triangles: the wedges whose end pair is linked.

    Every triangle closes three wedges, one per corner.
    """
    rows = as_graph(g).neighbor_rows()
    return _triangles(rows, _wedges(rows))


def count_four_cycles(g: Graph | AnnualSnapshot, *, chordless_only: bool = True) -> int:
    """Number of 4-cycles, from the wedge count of each diagonal pair.

    A pair of nodes with w common neighbors closes ``w choose 2``
    cycles; summing over pairs counts every cycle twice, once per
    diagonal. The chordless variant keeps only unlinked diagonals and
    subtracts the linked pairs among their common neighbours, which is
    exactly the induced-cycle condition.
    """
    rows = as_graph(g).neighbor_rows()
    return _four_cycles(rows, _wedges(rows), chordless_only)


def _triangles(rows: tuple[tuple[int, ...], ...], wedges: Counter[tuple[int, int]]) -> int:
    closed = sum(w for (a, b), w in wedges.items() if b in rows[a])
    return closed // 3


def _four_cycles(rows: tuple[tuple[int, ...], ...], wedges: Counter[tuple[int, int]], chordless_only: bool) -> int:
    if not chordless_only:
        return sum(map(comb, wedges.values(), repeat(2))) // 2

    doubled = 0
    for (a, b), w in wedges.items():
        if w < 2 or b in rows[a]:
            continue
        common = set(rows[a]).intersection(rows[b])
        linked_pairs = sum(len(common.intersection(rows[x])) for x in common) // 2
        doubled += comb(w, 2) - linked_pairs
    return doubled // 2


def count_stars(g: Graph | AnnualSnapshot, leaves: int, *, variant: str = "subgraph") -> int:
    """Number of stars with ``leaves`` leaves around any center.

    The subgraph variant counts every way to pick the leaves among a
    center's neighbors, ``C(degree, leaves)`` per center. The induced
    variant keeps only leaf sets with no internal links.
    """
    if leaves < 1:
        raise ParameterError(f"a star needs at least one leaf, got {leaves}")
    _check_variant(variant)
    graph = as_graph(g)
    if variant == "subgraph":
        return sum(map(comb, map(len, graph.neighbor_rows()), repeat(leaves)))

    sets = graph.neighbor_sets()
    acc = 0
    for nbrs in graph.neighbor_rows():
        if len(nbrs) < leaves:
            continue
        acc += _independent_subsets(nbrs, sets, leaves)
    return acc


def _check_variant(variant: str) -> None:
    if variant not in STAR_VARIANTS:
        raise ParameterError(f"variant must be one of {', '.join(STAR_VARIANTS)}, got {variant!r}")


def _independent_subsets(
    candidates: tuple[int, ...], sets: Sequence[Collection[int]] | Mapping[int, Collection[int]], size: int
) -> int:
    # Depth-first choice of pairwise-unlinked members from a sorted pool.
    def extend(start: int, chosen: list) -> int:
        if len(chosen) == size:
            return 1
        found = 0
        for idx in range(start, len(candidates)):
            cand = candidates[idx]
            if all(cand not in sets[prev] for prev in chosen):
                chosen.append(cand)
                found += extend(idx + 1, chosen)
                chosen.pop()
        return found

    return extend(0, [])


def motif_counts(
    g: Graph | AnnualSnapshot,
    *,
    chordless_only: bool = True,
    variant: str = "subgraph",
) -> MotifCounts:
    """All four motif counts for one graph or snapshot, with triangles
    and 4-cycles read from one wedge count."""
    year = g.year if isinstance(g, AnnualSnapshot) else 0
    rows = as_graph(g).neighbor_rows()
    wedges = _wedges(rows)
    return MotifCounts(
        year=year,
        triangles=_triangles(rows, wedges),
        four_cycles=_four_cycles(rows, wedges, chordless_only),
        three_stars=count_stars(g, 3, variant=variant),
        four_stars=count_stars(g, 4, variant=variant),
        variant=variant,
        chordless_only=chordless_only,
    )


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
    rule only picks the cheaper one. The variant is checked on the call.
    """
    _check_variant(variant)
    return _carry(years, chordless_only, variant)


def _carry(
    years: Iterable[tuple[AnnualSnapshot, Collection[NodeId]]], chordless_only: bool, variant: str
) -> Iterator[MotifCounts]:
    # ``sums`` holds the station terms summed over the last graph: six
    # times its triangles, four times its 4-cycles and its 3- and 4-stars.
    induced = variant == "induced"
    last = Graph(())
    sums = (0, 0, 0, 0)
    for snap, touched in years:
        graph = snap.graph
        if len(touched) * RECOUNT_SHARE < graph.n_nodes:
            nodes, rows = graph.nodes, graph.neighbor_rows()
            changed = graph.positions(touched)
            new = set(changed).union(chain.from_iterable(map(rows.__getitem__, changed)))
            old = last.positions({*touched, *map(nodes.__getitem__, new)})
            before = _station_terms(last.neighbor_rows(), old, chordless_only, induced)
            after = _station_terms(rows, new, chordless_only, induced)
            sums = tuple(total - was + now for total, was, now in zip(sums, before, after))
            counts = MotifCounts(
                year=snap.year,
                triangles=sums[0] // 6,
                four_cycles=sums[1] // 4,
                three_stars=sums[2],
                four_stars=sums[3],
                variant=variant,
                chordless_only=chordless_only,
            )
        else:
            counts = motif_counts(snap, chordless_only=chordless_only, variant=variant)
            sums = (6 * counts.triangles, 4 * counts.four_cycles, counts.three_stars, counts.four_stars)
        yield counts
        last = graph


def _station_terms(
    rows: Sequence[tuple[int, ...]], positions: Iterable[int], chordless_only: bool, induced: bool
) -> tuple[int, int, int, int]:
    # Summed over the stations at ``positions``: twice the triangles on
    # each, the 4-cycles on each, and the 3- and 4-stars centred on each.
    # ``walks[c]`` counts the 2-walks from station a to c, which is the
    # number of neighbours a and c share. A neighbour c closes that many
    # triangles with a, so each triangle on a is seen from both of its
    # other corners. Any other station c with w shared neighbours is the
    # far corner of C(w, 2) 4-cycles through a; a chordless one also
    # needs c unlinked to a and its two middle corners unlinked.
    closed = cycles = three_stars = four_stars = 0
    for a in positions:
        row = rows[a]
        walks = Counter(chain.from_iterable(map(rows.__getitem__, row)))
        walks.pop(a, None)
        closed += sum(map(walks.__getitem__, row))
        if chordless_only:
            near = set(row)
            for c, w in walks.items():
                if w > 1 and c not in near:
                    common = near.intersection(rows[c])
                    cycles += comb(w, 2) - sum(len(common.intersection(rows[x])) for x in common) // 2
        else:
            cycles += sum(map(comb, walks.values(), repeat(2)))
        if induced:
            sets = {x: frozenset(rows[x]) for x in row}
            three_stars += _independent_subsets(row, sets, 3) if len(row) >= 3 else 0
            four_stars += _independent_subsets(row, sets, 4) if len(row) >= 4 else 0
        else:
            three_stars += comb(len(row), 3)
            four_stars += comb(len(row), 4)
    return closed, cycles, three_stars, four_stars

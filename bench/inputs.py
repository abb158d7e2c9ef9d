"""Seeded synthetic record sets for the benchmark workloads.

Two shapes, both stdlib-only and fully determined by their seed:

* ``geometric_growth``: the station count grows by a constant factor each
  year; a new station appears near an existing one and links to its
  nearest in-service neighbours, so the grid stays planar-ish with a long
  diameter, as real transmission grids do. A few corridors get parallel
  circuits, a few circuits are rebuilt, and a few hundred events are dated
  on live circuits.
* ``churn``: slower station growth over a longer span, and every year a
  fixed share of the live circuits is decommissioned and rebuilt on the
  same corridor. Most records are therefore dead in any given year, which
  is what makes snapshot scans and lifetime tables expensive.

Stations never retire, so every circuit's endpoints are in service for
its whole life and every generated set passes ``gridpanel validate``.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

NODE_HEADER = ("node_id", "label", "voltage_kv", "year_in", "year_out", "lat", "lon")
EDGE_HEADER = ("edge_id", "node_a", "node_b", "voltage_kv", "circuits", "year_in", "year_out")
EVENT_HEADER = ("edge_id", "year", "kind")

VOLTAGES = (132, 220, 400)
CHANGE_KINDS = ("split", "reroute", "voltage_upgrade", "other")

# geometric_growth: first year and stations in it; share of new stations
# that get a second link; share of new circuits that get a parallel record;
# shares of live circuits rebuilt, and given a change event, each year.
GROWTH_START_YEAR = 1950
GROWTH_INITIAL = 3
GROWTH_SECOND_LINK_P = 0.25
GROWTH_PARALLEL_P = 0.6
GROWTH_REBUILD_FRAC = 0.012
GROWTH_EVENT_FRAC = 0.003

# churn: as above, plus the share of rebuilds recorded with an explicit
# decommission event (the rest carry only year_out).
CHURN_START_YEAR = 1920
CHURN_INITIAL = 6
CHURN_SECOND_LINK_P = 0.45
CHURN_REBUILD_FRAC = 0.05
CHURN_DECOMMISSION_EVENT_P = 0.75
CHURN_EVENT_FRAC = 0.0085


@dataclass
class RecordRows:
    """CSV rows of one record set, plus the years it spans."""

    nodes: list[tuple]
    edges: list[tuple]
    events: list[tuple]

    @property
    def span(self) -> tuple[int, int]:
        """First and last year mentioned anywhere, as gridpanel infers it."""
        years = [row[3] for row in self.nodes]
        years += [row[5] for row in self.edges]
        years += [row[6] for row in self.edges if row[6] != ""]
        years += [row[1] for row in self.events]
        return (min(years), max(years))

    @property
    def n_years(self) -> int:
        start, end = self.span
        return end - start + 1


class _Grower:
    """Stations in the unit square, a bucket grid for nearest-neighbour
    queries, and the circuit and event rows built on top of them."""

    def __init__(self, rng: random.Random, expected_stations: int) -> None:
        self.rng = rng
        self.cell = 2.0 / math.sqrt(max(expected_stations, 1))
        self.reach = int(1.0 / self.cell) + 2
        self.buckets: dict[tuple[int, int], list[int]] = {}
        self.points: list[tuple[float, float]] = []
        self.node_rows: list[tuple] = []
        self.voltage: list[int] = []
        self.edge_rows: list[list] = []
        self.event_rows: list[tuple] = []

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return (int(x / self.cell), int(y / self.cell))

    def add_station(self, year: int) -> int:
        rng = self.rng
        if self.points and rng.random() < 0.9:
            px, py = self.points[rng.randrange(len(self.points))]
            x = min(1.0, max(0.0, rng.gauss(px, 0.04)))
            y = min(1.0, max(0.0, rng.gauss(py, 0.04)))
        else:
            x, y = rng.random(), rng.random()
        idx = len(self.points)
        self.points.append((x, y))
        self.buckets.setdefault(self._key(x, y), []).append(idx)
        volt = rng.choice(VOLTAGES)
        self.voltage.append(volt)
        self.node_rows.append(
            (_node_id(idx), f"station {idx}", volt, year, "", f"{45.5 + 3 * y:.5f}", f"{16.0 + 7 * x:.5f}")
        )
        return idx

    def nearest(self, idx: int, k: int) -> list[int]:
        """Up to ``k`` other stations closest to ``idx``, ties by index."""
        x, y = self.points[idx]
        cx, cy = self._key(x, y)
        found: list[tuple[float, int]] = []
        for ring in range(self.reach + 1):
            for gx in range(cx - ring, cx + ring + 1):
                for gy in range(cy - ring, cy + ring + 1):
                    if max(abs(gx - cx), abs(gy - cy)) != ring:
                        continue
                    for other in self.buckets.get((gx, gy), ()):
                        if other != idx:
                            ox, oy = self.points[other]
                            found.append(((ox - x) ** 2 + (oy - y) ** 2, other))
            if len(found) >= k:
                found.sort()
                if found[k - 1][0] <= (ring * self.cell) ** 2:
                    break
        found.sort()
        return [other for _dist, other in found[:k]]

    def add_circuit(self, a: int, b: int, year: int) -> int:
        if a > b:
            a, b = b, a
        row = [_edge_id(len(self.edge_rows)), _node_id(a), _node_id(b), min(self.voltage[a], self.voltage[b]), 1, year, ""]
        self.edge_rows.append(row)
        return len(self.edge_rows) - 1

    def add_parallel(self, edge: int) -> int:
        row = list(self.edge_rows[edge])
        row[0] = _edge_id(len(self.edge_rows))
        self.edge_rows.append(row)
        return len(self.edge_rows) - 1

    def connect(self, idx: int, year: int, second_link_p: float) -> list[int]:
        links = 2 if self.rng.random() < second_link_p else 1
        return [self.add_circuit(idx, other, year) for other in self.nearest(idx, links)]

    def rebuild(self, edge: int, year: int, decommission_event_p: float) -> int:
        """Retire ``edge`` in ``year`` and commission a replacement on the
        same corridor in the same year."""
        row = self.edge_rows[edge]
        row[6] = year
        if self.rng.random() < decommission_event_p:
            self.event_rows.append((row[0], year, "decommission"))
        replacement = list(row)
        replacement[0] = _edge_id(len(self.edge_rows))
        replacement[5] = year
        replacement[6] = ""
        self.edge_rows.append(replacement)
        return len(self.edge_rows) - 1

    def change_event(self, edge: int, year: int) -> None:
        kind = self.rng.choice(CHANGE_KINDS)
        self.event_rows.append((self.edge_rows[edge][0], year, kind))

    def rows(self) -> RecordRows:
        return RecordRows(
            nodes=list(self.node_rows),
            edges=[tuple(row) for row in self.edge_rows],
            events=sorted(self.event_rows),
        )


def _node_id(idx: int) -> str:
    return f"S{idx:05d}"


def _edge_id(idx: int) -> str:
    return f"C{idx:06d}"


def _start(grower: _Grower, year: int, initial: int) -> list[int]:
    """``initial`` stations in ``year``, each linked to its nearest one;
    returns the live circuits."""
    for _ in range(initial):
        grower.add_station(year)
    live: list[int] = []
    for idx in range(1, initial):
        live.extend(grower.connect(idx, year, 0.0))
    return live


def geometric_growth(seed: int, *, stations: int = 1200, years: int = 70) -> RecordRows:
    """A grid whose station count grows geometrically to ``stations``
    over ``years`` years, with a few parallel circuits, rebuilds and
    change events (rates above)."""
    rng = random.Random(f"geometric_growth:{seed}")
    grower = _Grower(rng, stations)
    live = _start(grower, GROWTH_START_YEAR, GROWTH_INITIAL)
    ratio = (stations / GROWTH_INITIAL) ** (1 / (years - 1))
    for offset in range(1, years):
        year = GROWTH_START_YEAR + offset
        target = round(GROWTH_INITIAL * ratio**offset)
        for _ in range(target - len(grower.points)):
            idx = grower.add_station(year)
            for edge in grower.connect(idx, year, GROWTH_SECOND_LINK_P):
                live.append(edge)
                if rng.random() < GROWTH_PARALLEL_P:
                    live.append(grower.add_parallel(edge))
        _churn_year(grower, live, year, GROWTH_REBUILD_FRAC, GROWTH_EVENT_FRAC, decommission_event_p=1.0)
    return grower.rows()


def churn(seed: int, *, stations: int = 3000, years: int = 100) -> RecordRows:
    """A long-lived grid where 5% of the live circuits are decommissioned
    and rebuilt every year.

    Stations arrive on a saturating curve, so the live circuit stock is
    large for most of the span and the accumulated dead records outnumber
    the live ones several times over.
    """
    rng = random.Random(f"churn:{seed}")
    grower = _Grower(rng, stations)
    live = _start(grower, CHURN_START_YEAR, CHURN_INITIAL)
    for offset in range(1, years):
        year = CHURN_START_YEAR + offset
        share = 1.0 - math.exp(-4.0 * offset / (years - 1))
        target = CHURN_INITIAL + round((stations - CHURN_INITIAL) * share / (1.0 - math.exp(-4.0)))
        for _ in range(target - len(grower.points)):
            idx = grower.add_station(year)
            live.extend(grower.connect(idx, year, CHURN_SECOND_LINK_P))
        _churn_year(grower, live, year, CHURN_REBUILD_FRAC, CHURN_EVENT_FRAC, CHURN_DECOMMISSION_EVENT_P)
    return grower.rows()


def _churn_year(
    grower: _Grower,
    live: list[int],
    year: int,
    rebuild_frac: float,
    event_p: float,
    decommission_event_p: float,
) -> None:
    rng = grower.rng
    for pos in rng.sample(range(len(live)), round(rebuild_frac * len(live))):
        if grower.edge_rows[live[pos]][5] == year:
            continue  # commissioned this year; a rebuild would be a zero-length record
        live[pos] = grower.rebuild(live[pos], year, decommission_event_p)
    for edge in rng.sample(live, round(event_p * len(live))):
        grower.change_event(edge, year)


def write_csvs(rows: RecordRows, directory: str) -> dict[str, str]:
    """Write ``nodes.csv``, ``edges.csv`` and ``events.csv`` into
    ``directory`` and return their paths by role."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for role, header, body in (
        ("nodes", NODE_HEADER, rows.nodes),
        ("edges", EDGE_HEADER, rows.edges),
        ("events", EVENT_HEADER, rows.events),
    ):
        path = os.path.join(directory, f"{role}.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(body)
        paths[role] = path
    return paths

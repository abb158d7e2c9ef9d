"""Asset records and their year-by-year network snapshots.

Life intervals are half-open: an asset with ``year_in=1975, year_out=1990``
is part of every snapshot from 1975 through 1989 and absent from 1990 on.
A missing ``year_out`` means the asset is still in service at the end of
the dataset span. Change events are dated inside the closed interval
``[year_in, year_out or dataset_end]``; a ``decommission`` event, when
present, must agree with ``year_out``.

Snapshots collapse parallel circuit records between the same pair of
stations into a single edge and keep isolated stations, so node counts
reflect equipment in service rather than connectivity.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import cached_property
from itertools import chain, islice
from math import isfinite
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .config import _ascii_number, check
from .errors import (
    IntervalError,
    ParseError,
    ReferentialError,
    ValidationFailedError,
    YearRangeError,
)
from .graph import AnnualSnapshot, Graph, _from_rows

EVENT_KINDS = ("split", "reroute", "voltage_upgrade", "decommission", "other")

# Kinds that end a line's undisturbed lifetime; "other" is bookkeeping only.
MAJOR_CHANGE_KINDS = ("split", "reroute", "voltage_upgrade", "decommission")

NODE_HEADER = ("node_id", "label", "voltage_kv", "year_in", "year_out", "lat", "lon")
EDGE_HEADER = ("edge_id", "node_a", "node_b", "voltage_kv", "circuits", "year_in", "year_out")
EVENT_HEADER = ("edge_id", "year", "kind")

_year_in = attrgetter("year_in")
_event_order = attrgetter("year", "kind")
# Record fields by position, for the passes over every record.
_identifier = itemgetter(0)
_node_year_in, _node_year_out = itemgetter(3), itemgetter(4)
_edge_year_in, _edge_year_out, _events = itemgetter(4), itemgetter(5), itemgetter(7)
_event_year = itemgetter(0)


class ChangeEvent(NamedTuple):
    """A dated change on an edge record."""

    year: int
    kind: str


class NodeRecord(NamedTuple):
    """A station or substation with its service interval."""

    node_id: str
    label: str
    voltage_kv: int
    year_in: int
    year_out: int | None = None
    lat: float | None = None
    lon: float | None = None


class EdgeRecord(NamedTuple):
    """A circuit between two stations with its service interval and events."""

    edge_id: str
    node_a: str
    node_b: str
    voltage_kv: int
    year_in: int
    year_out: int | None = None
    circuits: int = 1
    events: tuple[ChangeEvent, ...] = ()


class _AssetRecordSetFields(NamedTuple):
    nodes: tuple[NodeRecord, ...]
    edges: tuple[EdgeRecord, ...]
    dataset_start: int
    dataset_end: int
    country_tag: str = ""


class AssetRecordSet(_AssetRecordSetFields):
    """All records for one network plus the observed dataset span.

    A named tuple; the subclass keeps an instance ``__dict__``, which
    holds the cached lookup below.
    """

    @cached_property
    def by_year_in(self) -> tuple[tuple[NodeRecord, ...], tuple[EdgeRecord, ...]]:
        """Nodes and edges in ``year_in`` order, ties kept in identifier
        order, so a snapshot reads only the records that have started."""
        return tuple(sorted(self.nodes, key=_year_in)), tuple(sorted(self.edges, key=_year_in))


class Violation(NamedTuple):
    severity: str
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.upper()} {self.code} [{self.subject}]: {self.message}"


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "OK: no violations"
        return "\n".join(str(v) for v in self.violations)


@contextmanager
def _csv_rows(path: str, header: Sequence[str]) -> Iterator[Iterator[tuple[int, list[str]]]]:
    # (line, fields) for each non-blank row past the header row, which
    # must name ``header``; ``line`` is the line the row starts on, which a
    # quoted field with line breaks moves past the row count. A row of
    # another width raises. When the block raises ParseError, the rest of
    # the file is read first and a malformed row there is raised instead.
    # What the csv module or the UTF-8 decoder cannot read raises
    # ParseError too.
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(path, None, f"cannot read file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        width = len(header)

        def sized_rows() -> Iterator[tuple[int, list[str]]]:
            start = reader.line_num + 1
            for row in reader:
                line, start = start, reader.line_num + 1
                if len(row) == width:
                    yield line, row
                elif row:
                    raise ParseError(path, line, f"expected {width} fields, got {len(row)}") from None

        try:
            first = next(reader, None)
            if first is None:
                raise ParseError(path, 1, "empty file, expected a header row")
            if [c.strip() for c in first] != list(header):
                raise ParseError(path, 1, f"bad header, expected {','.join(header)}")
            rows = sized_rows()
            try:
                yield rows
            except ParseError:
                # After a field-count error ``rows`` is spent and reads nothing.
                for _ in rows:
                    pass
                raise
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, f"cannot read the row: {exc}") from None
        except UnicodeDecodeError:
            raise _not_utf8(path) from None


def _not_utf8(path: str) -> ParseError:
    # The decoder reads ahead of the csv reader, so the line is found again
    # from the bytes: the one that holds the first byte UTF-8 cannot decode.
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ParseError(path, line, f"not UTF-8 text: cannot decode byte {data[exc.start]:#04x}")
    return ParseError(path, None, "not UTF-8 text")


def _int_field(raw: str, name: str, path: str, line: int) -> int:
    # An optional sign and ASCII digits.
    try:
        return _ascii_number(int, raw.strip())
    except ValueError:
        raise ParseError(path, line, f"{name} must be an integer, got {raw!r}") from None


def _year_field(raw: str, name: str, path: str, line: int) -> int:
    # Four ASCII digits: four characters that int() reads as 1000 or more
    # hold neither a sign nor an underscore.
    text = raw.strip()
    try:
        year = int(text)
    except ValueError:
        year = 0
    if 1000 <= year <= 9999 and len(text) == 4 and text.isascii():
        return year
    _int_field(raw, name, path, line)  # a non-integer gets the integer message
    raise ParseError(path, line, f"{name} must be a 4-digit year, got {raw!r}")


def _opt_year_field(raw: str, name: str, path: str, line: int) -> int | None:
    if not raw or raw.isspace():
        return None
    return _year_field(raw, name, path, line)


def _opt_float_field(raw: str, name: str, path: str, line: int) -> float | None:
    if not raw or raw.isspace():
        return None
    try:
        value = _ascii_number(float, raw)
    except ValueError:
        raise ParseError(path, line, f"{name} must be a number, got {raw!r}") from None
    if not isfinite(value):
        raise ParseError(path, line, f"{name} must be a finite number, got {raw!r}")
    return value


def load_asset_records(
    node_file: str,
    edge_file: str,
    event_file: str | None = None,
    *,
    country_tag: str = "",
    dataset_start: int | None = None,
    dataset_end: int | None = None,
) -> AssetRecordSet:
    """Read records from CSV without enforcing cross-record integrity.

    Raises :class:`ParseError` on structural problems (text that is not
    UTF-8, a row the csv module cannot read, bad header, a row with another
    field count than the header's, non-integer field, unknown event kind,
    event for an unknown edge), naming the file and the line the row
    starts on. Blank rows are skipped. In each file the first malformed
    row is the one reported, even below a row with a bad field.
    Referential and interval integrity are left to
    :func:`validate_records`, so broken datasets can still be loaded and
    reported on. The dataset span defaults to the years observed in the
    data; pass ``dataset_start`` / ``dataset_end`` to pin it explicitly.
    """
    # Each file is read in one pass, each row's numbers parsed in column order.
    # Each distinct number text is parsed once by its field's grammar and
    # its value kept in ``ints`` or ``years``; a kept 0 or None reads as a
    # miss and is parsed again, and a text that fails is never kept, so
    # every error is raised, and worded, by the field's own helper.
    ints: dict[str, int] = {}
    years: dict[str, int | None] = {}
    # Each station id to itself, then each endpoint text read to the id it
    # names once stripped: a station's records and the edge endpoints that
    # name it share one string.
    ids: dict[str, str] = {}
    # Records are made by tuple.__new__, which skips their constructors'
    # argument handling.
    new = tuple.__new__
    nodes = []
    with _csv_rows(node_file, NODE_HEADER) as rows:
        for line, (node_id, label, voltage, y_in, y_out, lat, lon) in rows:
            node_id = node_id.strip()
            if not node_id:
                raise ParseError(node_file, line, "node_id must not be empty")
            node_id = ids.setdefault(node_id, node_id)
            voltage_kv = ints.get(voltage) or ints.setdefault(voltage, _int_field(voltage, "voltage_kv", node_file, line))
            year_in = years.get(y_in) or years.setdefault(y_in, _year_field(y_in, "year_in", node_file, line))
            year_out = (
                (years.get(y_out) or years.setdefault(y_out, _opt_year_field(y_out, "year_out", node_file, line)))
                if y_out
                else None
            )
            lat = _opt_float_field(lat, "lat", node_file, line) if lat else None
            lon = _opt_float_field(lon, "lon", node_file, line) if lon else None
            nodes.append(new(NodeRecord, (node_id, label.strip(), voltage_kv, year_in, year_out, lat, lon)))
    if not nodes:
        raise ParseError(node_file, None, "no node records")

    # Edge fields first, in EdgeRecord's order; each record is made once,
    # after its events are known.
    edge_fields = []
    with _csv_rows(edge_file, EDGE_HEADER) as rows:
        for line, (edge_id, node_a, node_b, voltage, circuits, y_in, y_out) in rows:
            edge_id = edge_id.strip()
            if not edge_id:
                raise ParseError(edge_file, line, "edge_id must not be empty")
            voltage_kv = ints.get(voltage) or ints.setdefault(voltage, _int_field(voltage, "voltage_kv", edge_file, line))
            n_circuits = ints.get(circuits) or ints.setdefault(circuits, _int_field(circuits, "circuits", edge_file, line))
            year_in = years.get(y_in) or years.setdefault(y_in, _year_field(y_in, "year_in", edge_file, line))
            year_out = (
                (years.get(y_out) or years.setdefault(y_out, _opt_year_field(y_out, "year_out", edge_file, line)))
                if y_out
                else None
            )
            node_a = ids.get(node_a) or ids.setdefault(node_a, ids.get(node_a.strip(), node_a.strip()))
            node_b = ids.get(node_b) or ids.setdefault(node_b, ids.get(node_b.strip(), node_b.strip()))
            edge_fields.append((edge_id, node_a, node_b, voltage_kv, year_in, year_out, n_circuits))

    by_edge: dict[str, Sequence[ChangeEvent]] = {}
    if event_file is not None:
        # Each edge id to itself, then each edge text read to the id it
        # names once stripped.
        known = {fields[0]: fields[0] for fields in edge_fields}
        # Each (year, kind) text pair read, and each stripped one, to its
        # ChangeEvent: one value per distinct year and kind.
        shared: dict[tuple[str, str], ChangeEvent] = {}
        with _csv_rows(event_file, EVENT_HEADER) as rows:
            for line, (edge_id, year, kind) in rows:
                event = shared.get((year, kind))
                edge = known.get(edge_id)
                if event is None or edge is None:
                    # A text not read before: the stripped kind, edge and
                    # year are checked, in that order.
                    name = kind.strip()
                    if name not in EVENT_KINDS:
                        raise ParseError(event_file, line, f"kind must be one of {', '.join(EVENT_KINDS)}, got {name!r}")
                    edge = edge_id.strip()
                    if edge not in known:
                        raise ParseError(event_file, line, f"event for unknown edge_id {edge!r}")
                    known[edge_id] = edge
                    if event is None:
                        text = year.strip()
                        event = shared.get((text, name)) or shared.setdefault(
                            (text, name), ChangeEvent(_year_field(text, "year", event_file, line), name)
                        )
                        shared[year, kind] = event
                by_edge.setdefault(edge, []).append(event)
    for edge_id, events in by_edge.items():
        by_edge[edge_id] = tuple(sorted(events, key=_event_order) if len(events) > 1 else events)
    edges = [new(EdgeRecord, (*fields, by_edge.get(fields[0], ()))) for fields in edge_fields]

    return build_record_set(
        nodes,
        edges,
        country_tag=country_tag,
        dataset_start=dataset_start,
        dataset_end=dataset_end,
    )


def build_record_set(
    nodes: Iterable[NodeRecord],
    edges: Iterable[EdgeRecord],
    *,
    country_tag: str = "",
    dataset_start: int | None = None,
    dataset_end: int | None = None,
) -> AssetRecordSet:
    """Assemble a record set, inferring the dataset span where not given.

    A missing bound is the least or greatest year that a record or event
    names; when none is named, as with zero records, it raises
    :class:`ParseError`. Records are sorted by identifier so that
    downstream results never depend on input row order.
    """
    check("year_start", dataset_start)
    check("year_end", dataset_end)
    # By identifier, then year_in: two stable sorts on one field each,
    # which compare faster than one sort on the pair.
    nodes = sorted(nodes, key=_node_year_in)
    nodes.sort(key=_identifier)
    edges = sorted(edges, key=_edge_year_in)
    edges.sort(key=_identifier)
    if dataset_start is None or dataset_end is None:
        # Every year a record or event names, and None for an open year_out.
        named = set().union(
            map(_node_year_in, nodes),
            map(_node_year_out, nodes),
            map(_edge_year_in, edges),
            map(_edge_year_out, edges),
            map(_event_year, chain.from_iterable(map(_events, edges))),
        )
        named.discard(None)
        if not named:
            raise ParseError("<records>", None, "cannot infer a dataset span from zero records")
        dataset_start = min(named) if dataset_start is None else dataset_start
        dataset_end = max(named) if dataset_end is None else dataset_end
    return AssetRecordSet(
        nodes=tuple(nodes),
        edges=tuple(edges),
        dataset_start=dataset_start,
        dataset_end=dataset_end,
        country_tag=country_tag,
    )


def validate_records(records: AssetRecordSet) -> ValidationReport:
    """Check every integrity rule and report all violations found."""
    out: list[Violation] = []

    def err(code: str, subject: str, message: str) -> None:
        out.append(Violation("error", code, subject, message))

    start, end = records.dataset_start, records.dataset_end
    open_end = end + 1  # where an interval without a year_out stops
    if start > end:
        err("span_reversed", "dataset", f"dataset_start {start} is after dataset_end {end}")

    # Each station id to its first record's year_in and the year its
    # service stops; a later record with the id is a duplicate.
    lives: dict[str, tuple[int, int]] = {}
    for node_id, _, voltage_kv, year_in, year_out, _, _ in records.nodes:
        if node_id in lives:
            err("duplicate_node_id", node_id, "node_id appears more than once")
        else:
            lives[node_id] = (year_in, open_end if year_out is None else year_out)
        if voltage_kv <= 0:
            err("nonpositive_voltage", node_id, f"voltage_kv must be positive, got {voltage_kv}")
        if year_out is not None and year_out < year_in:
            err("interval_reversed", node_id, f"year_out {year_out} is before year_in {year_in}")
        if not start <= year_in <= end or (year_out is not None and not start <= year_out <= end):
            err("year_outside_span", node_id, f"service interval leaves the dataset span {start}-{end}")

    seen_edges: set[str] = set()
    for edge_id, node_a, node_b, voltage_kv, year_in, year_out, circuits, events in records.edges:
        if edge_id in seen_edges:
            err("duplicate_edge_id", edge_id, "edge_id appears more than once")
        seen_edges.add(edge_id)
        if node_a == node_b:
            err("self_loop", edge_id, f"both endpoints are {node_a!r}")
        if voltage_kv <= 0:
            err("nonpositive_voltage", edge_id, f"voltage_kv must be positive, got {voltage_kv}")
        if circuits <= 0:
            err("nonpositive_circuits", edge_id, f"circuits must be positive, got {circuits}")
        if year_out is not None and year_out < year_in:
            err("interval_reversed", edge_id, f"year_out {year_out} is before year_in {year_in}")
        if not start <= year_in <= end or (year_out is not None and not start <= year_out <= end):
            err("year_outside_span", edge_id, f"service interval leaves the dataset span {start}-{end}")
        edge_end = open_end if year_out is None else year_out
        last_event_year = end if year_out is None else year_out

        for endpoint in (node_a, node_b):
            life = lives.get(endpoint)
            if life is None:
                err("unknown_endpoint", edge_id, f"endpoint {endpoint!r} is not a known node_id")
            elif life[0] > year_in or edge_end > life[1]:
                err(
                    "endpoint_dead",
                    edge_id,
                    f"endpoint {endpoint!r} is not in service for the whole edge interval",
                )

        for ev_year, kind in events:
            if not year_in <= ev_year <= last_event_year:
                err(
                    "event_out_of_range",
                    edge_id,
                    f"{kind} event in {ev_year} falls outside {year_in}-{last_event_year}",
                )
            if kind == "decommission" and ev_year != year_out:
                err(
                    "decommission_mismatch",
                    edge_id,
                    f"decommission event in {ev_year} disagrees with year_out {year_out}",
                )

    return ValidationReport(tuple(out))


_REFERENTIAL_CODES = frozenset({"unknown_endpoint", "endpoint_dead"})
_INTERVAL_CODES = frozenset(
    {"interval_reversed", "event_out_of_range", "year_outside_span", "span_reversed", "decommission_mismatch"}
)


def parse_asset_records(
    node_file: str,
    edge_file: str,
    event_file: str | None = None,
    *,
    country_tag: str = "",
    dataset_start: int | None = None,
    dataset_end: int | None = None,
) -> AssetRecordSet:
    """Load CSV files and return a fully validated record set.

    Any integrity violation raises: referential problems as
    :class:`ReferentialError`, interval problems as :class:`IntervalError`,
    anything else as :class:`ValidationFailedError`. The report on the
    exception lists every violation, not just the first.
    """
    records = load_asset_records(
        node_file,
        edge_file,
        event_file,
        country_tag=country_tag,
        dataset_start=dataset_start,
        dataset_end=dataset_end,
    )
    report = validate_records(records)
    if report.ok:
        return records
    codes = report.codes()
    if codes & _REFERENTIAL_CODES:
        raise ReferentialError(report)
    if codes & _INTERVAL_CODES:
        raise IntervalError(report)
    raise ValidationFailedError(report)


def snapshot_at(records: AssetRecordSet, year: int, voltage_floor_kv: int = 0) -> AnnualSnapshot:
    """Network state in ``year`` at or above the voltage floor.

    Nodes and edges below the floor are dropped; an edge also needs both
    endpoints present. Multiple circuit records between one station pair
    collapse to a single edge. Isolated nodes stay in.
    """
    check("voltage_floor_kv", voltage_floor_kv)
    _year_range_within(records, year, year)
    # Records are read in year_in order up to the first one not yet started.
    nodes, edges = records.by_year_in
    alive_nodes = {
        rec.node_id
        for rec in islice(nodes, bisect_right(nodes, year, key=_year_in))
        if rec.voltage_kv >= voltage_floor_kv and (rec.year_out is None or year < rec.year_out)
    }
    pairs = set()
    for rec in islice(edges, bisect_right(edges, year, key=_year_in)):
        if rec.voltage_kv < voltage_floor_kv or (rec.year_out is not None and rec.year_out <= year):
            continue
        if rec.node_a in alive_nodes and rec.node_b in alive_nodes:
            pairs.add((rec.node_a, rec.node_b) if rec.node_a < rec.node_b else (rec.node_b, rec.node_a))
    return AnnualSnapshot(year=year, voltage_floor_kv=voltage_floor_kv, graph=Graph(alive_nodes, pairs))


def _year_range_within(
    records: AssetRecordSet,
    start: int | None = None,
    end: int | None = None,
) -> tuple[int, int]:
    # Every command's range check; a missing end defaults to the span's.
    check("year_start", start)
    check("year_end", end)
    start = records.dataset_start if start is None else start
    end = records.dataset_end if end is None else end
    if start > end:
        raise YearRangeError(f"empty year range {start}-{end}")
    if start < records.dataset_start or end > records.dataset_end:
        raise YearRangeError(
            f"year range {start}-{end} leaves the dataset span "
            f"{records.dataset_start}-{records.dataset_end}"
        )
    return start, end


def build_panel(
    records: AssetRecordSet,
    year_range: tuple[int, int] | None = None,
    voltage_floor_kv: int = 0,
) -> list[AnnualSnapshot]:
    """One snapshot per year, ascending, over ``year_range`` (inclusive).

    The range defaults to the dataset span and must lie inside it.
    """
    start, end = _year_range_within(records, *(year_range or ()))
    return [snapshot_at(records, year, voltage_floor_kv) for year in range(start, end + 1)]


def year_snapshots(
    records: AssetRecordSet,
    start: int | None = None,
    end: int | None = None,
    voltage_floor_kv: int = 0,
) -> Iterator[AnnualSnapshot]:
    """One snapshot per year from ``start`` through ``end``, ascending,
    each equal to :func:`snapshot_at` for its year, built as consumed.

    The range defaults to the dataset span and is checked on the call.
    The records are read once: births and deaths are grouped by year and
    the years are walked once, keeping for each station its live record
    count and the far ends of its live circuit records. Every year's
    graph, the first one too, is the previous year's with only the rows
    of stations whose neighbourhood changed rebuilt; the first year is
    built this way from the empty graph.
    """
    return map(itemgetter(0), year_changes(records, start, end, voltage_floor_kv))


def year_changes(
    records: AssetRecordSet,
    start: int | None = None,
    end: int | None = None,
    voltage_floor_kv: int = 0,
) -> Iterator[tuple[AnnualSnapshot, set]]:
    """The sweep of :func:`year_snapshots`, each snapshot paired with the
    stations whose rows it rebuilt that year, by label.

    Every station whose neighbour set differs from the previous year's
    graph, or that entered or left the graph, is in the set; the first
    year's set holds every station of its graph. The set may also name
    stations whose row came out the same, or that are in neither graph.
    Each year's set is a new one, which the caller may keep or change.
    """
    start, end = _year_range_within(records, start, end)
    return _sweep(filter_by_voltage(records, voltage_floor_kv), start, end, voltage_floor_kv)


def _lives(recs: Sequence[NodeRecord] | Sequence[EdgeRecord], start: int, end: int) -> tuple[dict, dict]:
    # The records by the year they enter the walked years and by the year
    # they leave them; records with an empty life there are skipped.
    enter: dict[int, list] = {}
    leave: dict[int, list] = {}
    for rec in recs:
        first = max(rec.year_in, start)
        stop = end + 1 if rec.year_out is None else min(rec.year_out, end + 1)
        if first < stop:
            enter.setdefault(first, []).append(rec)
            if stop <= end:
                leave.setdefault(stop, []).append(rec)
    return enter, leave


def _sweep(
    scoped: AssetRecordSet, start: int, end: int, voltage_floor_kv: int
) -> Iterator[tuple[AnnualSnapshot, set]]:
    node_enter, node_leave = _lives(scoped.nodes, start, end)
    edge_enter, edge_leave = _lives(scoped.edges, start, end)
    alive: dict = {}  # station -> its live node records
    partners: dict = {}  # station -> the other end of each live edge record on it
    nodes, index, rows = (), {}, ()
    for year in range(start, end + 1):
        # Entries go first: what leaves in a year entered earlier, so a
        # count never drops to zero and comes back within the year.
        flipped = []
        for rec in node_enter.get(year, ()):
            count = alive.get(rec.node_id, 0)
            alive[rec.node_id] = count + 1
            if not count:
                flipped.append(rec.node_id)
        for rec in node_leave.get(year, ()):
            count = alive[rec.node_id] - 1
            if count:
                alive[rec.node_id] = count
            else:
                del alive[rec.node_id]
                flipped.append(rec.node_id)
        touched = set(flipped)
        for rec in edge_enter.get(year, ()):
            a, b = rec.node_a, rec.node_b
            if a not in partners:
                partners[a] = []
            if b not in partners:
                partners[b] = []
            if b not in partners[a]:
                touched.add(a)
                touched.add(b)
            partners[a].append(b)
            partners[b].append(a)
        for rec in edge_leave.get(year, ()):
            a, b = rec.node_a, rec.node_b
            partners[a].remove(b)
            partners[b].remove(a)
            if b not in partners[a]:
                touched.add(a)
                touched.add(b)
        for v in flipped:
            touched.update(partners.get(v, ()))
        nodes, index, rows = _next_rows(nodes, index, rows, alive, partners, flipped, touched)
        snapshot = AnnualSnapshot(year=year, voltage_floor_kv=voltage_floor_kv, graph=_from_rows(nodes, index, rows))
        yield snapshot, touched


def _next_rows(
    nodes: tuple, index: dict, rows: tuple, alive: dict, partners: dict, flipped: list, touched: set
) -> tuple[tuple, dict, tuple]:
    # The next year's sorted stations, their positions and their rows.
    # Untouched stations keep their rows, renumbered by the monotone map
    # from old to new positions; the rows of touched live stations are
    # rebuilt from their live partners.
    rows = list(rows)
    if flipped:
        gone = {v for v in flipped if v not in alive}
        born = [v for v in flipped if v in alive]
        kept = [v for v in nodes if v not in gone] if gone else list(nodes)
        kept += born
        kept.sort()
        old_nodes, old_index = nodes, index
        nodes = tuple(kept)
        # Positions below the first gone or born station are unchanged.
        first = min([old_index[v] for v in gone] + [bisect_left(kept, v) for v in born])
        index = dict(old_index)
        for v in gone:
            del index[v]
        index.update(zip(nodes[first:], range(first, len(nodes))))
        for i in sorted((old_index[v] for v in gone), reverse=True):
            del rows[i]
        for i in sorted(index[v] for v in born):
            rows.insert(i, ())
        remap = list(range(first))
        remap += [index.get(v, -1) for v in old_nodes[first:]]
        rows = [row if not row or row[-1] < first else tuple(map(remap.__getitem__, row)) for row in rows]
    for v in touched:
        if v in alive:
            near = partners.get(v, ())
            if v in near:
                raise ValueError(f"self-loop at node {v!r}")
            rows[index[v]] = tuple(sorted({index[u] for u in near if u in alive}))
    return nodes, index, tuple(rows)


def filter_by_voltage(records: AssetRecordSet, voltage_floor_kv: int) -> AssetRecordSet:
    """Sub-record-set at or above the floor, keeping the original span.

    Mirrors snapshot filtering: an edge survives only if its own voltage
    and both endpoint nodes pass. :func:`year_snapshots` reads its voltage
    and endpoint rule from here; :func:`snapshot_at` keeps its own copy as
    the reference the sweep is tested against.
    """
    check("voltage_floor_kv", voltage_floor_kv)
    nodes = tuple(rec for rec in records.nodes if rec.voltage_kv >= voltage_floor_kv)
    kept = {rec.node_id for rec in nodes}
    edges = tuple(
        rec
        for rec in records.edges
        if rec.voltage_kv >= voltage_floor_kv and rec.node_a in kept and rec.node_b in kept
    )
    return AssetRecordSet(
        nodes=nodes,
        edges=edges,
        dataset_start=records.dataset_start,
        dataset_end=records.dataset_end,
        country_tag=records.country_tag,
    )

import csv
import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_edge, make_node, small_record_sets, synthetic_records, write_fixture_csvs
from oracles import records_by_rows, snapshot_by_full_scan
from gridpanel import (
    ChangeEvent,
    EdgeRecord,
    Graph,
    IntervalError,
    NodeRecord,
    ParseError,
    ReferentialError,
    ValidationFailedError,
    YearRangeError,
    build_panel,
    build_record_set,
    filter_by_voltage,
    load_asset_records,
    parse_asset_records,
    snapshot_at,
    validate_records,
    year_snapshots,
)
from gridpanel import records as records_module
from gridpanel.records import EDGE_HEADER, EVENT_HEADER, EVENT_KINDS, NODE_HEADER, year_changes


def small_record_set(**kwargs):
    nodes = [make_node("A", 1960), make_node("B", 1962)]
    edges = [make_edge("AB", "A", "B", 1962)]
    return build_record_set(nodes, edges, **kwargs)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# -- loading ---------------------------------------------------------------


def test_load_from_csv(tmp_path, country_records):
    paths = write_fixture_csvs(country_records, tmp_path)
    loaded = load_asset_records(
        paths["nodes"], paths["edges"], paths["events"], country_tag="testland"
    )
    assert loaded.country_tag == "testland"
    assert len(loaded.nodes) == len(country_records.nodes)
    assert len(loaded.edges) == len(country_records.edges)
    assert loaded.dataset_start == 1950
    got = {e.edge_id: e.events for e in loaded.edges}
    want = {e.edge_id: e.events for e in country_records.edges}
    assert got == want


def test_records_are_frozen_hashable_tuples_through_csv_and_pickle(tmp_path, country_records):
    paths = write_fixture_csvs(country_records, tmp_path)
    loaded = load_asset_records(paths["nodes"], paths["edges"], paths["events"])
    assert loaded.nodes == country_records.nodes
    assert loaded.edges == country_records.edges
    assert set(loaded.edges) == set(country_records.edges)
    edge = next(rec for rec in loaded.edges if rec.events)
    for rec in (loaded.nodes[0], edge, edge.events[0]):
        plain = tuple(rec)
        assert rec == plain and hash(rec) == hash(plain)
        assert plain == tuple(getattr(rec, name) for name in rec._fields)
        copy = pickle.loads(pickle.dumps(rec))
        assert copy == rec and type(copy) is type(rec)
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], "changed")
        assert tuple(rec) == plain
    node_id, label, voltage_kv, year_in, year_out, lat, lon = loaded.nodes[0]
    assert loaded.nodes[0] == NodeRecord(node_id, label, voltage_kv, year_in, year_out, lat, lon)
    assert EdgeRecord("e", "A", "B", 220, 1990) == ("e", "A", "B", 220, 1990, None, 1, ())
    assert ChangeEvent(1990, "split") == (1990, "split")


def test_row_order_is_irrelevant(tmp_path, country_records):
    paths = write_fixture_csvs(country_records, tmp_path)
    rng = random.Random(11)
    for key in paths:
        with open(paths[key], encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        body = lines[1:]
        rng.shuffle(body)
        write_lines(tmp_path / f"shuffled_{key}.csv", [lines[0]] + body)
    shuffled = load_asset_records(
        str(tmp_path / "shuffled_nodes.csv"),
        str(tmp_path / "shuffled_edges.csv"),
        str(tmp_path / "shuffled_events.csv"),
    )
    base = load_asset_records(paths["nodes"], paths["edges"], paths["events"])
    assert shuffled.nodes == base.nodes
    assert shuffled.edges == base.edges


def test_span_inferred_from_years_seen(tmp_path):
    nodes = write_lines(
        tmp_path / "n.csv",
        [
            "node_id,label,voltage_kv,year_in,year_out,lat,lon",
            "A,a,220,1960,,,",
            "B,b,220,1962,,,",
        ],
    )
    edges = write_lines(
        tmp_path / "e.csv",
        [
            "edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out",
            "AB,A,B,220,1,1962,",
        ],
    )
    records = load_asset_records(nodes, edges)
    assert records.dataset_start == 1960
    assert records.dataset_end == 1962


def test_bad_header_reports_file_and_line(tmp_path):
    nodes = write_lines(tmp_path / "n.csv", ["node_id,oops", "A,x"])
    edges = write_lines(
        tmp_path / "e.csv", ["edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out"]
    )
    with pytest.raises(ParseError) as exc:
        load_asset_records(nodes, edges)
    assert "n.csv:1" in str(exc.value)


UNREADABLE_ROWS = {
    # A field longer than the csv module's 131,072-character limit.
    "oversized-field": (lambda width: ("x" * 200_000 + "," * (width - 1)).encode(), "field limit"),
    # A byte that does not start any UTF-8 sequence.
    "invalid-utf8": (lambda width: b"A\xff" + b"," * (width - 1), "not UTF-8 text"),
}


def write_role_files(tmp_path, broken_role=None, broken_row=b""):
    # Valid nodes, edges and events files; the broken role gets
    # ``broken_row`` as its third line.
    lines = {
        "nodes": [",".join(NODE_HEADER), "A,a,220,1960,,,", "B,b,220,1962,,,"],
        "edges": [",".join(EDGE_HEADER), "AB,A,B,220,1,1962,"],
        "events": [",".join(EVENT_HEADER), "AB,1970,split"],
    }
    paths = {}
    for role, rows in lines.items():
        data = "\n".join(rows[:2]).encode() + b"\n"
        if role == broken_role:
            data += broken_row + b"\n"
        data += "".join(row + "\n" for row in rows[2:]).encode()
        path = tmp_path / f"{role}.csv"
        path.write_bytes(data)
        paths[role] = str(path)
    return paths


@pytest.mark.parametrize("fault", UNREADABLE_ROWS)
@pytest.mark.parametrize("role,width", [("nodes", 7), ("edges", 7), ("events", 3)])
def test_unreadable_row_is_a_parse_error_naming_file_and_line(tmp_path, role, width, fault):
    row, words = UNREADABLE_ROWS[fault]
    paths = write_role_files(tmp_path, role, row(width))
    with pytest.raises(ParseError) as exc:
        load_asset_records(paths["nodes"], paths["edges"], paths["events"])
    assert (exc.value.source, exc.value.line) == (paths[role], 3)
    assert words in exc.value.message


def test_invalid_utf8_header_is_a_parse_error_on_line_one(tmp_path):
    paths = write_role_files(tmp_path)
    Path(paths["edges"]).write_bytes(b"edge_id\xc3,node_a\n")
    with pytest.raises(ParseError) as exc:
        load_asset_records(paths["nodes"], paths["edges"], paths["events"])
    assert (exc.value.source, exc.value.line) == (paths["edges"], 1)
    assert "not UTF-8" in exc.value.message


def test_short_row_rejected(tmp_path):
    nodes = write_lines(
        tmp_path / "n.csv",
        ["node_id,label,voltage_kv,year_in,year_out,lat,lon", "A,a,220"],
    )
    edges = write_lines(
        tmp_path / "e.csv", ["edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out"]
    )
    with pytest.raises(ParseError) as exc:
        load_asset_records(nodes, edges)
    assert ":2" in str(exc.value)


def test_non_integer_year_rejected(tmp_path):
    nodes = write_lines(
        tmp_path / "n.csv",
        ["node_id,label,voltage_kv,year_in,year_out,lat,lon", "A,a,220,soon,,,"],
    )
    edges = write_lines(
        tmp_path / "e.csv", ["edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out"]
    )
    with pytest.raises(ParseError):
        load_asset_records(nodes, edges)


def test_event_for_unknown_edge_rejected(tmp_path, country_records):
    paths = write_fixture_csvs(country_records, tmp_path)
    events = write_lines(tmp_path / "orphan.csv", ["edge_id,year,kind", "NOPE,1990,split"])
    with pytest.raises(ParseError):
        load_asset_records(paths["nodes"], paths["edges"], events)


def test_unknown_event_kind_rejected(tmp_path, country_records):
    paths = write_fixture_csvs(country_records, tmp_path)
    events = write_lines(
        tmp_path / "bad_kind.csv", ["edge_id,year,kind", "E000,1990,refurbished"]
    )
    with pytest.raises(ParseError):
        load_asset_records(paths["nodes"], paths["edges"], events)


def event_fixture(tmp_path, edge_rows, event_rows):
    nodes = write_lines(
        tmp_path / "n.csv",
        ["node_id,label,voltage_kv,year_in,year_out,lat,lon", "A,a,220,1960,,,", "B,b,220,1960,,,"],
    )
    edges = write_lines(tmp_path / "e.csv", ["edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out", *edge_rows])
    events = write_lines(tmp_path / "ev.csv", ["edge_id,year,kind", *event_rows])
    return nodes, edges, events


def test_loaded_events_sorted_shared_by_duplicates_and_empty_when_absent(tmp_path):
    files = event_fixture(
        tmp_path,
        ["AB,A,B,220,1,1960,", "AB,A,B,220,2,1965,", "BA,B,A,220,1,1961,"],
        ["AB,1970,split", "AB,1962,other", "AB,1970,reroute"],
    )
    records = load_asset_records(*files)
    want = (ChangeEvent(1962, "other"), ChangeEvent(1970, "reroute"), ChangeEvent(1970, "split"))
    assert [(e.edge_id, e.year_in, e.events) for e in records.edges] == [
        ("AB", 1960, want),
        ("AB", 1965, want),
        ("BA", 1961, ()),
    ]
    assert records.edges[1].circuits == 2


def test_bad_edge_field_reported_before_bad_event_row(tmp_path):
    files = event_fixture(tmp_path, ["AB,A,B,high,1,1960,"], ["AB,1970,refurbished"])
    with pytest.raises(ParseError) as exc:
        load_asset_records(*files)
    assert "e.csv:2" in str(exc.value)
    assert "voltage_kv" in str(exc.value)


STRICT_FIELD_CASES = [
    # (file, field, bad value, message)
    ("n.csv", "voltage_kv", "1_000", "must be an integer"),
    ("n.csv", "voltage_kv", "٢٢٠", "must be an integer"),
    ("n.csv", "year_in", "١٩٦٠", "must be an integer"),
    ("n.csv", "year_in", "+1960", "must be a 4-digit year"),
    ("n.csv", "year_out", "01970", "must be a 4-digit year"),
    ("n.csv", "lat", "nan", "must be a finite number"),
    ("n.csv", "lon", "inf", "must be a finite number"),
    ("n.csv", "lon", "-Infinity", "must be a finite number"),
    ("n.csv", "lat", "4_5.5", "must be a number"),
    ("n.csv", "lat", "٤٥.٥", "must be a number"),
    ("e.csv", "voltage_kv", "2_20", "must be an integer"),
    ("e.csv", "circuits", "١", "must be an integer"),
    ("e.csv", "year_in", "1_960", "must be an integer"),
    ("e.csv", "year_out", "１９７０", "must be an integer"),
    ("ev.csv", "year", "1_970", "must be an integer"),
]


@pytest.mark.parametrize("file,field,value,message", STRICT_FIELD_CASES)
def test_fields_take_ascii_digits_and_finite_numbers_only(tmp_path, file, field, value, message):
    rows = {
        "n.csv": dict(zip(NODE_HEADER, ("A", "a", "220", "1960", "", "45.5", "7.25"))),
        "e.csv": dict(zip(EDGE_HEADER, ("AB", "A", "B", "220", "1", "1960", ""))),
        "ev.csv": dict(zip(EVENT_HEADER, ("AB", "1970", "other"))),
    }
    rows[file][field] = value
    nodes = write_lines(tmp_path / "n.csv", [",".join(NODE_HEADER), ",".join(rows["n.csv"].values()), "B,b,220,1960,,,"])
    edges = write_lines(tmp_path / "e.csv", [",".join(EDGE_HEADER), ",".join(rows["e.csv"].values())])
    events = write_lines(tmp_path / "ev.csv", [",".join(EVENT_HEADER), ",".join(rows["ev.csv"].values())])
    with pytest.raises(ParseError) as exc:
        load_asset_records(nodes, edges, events)
    assert str(exc.value).startswith(f"{tmp_path / file}:2: {field} {message}, got {value!r}")


def test_signed_voltages_still_reach_validation(tmp_path):
    files = event_fixture(tmp_path, ["AB,A,B,-220,+1,1960,", "BA,B,A, +110 ,1,1961,"], [])
    records = load_asset_records(*files)
    assert [(e.voltage_kv, e.circuits) for e in records.edges] == [(-220, 1), (110, 1)]
    assert "nonpositive_voltage" in validate_records(records).codes()


def test_errors_name_the_line_a_record_starts_on(tmp_path):
    # The first record's quoted label spans lines 2-3; the second record
    # starts on line 4.
    nodes = write_lines(tmp_path / "nodes.csv", [",".join(NODE_HEADER), 'A,"two', 'lines",220,1960,,,', "B,b,220,soon,,,"])
    edges = write_lines(tmp_path / "edges.csv", [",".join(EDGE_HEADER)])
    with pytest.raises(ParseError) as exc:
        load_asset_records(nodes, edges)
    assert str(exc.value) == f"{nodes}:4: year_in must be an integer, got 'soon'"
    assert exc.value.line == 4


def test_loaded_events_share_one_value_per_year_and_kind(tmp_path):
    files = event_fixture(
        tmp_path, ["AB,A,B,220,1,1960,", "BA,B,A,220,1,1961,"], ["AB,1970,split", "BA, 1970 ,split", "BA,1970,other"]
    )
    ab, ba = load_asset_records(*files).edges
    assert ab.events == (ChangeEvent(1970, "split"),)
    assert ba.events == (ChangeEvent(1970, "other"), ChangeEvent(1970, "split"))
    assert ab.events[0] is ba.events[1]


# -- the loader against the file-by-file oracle ------------------------------


def load_outcome(load, files, **kwargs):
    """The record set a loader returns, or the type and text of its ParseError."""
    try:
        return load(*files, **kwargs)
    except ParseError as exc:
        return type(exc), str(exc)


def write_rows(directory, rows_by_file):
    """Write ``{name: rows}`` with their headers as CSV; return the three paths."""
    headers = {"nodes.csv": NODE_HEADER, "edges.csv": EDGE_HEADER, "events.csv": EVENT_HEADER}
    for name, header in headers.items():
        with open(directory / name, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows_by_file[name])
    return tuple(str(directory / name) for name in headers)


@pytest.mark.parametrize("kwargs", [{}, {"country_tag": "xx", "dataset_start": 1940, "dataset_end": 2030}])
def test_loader_equals_the_oracle_on_the_fixtures(tmp_path, country_records, planted_records, kwargs):
    for name, records in (("country", country_records), ("planted", planted_records)):
        (tmp_path / name).mkdir()
        paths = write_fixture_csvs(records, tmp_path / name)
        files = (paths["nodes"], paths["edges"], paths["events"])
        loaded = load_asset_records(*files, **kwargs)
        assert loaded == records_by_rows(*files, **kwargs)
        assert loaded.edges == tuple(sorted(records.edges, key=lambda r: (r.edge_id, r.year_in)))


ODD_NUMBER_TEXTS = [" 1960 ", "+400", "007", "0999", "10000", "1_000", "١٩٦٠", "nan", "inf", "", " ", "\t"]
NUMERIC_COLUMNS = [
    ("nodes.csv", "voltage_kv"),
    ("nodes.csv", "year_in"),
    ("nodes.csv", "year_out"),
    ("nodes.csv", "lat"),
    ("nodes.csv", "lon"),
    ("edges.csv", "voltage_kv"),
    ("edges.csv", "circuits"),
    ("edges.csv", "year_in"),
    ("edges.csv", "year_out"),
    ("events.csv", "year"),
]
CLEAN_ROWS = {
    "nodes.csv": [
        ["A", "a", "220", "1960", "", "45.5", "7.25"],
        ["B", "b", "380", "1961", "1990", "", ""],
        ["C", "c", "220", "1960", "", "", ""],
    ],
    "edges.csv": [
        ["AB", "A", "B", "220", "1", "1962", "1980"],
        ["BC", "B", "C", "380", "2", "1963", ""],
        ["AC", "A", "C", "220", "1", "1964", ""],
    ],
    "events.csv": [["AB", "1970", "split"], ["BC", "1975", "reroute"], ["AB", "1965", "other"]],
}
HEADERS = {"nodes.csv": NODE_HEADER, "edges.csv": EDGE_HEADER, "events.csv": EVENT_HEADER}


@pytest.mark.parametrize("file,column", NUMERIC_COLUMNS)
def test_loader_equals_the_oracle_on_odd_number_texts(tmp_path, file, column):
    # Each text in the first row, in the last row and in both, where the
    # second use of a text reads the value kept from the first; and again
    # with the first station's voltage_kv holding the text too, which
    # another grammar may take.
    field = HEADERS[file].index(column)
    for text in ODD_NUMBER_TEXTS + ["9" * 5000]:
        for rows_changed in ((0,), (-1,), (0, -1)):
            for in_voltage_too in (False, True):
                rows = {name: [list(row) for row in file_rows] for name, file_rows in CLEAN_ROWS.items()}
                rows["nodes.csv"][0][2] = text if in_voltage_too else "220"
                for i in rows_changed:
                    rows[file][i][field] = text
                files = write_rows(tmp_path, rows)
                got = load_outcome(load_asset_records, files)
                assert got == load_outcome(records_by_rows, files), (text, rows_changed, in_voltage_too)


@pytest.mark.parametrize("file", sorted(HEADERS))
def test_a_malformed_row_is_reported_before_an_earlier_bad_field(tmp_path, file):
    # Field counts are checked over the whole file before any field is.
    rows = {name: [list(row) for row in file_rows] for name, file_rows in CLEAN_ROWS.items()}
    rows[file][0][-2] = "soon"
    rows[file].insert(2, [])
    rows[file][-1] = rows[file][-1][:2]
    files = write_rows(tmp_path, rows)
    expected = (ParseError, f"{tmp_path / file}:5: expected {len(HEADERS[file])} fields, got 2")
    assert load_outcome(load_asset_records, files) == load_outcome(records_by_rows, files) == expected


odd_texts = st.text(alphabet="0123456789 +-_.\teEnaif١\n", max_size=6)
years = st.sampled_from(["1960", "1961", "1975", " 1960"])
end_years = st.sampled_from(["", "1990", "1975", " "])
voltages = st.sampled_from(["220", "380", "-110", "0"])
coordinates = st.sampled_from(["", "45.5", "7", "-1e2"])
stations = st.sampled_from(["A", "B", "C"])
lines = st.sampled_from(["AB", "BA", " AB"])


@st.composite
def record_rows(draw, columns, min_rows=0):
    # Up to four rows, one strategy per field; now and then one field of a
    # row is odd text, or the row has another width or is empty.
    out = []
    for _ in range(draw(st.integers(min_rows, 4))):
        fields = [draw(column) for column in columns]
        if draw(st.integers(0, 9)) == 0:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(odd_texts)
        shape = draw(st.sampled_from(["row"] * 18 + ["short", "empty"]))
        out.append(fields if shape == "row" else fields[:3] if shape == "short" else [])
    return out


@settings(max_examples=300, deadline=None)
@given(
    record_rows(
        [st.sampled_from(["A", "B", "C", " B ", "two\nlines"]), st.sampled_from(["a", "", "x\ny"])]
        + [voltages, years, end_years, coordinates, coordinates],
        min_rows=1,
    ),
    record_rows([lines, stations, stations, voltages, st.sampled_from(["1", "2", "+1"]), years, end_years]),
    record_rows([st.sampled_from(["AB", "BA", " BA", "nope"]), years, st.sampled_from([*EVENT_KINDS, "split ", "bad"])]),
)
def test_property_loader_equals_the_oracle(nodes, edges, events):
    with tempfile.TemporaryDirectory() as directory:
        files = write_rows(Path(directory), {"nodes.csv": nodes, "edges.csv": edges, "events.csv": events})
        assert load_outcome(load_asset_records, files) == load_outcome(records_by_rows, files)


# -- errors cross process boundaries -----------------------------------------


@pytest.mark.parametrize("error", [ParseError("f.csv", 3, "bad"), ParseError("f.csv", None, "cannot read file")])
def test_parse_errors_pickle(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is ParseError
    assert (copy.source, copy.line, copy.message, str(copy)) == (error.source, error.line, error.message, str(error))


@pytest.mark.parametrize("error_type", [ValidationFailedError, ReferentialError, IntervalError])
def test_validation_errors_pickle(error_type):
    report = validate_records(
        build_record_set([make_node("A", 1960)] * 2, [make_edge("AX", "A", "X", 1950, year_out=1940)])
    )
    error = error_type(report)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is error_type
    assert copy.report == report
    assert str(copy) == str(error)


# -- validation ------------------------------------------------------------


def test_clean_fixture_validates(country_records):
    report = validate_records(country_records)
    assert report.ok
    assert str(report) == "OK: no violations"


def test_duplicate_ids_flagged():
    nodes = [make_node("A", 1960), make_node("A", 1961), make_node("B", 1960)]
    edges = [make_edge("E", "A", "B", 1961), make_edge("E", "A", "B", 1962)]
    report = validate_records(build_record_set(nodes, edges))
    assert "duplicate_node_id" in report.codes()
    assert "duplicate_edge_id" in report.codes()


def test_self_loop_flagged():
    records = build_record_set([make_node("A", 1960)], [make_edge("E", "A", "A", 1960)])
    assert "self_loop" in validate_records(records).codes()


def test_reversed_interval_flagged():
    records = build_record_set(
        [make_node("A", 1960, year_out=1950)], [], dataset_start=1940, dataset_end=1970
    )
    assert "interval_reversed" in validate_records(records).codes()


def test_dead_endpoint_flagged():
    nodes = [make_node("A", 1970, year_out=1980), make_node("B", 1960)]
    edges = [make_edge("E", "A", "B", 1975, year_out=1990)]
    report = validate_records(build_record_set(nodes, edges))
    assert "endpoint_dead" in report.codes()


def test_edge_lifetime_within_node_lifetime_is_clean():
    nodes = [make_node("A", 1970, year_out=1980), make_node("B", 1960)]
    edges = [make_edge("E", "A", "B", 1975, year_out=1980)]
    report = validate_records(
        build_record_set(nodes, edges, dataset_start=1960, dataset_end=1990)
    )
    assert report.ok


def test_event_outside_life_flagged():
    nodes = [make_node("A", 1960), make_node("B", 1960)]
    edges = [make_edge("E", "A", "B", 1970, year_out=1980, events=[(1985, "split")])]
    report = validate_records(build_record_set(nodes, edges))
    assert "event_out_of_range" in report.codes()


def test_decommission_event_must_match_year_out():
    nodes = [make_node("A", 1960), make_node("B", 1960)]
    edges = [
        make_edge("E", "A", "B", 1970, year_out=1980, events=[(1975, "decommission")])
    ]
    report = validate_records(build_record_set(nodes, edges))
    assert "decommission_mismatch" in report.codes()


def test_unknown_endpoint_flagged():
    records = build_record_set([make_node("A", 1960)], [make_edge("E", "A", "Z", 1960)])
    assert "unknown_endpoint" in validate_records(records).codes()


def test_strict_parse_raises_referential_before_interval(tmp_path):
    nodes = write_lines(
        tmp_path / "n.csv",
        ["node_id,label,voltage_kv,year_in,year_out,lat,lon", "A,a,220,1990,1960,,"],
    )
    edges = write_lines(
        tmp_path / "e.csv",
        [
            "edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out",
            "E,A,Z,220,1,1991,",
        ],
    )
    with pytest.raises(ReferentialError) as exc:
        parse_asset_records(nodes, edges)
    assert "E" in str(exc.value) and "Z" in str(exc.value)


def test_strict_parse_raises_interval_error(tmp_path):
    nodes = write_lines(
        tmp_path / "n.csv",
        ["node_id,label,voltage_kv,year_in,year_out,lat,lon", "A,a,220,1990,1960,,"],
    )
    edges = write_lines(
        tmp_path / "e.csv", ["edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out"]
    )
    with pytest.raises(IntervalError):
        parse_asset_records(nodes, edges)


def test_strict_parse_wraps_other_violations(tmp_path):
    nodes = write_lines(
        tmp_path / "n.csv",
        [
            "node_id,label,voltage_kv,year_in,year_out,lat,lon",
            "A,a,220,1960,,,",
            "A,a,220,1961,,,",
        ],
    )
    edges = write_lines(
        tmp_path / "e.csv", ["edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out"]
    )
    with pytest.raises(ValidationFailedError) as exc:
        parse_asset_records(nodes, edges)
    assert "duplicate_node_id" in exc.value.report.codes()


def test_strict_parse_passes_clean_data(tmp_path, country_records):
    paths = write_fixture_csvs(country_records, tmp_path)
    records = parse_asset_records(paths["nodes"], paths["edges"], paths["events"])
    assert len(records.edges) == len(country_records.edges)


# -- snapshots -------------------------------------------------------------


def test_half_open_interval_boundaries():
    nodes = [make_node("A", 1950), make_node("B", 1950)]
    edges = [make_edge("E", "A", "B", 1975, year_out=1990)]
    records = build_record_set(nodes, edges, dataset_start=1950, dataset_end=1995)
    assert snapshot_at(records, 1975).n_edges == 1
    assert snapshot_at(records, 1989).n_edges == 1
    assert snapshot_at(records, 1990).n_edges == 0
    assert snapshot_at(records, 1974).n_edges == 0


def test_missing_year_out_means_alive_to_end():
    records = small_record_set()
    assert snapshot_at(records, 1962).n_edges == 1
    assert snapshot_at(records, 1960).n_nodes == 1


def test_isolated_nodes_are_kept():
    nodes = [make_node("A", 1950), make_node("B", 1950), make_node("C", 1950)]
    edges = [make_edge("E", "A", "B", 1950)]
    snap = snapshot_at(build_record_set(nodes, edges), 1950)
    assert snap.n_nodes == 3
    assert snap.n_edges == 1


def test_parallel_circuit_records_collapse():
    nodes = [make_node("A", 1950), make_node("B", 1950)]
    edges = [
        make_edge("E1", "A", "B", 1950, circuits=2),
        make_edge("E2", "B", "A", 1960),
    ]
    records = build_record_set(nodes, edges)
    snap = snapshot_at(records, 1960)
    assert snap.n_edges == 1


def test_voltage_floor_filters_nodes_and_edges():
    nodes = [
        make_node("A", 1950, voltage=400),
        make_node("B", 1950, voltage=220),
        make_node("C", 1950, voltage=120),
    ]
    edges = [
        make_edge("AB", "A", "B", 1950, voltage=380),
        make_edge("BC", "B", "C", 1950, voltage=120),
        make_edge("AC", "A", "C", 1950, voltage=120),
    ]
    records = build_record_set(nodes, edges)
    full = snapshot_at(records, 1950, voltage_floor_kv=0)
    assert (full.n_nodes, full.n_edges) == (3, 3)
    high = snapshot_at(records, 1950, voltage_floor_kv=220)
    assert (high.n_nodes, high.n_edges) == (2, 1)
    assert high.graph.has_node("A") and high.graph.has_node("B")


def test_low_voltage_edge_between_high_nodes_is_dropped():
    nodes = [make_node("A", 1950, voltage=400), make_node("B", 1950, voltage=400)]
    edges = [make_edge("E", "A", "B", 1950, voltage=120)]
    snap = snapshot_at(build_record_set(nodes, edges), 1950, voltage_floor_kv=220)
    assert snap.n_nodes == 2
    assert snap.n_edges == 0


def test_snapshot_outside_span_rejected():
    records = small_record_set()
    with pytest.raises(YearRangeError):
        snapshot_at(records, 1959)
    with pytest.raises(YearRangeError):
        snapshot_at(records, 1963)


def test_panel_covers_span_in_order(country_records):
    panel = build_panel(country_records)
    years = [snap.year for snap in panel]
    assert years == list(range(1950, 2005))
    assert all(snap.voltage_floor_kv == 0 for snap in panel)


def test_panel_subrange_and_bounds():
    records = small_record_set()
    panel = build_panel(records, year_range=(1961, 1962))
    assert [s.year for s in panel] == [1961, 1962]
    with pytest.raises(YearRangeError):
        build_panel(records, year_range=(1962, 1961))
    with pytest.raises(YearRangeError):
        build_panel(records, year_range=(1959, 1962))


def test_floor_zero_panel_dominates_floor_220(country_records):
    low = build_panel(country_records, voltage_floor_kv=0)
    high = build_panel(country_records, voltage_floor_kv=220)
    for a, b in zip(low, high):
        assert a.n_nodes >= b.n_nodes
        assert a.n_edges >= b.n_edges


def test_snapshot_matches_direct_predicate(country_records):
    year, floor = 1988, 220
    snap = snapshot_at(country_records, year, voltage_floor_kv=floor)
    expected_nodes = {
        n.node_id
        for n in country_records.nodes
        if n.voltage_kv >= floor
        and n.year_in <= year
        and (n.year_out is None or year < n.year_out)
    }
    assert set(snap.graph.nodes) == expected_nodes
    expected_pairs = {
        frozenset((e.node_a, e.node_b))
        for e in country_records.edges
        if e.voltage_kv >= floor
        and e.year_in <= year
        and (e.year_out is None or year < e.year_out)
        and e.node_a in expected_nodes
        and e.node_b in expected_nodes
    }
    assert {frozenset(pair) for pair in snap.graph.edges()} == expected_pairs


def out_of_order_records():
    """Records whose year_in order differs from their id order, with starts
    in the span's last year, deaths right after its first year, and
    parallel circuits of different lives and voltages."""
    nodes = [
        make_node("A", 1990, voltage=400),
        make_node("B", 1950, voltage=400),
        make_node("C", 1950, year_out=1951, voltage=400),
        make_node("D", 1970, voltage=110),
        make_node("E", 2000, voltage=400),
        make_node("F", 1950, voltage=400),
        make_node("G", 1960, year_out=1985, voltage=380),
    ]
    edges = [
        make_edge("E1", "F", "B", 1950, year_out=1970, voltage=220),
        make_edge("E2", "B", "F", 1965, year_out=1990, voltage=400),
        make_edge("E3", "F", "B", 1992, voltage=380, circuits=2),
        make_edge("E4", "C", "F", 1950, year_out=1951, voltage=400),
        make_edge("E5", "A", "F", 2000, voltage=400),
        make_edge("E6", "E", "A", 2000, voltage=400),
        make_edge("E7", "D", "B", 1970, voltage=110),
        make_edge("E8", "G", "F", 1960, year_out=1985, voltage=380),
        make_edge("E9", "A", "G", 1990, year_out=1991, voltage=400),
    ]
    return build_record_set(nodes, edges, dataset_start=1950, dataset_end=2000)


@pytest.mark.parametrize("floor", [0, 220, 380])
def test_snapshot_equals_full_scan_oracle_every_year(country_records, planted_records, floor):
    for records in (country_records, planted_records, out_of_order_records()):
        for year in range(records.dataset_start, records.dataset_end + 1):
            graph = snapshot_at(records, year, voltage_floor_kv=floor).graph
            expected = snapshot_by_full_scan(records, year, voltage_floor_kv=floor)
            assert graph.nodes == expected.nodes, (records.country_tag, year)
            assert graph.edges() == expected.edges(), (records.country_tag, year)


def test_out_of_order_records_cover_the_edge_cases():
    records = out_of_order_records()
    nodes, edges = records.by_year_in
    assert [rec.node_id for rec in nodes] == ["B", "C", "F", "G", "D", "A", "E"]
    assert [rec.edge_id for rec in edges] == ["E1", "E4", "E8", "E2", "E7", "E9", "E3", "E5", "E6"]
    first = snapshot_at(records, 1950, voltage_floor_kv=0).graph
    assert first.edges() == (("B", "F"), ("C", "F"))
    assert snapshot_at(records, 1951, voltage_floor_kv=0).graph.edges() == (("B", "F"),)
    # Three F-B circuits: 220 kV 1950-1970, 400 kV 1965-1990, 380 kV from 1992.
    for year, floor, present in [
        (1960, 0, True),
        (1960, 380, False),
        (1966, 380, True),
        (1990, 0, False),
        (1992, 380, True),
    ]:
        graph = snapshot_at(records, year, voltage_floor_kv=floor).graph
        assert graph.has_edge("B", "F") is present, (year, floor)
    last = snapshot_at(records, 2000, voltage_floor_kv=0).graph
    assert last.nodes == ("A", "B", "D", "E", "F")
    assert last.edges() == (("A", "E"), ("A", "F"), ("B", "D"), ("B", "F"))


def test_snapshot_reads_the_cached_year_in_order():
    records = out_of_order_records()
    assert "by_year_in" not in vars(records)
    snapshot_at(records, 1975)
    cached = vars(records)["by_year_in"]
    snapshot_at(records, 1995)
    assert vars(records)["by_year_in"] is cached
    # A call reads the cache and does not sort again: an empty cached
    # order yields an empty snapshot.
    vars(records)["by_year_in"] = ((), ())
    assert snapshot_at(records, 1995).n_nodes == 0


# -- the one-pass sweep ----------------------------------------------------


def assert_sweep_matches_snapshots(records, start, end, floor):
    # Every year is collected before any is checked, so that storage the
    # sweep handed out and then changed in a later year shows up.
    swept = list(year_snapshots(records, start, end, floor))
    assert [snap.year for snap in swept] == list(range(start, end + 1))
    for snap in swept:
        where = (records.country_tag, snap.year, floor)
        assert snap.voltage_floor_kv == floor
        graph = snap.graph
        expected = snapshot_at(records, snap.year, voltage_floor_kv=floor).graph
        assert graph.nodes == expected.nodes, where
        assert graph.neighbor_rows() == expected.neighbor_rows(), where
        assert graph.edges() == expected.edges(), where
        assert graph.n_edges == expected.n_edges, where
        for u, v in zip(expected.nodes, expected.nodes[1:]):
            assert graph.degree(u) == expected.degree(u), where
            assert graph.neighbors(u) == expected.neighbors(u), where
            assert graph.has_edge(u, v) is expected.has_edge(u, v), where


def sweep_ranges(records):
    first, last = records.dataset_start, records.dataset_end
    return [(first, last), (first + 3, last - 2), (first + 5, first + 5), (last, last)]


def early_start_records():
    """:func:`out_of_order_records` over a span pinned to start before
    every record, so that the first swept year is empty."""
    records = out_of_order_records()
    return build_record_set(records.nodes, records.edges, dataset_start=1945, dataset_end=records.dataset_end)


@pytest.mark.parametrize("floor", [0, 220, 380])
def test_sweep_equals_snapshot_at_every_year(country_records, planted_records, floor):
    for records in (country_records, planted_records, out_of_order_records(), early_start_records()):
        for start, end in sweep_ranges(records):
            assert_sweep_matches_snapshots(records, start, end, floor)


def unvalidated_records(label=str):
    """Records that break integrity rules in the ways a sweep could get
    wrong, over a span pinned to 1985-2000."""
    nodes = [
        make_node(label("A"), 1990),
        make_node(label("B"), 1985, year_out=1995),
        make_node(label("B"), 1998),  # duplicate id, a second life after a gap
        make_node(label("C"), 1988, year_out=1988),  # empty interval
        make_node(label("D"), 1992, year_out=1989),  # reversed interval
        make_node(label("E"), 1986, voltage=110),  # below a 220 kV floor
        make_node(label("F"), 1975),  # starts before the pinned span
        make_node(label("G"), 1980, year_out=1993),
        make_node(label("H"), 1985, voltage=110),
        make_node(label("H"), 1990, year_out=1997, voltage=400),  # duplicate id, another voltage
        make_node(label("I"), 1985, year_out=1993),  # dies with G, an untouched H between them
    ]
    edges = [
        make_edge("AB", label("A"), label("B"), 1990),  # crosses B's gap
        make_edge("AG", label("A"), label("G"), 1990),  # outlives G
        make_edge("AE", label("A"), label("E"), 1990, voltage=400),  # endpoint below the floor
        make_edge("FG", label("F"), label("G"), 1980, year_out=1987),  # starts before the span
        make_edge("BF", label("B"), label("F"), 1986, year_out=1986),  # empty interval
        make_edge("CF", label("C"), label("F"), 1985),  # endpoint never alive
        make_edge("DF", label("D"), label("F"), 1990, year_out=1989),  # reversed interval
        make_edge("FH", label("F"), label("H"), 1985, voltage=400),  # H below the floor until 1990
        make_edge("GB", label("G"), label("B"), 1986, year_out=1999),
        make_edge("AZ", label("A"), label("Z"), 1991),  # unknown endpoint
        make_edge("FI", label("F"), label("I"), 1985, year_out=1996),  # outlives I
    ]
    return build_record_set(nodes, edges, country_tag="unvalidated", dataset_start=1985, dataset_end=2000)


# Integer ids whose order differs from the letters' order.
INT_LABELS = {letter: (7 * i + 3) % 11 for i, letter in enumerate("ABCDEFGHIZ")}


@pytest.mark.parametrize("label", [str, INT_LABELS.__getitem__], ids=["str", "int"])
@pytest.mark.parametrize("floor", [0, 220])
def test_sweep_equals_snapshot_at_on_unvalidated_records(label, floor):
    records = unvalidated_records(label)
    assert {"duplicate_node_id", "interval_reversed", "endpoint_dead", "unknown_endpoint", "year_outside_span"} <= (
        validate_records(records).codes()
    )
    for start, end in sweep_ranges(records):
        assert_sweep_matches_snapshots(records, start, end, floor)


def test_sweep_through_an_empty_year_to_the_span_edges():
    nodes = [
        make_node("A", 1950, year_out=1952),
        make_node("B", 1950, year_out=1952),
        make_node("C", 1953),
        make_node("D", 1953, year_out=1956),
    ]
    edges = [
        make_edge("AB", "A", "B", 1950, year_out=1952),
        make_edge("CD", "C", "D", 1953, year_out=1956),
        make_edge("DC", "D", "C", 1956),
    ]
    records = build_record_set(nodes, edges, dataset_start=1950, dataset_end=1956)
    swept = list(year_snapshots(records))
    assert [(snap.n_nodes, snap.n_edges) for snap in swept] == [(2, 1), (2, 1), (0, 0), (2, 1), (2, 1), (2, 1), (1, 0)]
    assert_sweep_matches_snapshots(records, 1950, 1956, 0)


def test_sweep_checks_its_range_on_the_call():
    records = small_record_set()
    with pytest.raises(YearRangeError):
        year_snapshots(records, 1959, 1962)
    with pytest.raises(YearRangeError):
        year_snapshots(records, 1962, 1961)
    assert [snap.year for snap in year_snapshots(records)] == [1960, 1961, 1962]


def test_sweep_rejects_a_self_loop_in_the_year_it_appears():
    nodes = [make_node("A", 1950), make_node("B", 1950)]
    edges = [make_edge("AB", "A", "B", 1950), make_edge("AA", "A", "A", 1952)]
    records = build_record_set(nodes, edges, dataset_end=1955)
    swept = year_snapshots(records)
    assert [next(swept).year, next(swept).year] == [1950, 1951]
    with pytest.raises(ValueError, match="self-loop"):
        snapshot_at(records, 1952)
    with pytest.raises(ValueError, match="self-loop"):
        next(swept)
    # The first swept year is built the same way as every later one.
    with pytest.raises(ValueError, match="self-loop at node 'A'"):
        next(year_snapshots(records, 1953, 1955))


def test_sweep_reads_the_filter_rule_from_filter_by_voltage(monkeypatch, country_records):
    floors = []

    def recording(records, voltage_floor_kv):
        floors.append(voltage_floor_kv)
        return filter_by_voltage(records, voltage_floor_kv)

    monkeypatch.setattr(records_module, "filter_by_voltage", recording)
    assert len(list(year_snapshots(country_records, voltage_floor_kv=220))) == 55
    assert floors == [220]


@settings(max_examples=60, deadline=None)
@given(small_record_sets(), st.sampled_from((0, 220, 400)), st.integers(2000, 2010), st.integers(0, 10))
def test_property_sweep_equals_snapshot_at(records, floor, start, length):
    assert_sweep_matches_snapshots(records, start, min(start + length, 2010), floor)
    assert_changes_name_every_changed_station(records, start, min(start + length, 2010), floor)


def assert_changes_name_every_changed_station(records, start, end, floor):
    # year_changes pairs year_snapshots' graphs with sets that name every
    # station entering, leaving or changing neighbours since the year
    # before; the first year's names every station it has.
    changes = list(year_changes(records, start, end, floor))
    swept = list(year_snapshots(records, start, end, floor))
    for (snap, _), expected in zip(changes, swept, strict=True):
        assert snap.year == expected.year
        assert snap.graph.neighbor_rows() == expected.graph.neighbor_rows()
        assert snap.graph.nodes == expected.graph.nodes
    last = Graph(())
    for snap, touched in changes:
        graph = snap.graph
        for v in set(graph.nodes) | set(last.nodes):
            same = v in graph and v in last and set(graph.neighbors(v)) == set(last.neighbors(v))
            assert same or v in touched, (snap.year, v)
        last = graph


@pytest.mark.parametrize("floor", [0, 220, 400])
def test_year_changes_name_every_changed_station_on_the_fixtures(
    country_records, planted_records, churned_records, floor
):
    for records in (country_records, planted_records, churned_records):
        assert_changes_name_every_changed_station(records, records.dataset_start, records.dataset_end, floor)


def test_filter_by_voltage_keeps_span(country_records):
    high = filter_by_voltage(country_records, 220)
    assert high.dataset_start == country_records.dataset_start
    assert high.dataset_end == country_records.dataset_end
    assert all(n.voltage_kv >= 220 for n in high.nodes)
    assert all(e.voltage_kv >= 220 for e in high.edges)
    ids = {n.node_id for n in high.nodes}
    assert all(e.node_a in ids and e.node_b in ids for e in high.edges)

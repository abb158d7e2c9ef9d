
import pytest

from helpers import make_edge, make_node
from gridpanel import (
    AnnualSnapshot,
    Graph,
    ParameterError,
    RunConfig,
    annual_change_rates,
    build_panel,
    build_record_set,
    count_four_cycles,
    count_stars,
    efficiency_comparison,
    filter_by_voltage,
    gen_erdos_renyi,
    gen_ring_lattice,
    gen_watts_strogatz,
    metric_row,
    modularity_detect,
    modularity_of,
    motif_counts,
    moving_average,
    snapshot_at,
    underperformers,
    year_snapshots,
)
from gridpanel.config import CONFIG_KEYS, _format_value, check, dump_config, load_config, parse_config_text
from gridpanel.metrics import lattice_clustering, random_baselines
from gridpanel.motifs import carried_motif_counts
from gridpanel.records import year_changes


def test_defaults():
    cfg = RunConfig()
    assert cfg.voltage_floor_kv == 220
    assert cfg.gamma == 1.0
    assert cfg.seed == 42
    assert cfg.chordless_only is True
    assert cfg.variant == "subgraph"
    assert cfg.window == 5
    assert cfg.threshold == 0.2
    assert cfg.replicates == 50
    assert cfg.rewiring_p == 0.1
    assert cfg.per_year is False
    assert cfg.out_dir == "out"
    assert cfg.node_file is None
    assert cfg.year_start is None


def test_dump_then_parse_is_identity():
    configs = [
        RunConfig(),
        RunConfig(
            node_file="data/nodes.csv",
            edge_file="data/edges.csv",
            event_file="data/events.csv",
            country_tag="hu",
            voltage_floor_kv=0,
            year_start=1949,
            year_end=2019,
            gamma=1.5,
            seed=7,
            chordless_only=False,
            variant="induced",
            window=7,
            threshold=0.25,
            replicates=7,
            rewiring_p=0.3,
            per_year=True,
            out_dir="runs/hu",
        ),
    ]
    for cfg in configs:
        assert parse_config_text(dump_config(cfg), source="roundtrip") == cfg


def test_dump_is_stable_bytes():
    cfg = RunConfig(node_file="n.csv", gamma=1.0, threshold=0.2)
    assert dump_config(cfg) == dump_config(cfg)


def test_comments_and_blanks_ignored():
    text = "# a comment\n\nvoltage_floor_kv = 380\n# another\nseed = 1\n"
    cfg = parse_config_text(text, source="inline")
    assert cfg.voltage_floor_kv == 380
    assert cfg.seed == 1


def test_unknown_key_rejected_with_location():
    with pytest.raises(ParameterError) as exc:
        parse_config_text("volts = 220\n", source="bad.cfg")
    assert "bad.cfg:1" in str(exc.value)


def test_duplicate_key_rejected():
    with pytest.raises(ParameterError):
        parse_config_text("seed = 1\nseed = 2\n", source="dup.cfg")


def test_malformed_line_rejected():
    with pytest.raises(ParameterError):
        parse_config_text("seed\n", source="bad.cfg")


def test_bad_values_rejected():
    for text in (
        "seed = soon\n",
        "gamma = big\n",
        "gamma = nan\n",
        "gamma = inf\n",
        "gamma = -inf\n",
        "seed = 1_000\n",
        "year_start = \u0661\u0669\u0667\u0660\n",  # 1970 in Arabic-Indic digits
        "gamma = 1_0.5\n",
        "gamma = \u0661.\u0665\n",
        "chordless_only = yes\n",
        "variant = maximal\n",
    ):
        with pytest.raises(ParameterError):
            parse_config_text(text, source="bad.cfg")


def test_empty_value_means_unset_for_optional_fields():
    cfg = parse_config_text("year_start = \nnode_file = \n", source="inline")
    assert cfg.year_start is None
    assert cfg.node_file is None


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ParameterError):
        load_config(str(tmp_path / "absent.cfg"))


def test_load_config_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"seed = 4\n# caf\xe9\n")
    with pytest.raises(ParameterError, match="not UTF-8 text at byte offset 14"):
        load_config(str(path))


def test_header_lines_render_as_comments():
    text = dump_config(RunConfig(), header_lines=("first", "second"))
    lines = text.splitlines()
    assert lines[0] == "# first"
    assert lines[1] == "# second"
    assert parse_config_text(text, source="hdr") == RunConfig()


def test_replace_returns_a_checked_copy():
    cfg = RunConfig()
    out = cfg._replace(seed=9, country_tag="nl")
    assert out.seed == 9
    assert out.country_tag == "nl"
    assert cfg.seed == 42
    with pytest.raises(ValueError, match="nope"):
        cfg._replace(nope=1)
    for gamma in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError, match="gamma"):
            cfg._replace(gamma=gamma)


def test_negative_voltage_floor_rejected():
    with pytest.raises(ParameterError, match="voltage_floor_kv"):
        RunConfig(voltage_floor_kv=-1)
    with pytest.raises(ParameterError, match="bad.cfg"):
        parse_config_text("voltage_floor_kv = -5\n", source="bad.cfg")
    with pytest.raises(ParameterError, match="voltage_floor_kv"):
        RunConfig()._replace(voltage_floor_kv=-5)
    assert RunConfig()._replace(voltage_floor_kv=0).voltage_floor_kv == 0


OUT_OF_RANGE = [
    ("gamma", float("nan")),
    ("gamma", float("inf")),
    ("replicates", 0),
    ("replicates", -3),
    ("rewiring_p", float("nan")),
    ("rewiring_p", -0.1),
    ("rewiring_p", 1.5),
    ("window", 0),
    ("window", 4),
    ("window", -3),
    ("threshold", float("nan")),
    ("threshold", 0.0),
    ("threshold", 1.0),
    ("threshold", 5.0),
    ("variant", "maximal"),
    ("voltage_floor_kv", float("nan")),
    ("voltage_floor_kv", -1),
]


@pytest.mark.parametrize("key,value", OUT_OF_RANGE)
def test_out_of_range_run_parameters_rejected(key, value):
    with pytest.raises(ParameterError, match=key):
        RunConfig(**{key: value})
    with pytest.raises(ParameterError, match="bad.cfg"):
        parse_config_text(f"{key} = {value}\n", source="bad.cfg")
    with pytest.raises(ParameterError, match=key):
        RunConfig()._replace(**{key: value})


@pytest.mark.parametrize(
    "key,value",
    [
        ("country_tag", " hu"),
        ("country_tag", "hu\t"),
        ("country_tag", "a\nb"),
        ("country_tag", "a\rb"),
        ("country_tag", "a\u2028b"),
        ("out_dir", "out\n"),
        ("node_file", " nodes.csv"),
        ("variant", "subgraph "),
    ],
)
def test_string_values_a_manifest_cannot_carry_rejected(key, value):
    # parse_config_text strips each value and splits the text into lines,
    # so a rerun from the manifest would read a different value or fail.
    with pytest.raises(ParameterError, match=key):
        RunConfig(**{key: value})
    with pytest.raises(ParameterError, match=key):
        RunConfig()._replace(**{key: value})


@pytest.mark.parametrize(
    "key,value",
    [
        ("seed", True),
        ("seed", 1.5),
        ("window", True),
        ("gamma", False),
        ("replicates", True),
        ("replicates", "5"),
        ("country_tag", 5),
        ("year_start", 1970.0),
        ("node_file", 3),
        ("chordless_only", 1),
        ("per_year", "true"),
    ],
)
def test_values_of_another_type_than_the_field_rejected(key, value):
    # dump_config would write the value as text that parses back as a
    # value of the field's type, or not at all.
    with pytest.raises(ParameterError, match=key):
        RunConfig(**{key: value})
    with pytest.raises(ParameterError, match=key):
        RunConfig()._replace(**{key: value})
    text = f"{key} = {_format_value(value)}\n"
    try:
        parsed = getattr(parse_config_text(text, source="bad.cfg"), key)
    except ParameterError as exc:
        assert str(exc).startswith(f"bad.cfg:1: bad value for {key}")
    else:
        assert type(parsed) is not type(value)


def test_float_fields_take_ints_and_optional_fields_take_none():
    cfg = RunConfig(gamma=2, rewiring_p=1, year_start=None, node_file=None)
    assert parse_config_text(dump_config(cfg), source="ints") == cfg


def _two_triangles():
    return Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def _records():
    nodes = [make_node("A", 2000), make_node("B", 2000)]
    return build_record_set(nodes, [make_edge("E", "A", "B", 2001)], dataset_start=2000, dataset_end=2005)


# Each run parameter's library entry points, called with the value.
LIBRARY_CALLS = {
    "gamma": [
        lambda v: modularity_detect(_two_triangles(), gamma=v),
        lambda v: modularity_of(_two_triangles(), dict.fromkeys(range(6), 0), gamma=v),
        lambda v: metric_row(AnnualSnapshot(2000, 0, _two_triangles()), gamma=v),
        lambda v: metric_row(AnnualSnapshot(2000, 0, Graph([])), gamma=v),
    ],
    "replicates": [lambda v: efficiency_comparison(12, 24, v, seed=1)],
    "rewiring_p": [
        lambda v: efficiency_comparison(12, 24, 1, seed=1, rewiring_p=v),
        lambda v: gen_watts_strogatz(12, 4, v, seed=1),
    ],
    "window": [lambda v: moving_average([1.0, 2.0], v), lambda v: annual_change_rates(_records(), window=v)],
    "threshold": [lambda v: underperformers([], v)],
    "chordless_only": [
        lambda v: count_four_cycles(_two_triangles(), chordless_only=v),
        lambda v: motif_counts(_two_triangles(), chordless_only=v),
        lambda v: carried_motif_counts([], chordless_only=v),
    ],
    "variant": [
        lambda v: motif_counts(_two_triangles(), variant=v),
        lambda v: count_stars(_two_triangles(), 3, variant=v),
        lambda v: carried_motif_counts([], variant=v),
    ],
    "voltage_floor_kv": [
        lambda v: build_panel(_records(), voltage_floor_kv=v),
        lambda v: snapshot_at(_records(), 2000, v),
        lambda v: year_snapshots(_records(), voltage_floor_kv=v),
        lambda v: year_changes(_records(), voltage_floor_kv=v),
        lambda v: filter_by_voltage(_records(), v),
    ],
    "year_start": [
        lambda v: snapshot_at(_records(), v),
        lambda v: build_panel(_records(), (v, 2005)),
        lambda v: year_snapshots(_records(), v),
        lambda v: year_changes(_records(), v),
        lambda v: build_record_set([make_node("A", 2000)], [], dataset_start=v),
    ],
    "year_end": [
        lambda v: build_panel(_records(), (2000, v)),
        lambda v: year_snapshots(_records(), None, v),
        lambda v: year_changes(_records(), None, v),
        lambda v: build_record_set([make_node("A", 2000)], [], dataset_end=v),
    ],
    "seed": [
        lambda v: modularity_detect(_two_triangles(), seed=v),
        lambda v: metric_row(AnnualSnapshot(2000, 0, _two_triangles()), seed=v),
        lambda v: metric_row(AnnualSnapshot(2000, 0, Graph([])), seed=v),
        lambda v: efficiency_comparison(12, 24, 1, seed=v),
        lambda v: gen_erdos_renyi(10, 3, v),
        lambda v: gen_watts_strogatz(10, 2, 0.1, v),
    ],
    # Parameters that only library calls take.
    "year": [lambda v: snapshot_at(_records(), v)],
    "leaves": [lambda v: count_stars(_two_triangles(), v)],
    "n_nodes": [
        lambda v: gen_erdos_renyi(v, 3, 1),
        lambda v: gen_ring_lattice(v, 2),
        lambda v: gen_watts_strogatz(v, 2, 0.1, 1),
        lambda v: efficiency_comparison(v, 12, 2, 1),
        lambda v: lattice_clustering(v, 2.0),
        lambda v: random_baselines(v, 3.0),
    ],
    "n_edges": [lambda v: gen_erdos_renyi(10, v, 1), lambda v: efficiency_comparison(12, v, 1, 1)],
    "coordination": [lambda v: gen_ring_lattice(10, v), lambda v: gen_watts_strogatz(10, v, 0.1, 1)],
}

# Values a domain test, where the parameter has one, lets through, but
# of another type than the parameter's config key takes.
WRONG_TYPE = [
    ("voltage_floor_kv", True),
    ("voltage_floor_kv", 220.5),
    ("window", True),
    ("replicates", True),
    ("gamma", False),
    ("rewiring_p", True),
    ("seed", 1.5),
    ("year_start", 2000.5),
    ("year_start", "2001"),
    ("year_start", True),
    ("year_end", 2002.0),
    ("year_end", True),
    ("seed", True),
    ("year", None),
    ("leaves", True),
    ("leaves", 2.0),
    ("n_nodes", 10.0),
    ("n_nodes", 10.5),
    ("n_edges", True),
    ("n_edges", 12.0),
    ("coordination", 2.0),
    ("chordless_only", "no"),
    ("chordless_only", 1),
    ("chordless_only", None),
    ("chordless_only", 0),
]


# A config file or flag reads the text "220" as a number; a library call
# can be given the text itself.
@pytest.mark.parametrize("key,value", OUT_OF_RANGE + [("voltage_floor_kv", "220")] + WRONG_TYPE)
def test_the_library_rejects_a_value_in_the_words_of_run_config(key, value):
    # A parameter that no RunConfig field holds is an int, in check's words.
    words = f"{key} must be of type int, got {value!r}"
    if key in CONFIG_KEYS:
        with pytest.raises(ParameterError) as expected:
            RunConfig(**{key: value})
        words = str(expected.value)
    for call in LIBRARY_CALLS[key]:
        with pytest.raises(ParameterError) as exc:
            call(value)
        assert str(exc.value) == words


def test_check_rejects_a_name_that_is_no_run_parameter():
    # A misspelt name in a check call cannot pass every value silently.
    with pytest.raises(KeyError):
        check("no_such_parameter", 1)


def test_inner_spaces_survive_a_manifest():
    cfg = RunConfig(country_tag="north hu", out_dir="runs/a b")
    assert parse_config_text(dump_config(cfg, header_lines=("x",)), source="inline") == cfg


def test_run_parameter_range_edges_accepted():
    cfg = RunConfig(replicates=1, rewiring_p=0.0, window=1, threshold=0.001)
    assert parse_config_text(dump_config(cfg), source="edges") == cfg
    assert RunConfig(rewiring_p=1.0, window=3, threshold=0.999).rewiring_p == 1.0


def test_config_is_frozen():
    with pytest.raises(AttributeError):
        RunConfig().seed = 1

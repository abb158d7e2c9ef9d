import dataclasses

import pytest

from gridpanel import ParameterError, RunConfig
from gridpanel.config import apply_overrides, dump_config, load_config, parse_config_text


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


def test_header_lines_render_as_comments():
    text = dump_config(RunConfig(), header_lines=("first", "second"))
    lines = text.splitlines()
    assert lines[0] == "# first"
    assert lines[1] == "# second"
    assert parse_config_text(text, source="hdr") == RunConfig()


def test_apply_overrides():
    cfg = RunConfig()
    out = apply_overrides(cfg, seed=9, country_tag="nl")
    assert out.seed == 9
    assert out.country_tag == "nl"
    assert cfg.seed == 42
    with pytest.raises(ParameterError):
        apply_overrides(cfg, nope=1)
    assert apply_overrides(cfg, seed=None).seed == 42
    for gamma in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError, match="gamma"):
            apply_overrides(cfg, gamma=gamma)


def test_negative_voltage_floor_rejected():
    with pytest.raises(ParameterError, match="voltage_floor_kv"):
        RunConfig(voltage_floor_kv=-1)
    with pytest.raises(ParameterError, match="bad.cfg"):
        parse_config_text("voltage_floor_kv = -5\n", source="bad.cfg")
    with pytest.raises(ParameterError, match="voltage_floor_kv"):
        apply_overrides(RunConfig(), voltage_floor_kv=-5)
    assert apply_overrides(RunConfig(), voltage_floor_kv=0).voltage_floor_kv == 0


OUT_OF_RANGE = [
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
]


@pytest.mark.parametrize("key,value", OUT_OF_RANGE)
def test_out_of_range_run_parameters_rejected(key, value):
    with pytest.raises(ParameterError, match=key):
        RunConfig(**{key: value})
    with pytest.raises(ParameterError, match="bad.cfg"):
        parse_config_text(f"{key} = {value}\n", source="bad.cfg")
    with pytest.raises(ParameterError, match=key):
        apply_overrides(RunConfig(), **{key: value})


def test_run_parameter_range_edges_accepted():
    cfg = RunConfig(replicates=1, rewiring_p=0.0, window=1, threshold=0.001)
    assert parse_config_text(dump_config(cfg), source="edges") == cfg
    assert RunConfig(rewiring_p=1.0, window=3, threshold=0.999).rewiring_p == 1.0


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().seed = 1

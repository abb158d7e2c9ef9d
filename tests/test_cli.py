import csv
import gc
import io
import shutil

import pytest

from helpers import tree_bytes, write_fixture_csvs
from gridpanel import GridPanelError, cli, generators, records
from gridpanel.cli import main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def workspace(tmp_path, country_records):
    paths = write_fixture_csvs(country_records, tmp_path)
    return tmp_path, paths


def base_args(paths, out, *extra):
    return (
        "--nodes",
        paths["nodes"],
        "--edges",
        paths["edges"],
        "--events",
        paths["events"],
        "--country-tag",
        "testland",
        "--out",
        str(out),
        *extra,
    )


# -- validate ----------------------------------------------------------------


def test_validate_clean_exits_zero(workspace, capsys):
    _, paths = workspace
    code = run("validate", "--nodes", paths["nodes"], "--edges", paths["edges"], "--events", paths["events"])
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_validate_dangling_endpoint_exits_one(tmp_path, capsys):
    (tmp_path / "n.csv").write_text(
        "node_id,label,voltage_kv,year_in,year_out,lat,lon\nA,a,220,1960,,,\n",
        encoding="utf-8",
    )
    (tmp_path / "e.csv").write_text(
        "edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out\nE,A,Z,220,1,1960,\n",
        encoding="utf-8",
    )
    code = run("validate", "--nodes", str(tmp_path / "n.csv"), "--edges", str(tmp_path / "e.csv"))
    assert code == 1
    out = capsys.readouterr().out
    assert "unknown_endpoint" in out
    assert "1 violation" in out


def test_validate_missing_file_exits_two(tmp_path):
    code = run("validate", "--nodes", str(tmp_path / "nope.csv"), "--edges", str(tmp_path / "nope2.csv"))
    assert code == 2


def test_malformed_rows_exit_two(tmp_path):
    (tmp_path / "n.csv").write_text("node_id,wrong\nA,x\n", encoding="utf-8")
    (tmp_path / "e.csv").write_text(
        "edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out\n", encoding="utf-8"
    )
    code = run("validate", "--nodes", str(tmp_path / "n.csv"), "--edges", str(tmp_path / "e.csv"))
    assert code == 2


@pytest.mark.parametrize("row", ["A,a,1_000,1960,,,", "A,a,220,١٩٦٠,,,", "A,a,220,1960,,nan,", "A,a,220,1960,,,inf"])
def test_validate_rejects_non_ascii_and_non_finite_fields(tmp_path, capsys, row):
    (tmp_path / "n.csv").write_text(f"node_id,label,voltage_kv,year_in,year_out,lat,lon\n{row}\n", encoding="utf-8")
    (tmp_path / "e.csv").write_text("edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out\n", encoding="utf-8")
    code = run("validate", "--nodes", str(tmp_path / "n.csv"), "--edges", str(tmp_path / "e.csv"))
    assert code == 2
    captured = capsys.readouterr()
    assert "OK" not in captured.out
    assert "n.csv:2" in captured.err


@pytest.mark.parametrize(
    "row",
    [("A," + "x" * 200_000 + ",220,1960,,,").encode(), b"A,caf\xe9,220,1960,,,"],
    ids=["oversized-label", "latin-1-label"],
)
def test_validate_exits_two_on_an_unreadable_nodes_row(tmp_path, capsys, row):
    (tmp_path / "n.csv").write_bytes(b"node_id,label,voltage_kv,year_in,year_out,lat,lon\n" + row + b"\n")
    (tmp_path / "e.csv").write_text("edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out\n", encoding="utf-8")
    code = run("validate", "--nodes", str(tmp_path / "n.csv"), "--edges", str(tmp_path / "e.csv"))
    assert code == 2
    assert "n.csv:2: " in capsys.readouterr().err


def test_missing_required_inputs_exit_two():
    assert run("panel") == 2


# -- panel -------------------------------------------------------------------


def test_panel_outputs(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "panel_out"
    assert run("panel", *base_args(paths, out, "--voltage-floor", "220")) == 0
    tidy = read_csv(out / "panel_tidy.csv")
    assert tidy[0] == ["country", "year", "voltage_floor_kv", "metric", "value", "defined_reason"]
    wide = read_csv(out / "panel_wide.csv")
    assert wide[0][:3] == ["country", "year", "voltage_floor_kv"]
    assert len(wide) == 56  # header plus one row per year
    years = [row[1] for row in wide[1:]]
    assert years == [str(y) for y in range(1950, 2005)]
    assert all(row[0] == "testland" for row in wide[1:])
    # tidy rows: per year, metrics in one fixed order
    first_year = [row for row in tidy[1:] if row[1] == "1950"]
    assert len(first_year) == 16


def test_panel_year_range_flags(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "ranged"
    assert run("panel", *base_args(paths, out), "--year-start", "1990", "--year-end", "1995") == 0
    wide = read_csv(out / "panel_wide.csv")
    assert [row[1] for row in wide[1:]] == [str(y) for y in range(1990, 1996)]


def test_panel_rerun_from_manifest_is_byte_identical(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "repro"
    assert run("panel", *base_args(paths, out, "--voltage-floor", "220", "--seed", "5")) == 0
    first = tree_bytes(out)
    backup = tmp_path / "backup"
    shutil.copytree(out, backup)
    shutil.rmtree(out)
    assert run("panel", "--config", str(backup / "panel_manifest.txt")) == 0
    second = tree_bytes(out)
    assert first == second


def test_flag_overrides_config(workspace):
    tmp_path, paths = workspace
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("panel", *base_args(paths, out_a, "--voltage-floor", "220")) == 0
    manifest = str(out_a / "panel_manifest.txt")
    assert run("panel", "--config", manifest, "--voltage-floor", "0", "--out", str(out_b)) == 0
    n_a = read_csv(out_a / "panel_wide.csv")[-1][3]
    n_b = read_csv(out_b / "panel_wide.csv")[-1][3]
    assert int(n_b) > int(n_a)


# -- motifs ------------------------------------------------------------------


def test_motifs_outputs(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "motifs_out"
    assert run("motifs", *base_args(paths, out, "--variant", "induced")) == 0
    rows = read_csv(out / "motifs.csv")
    assert rows[0] == ["country", "year", "motif", "count", "share", "variant", "chordless_only"]
    assert {row[2] for row in rows[1:]} == {"triangle", "four_cycle", "three_star", "four_star"}
    assert all(row[5] == "induced" for row in rows[1:])
    assert all(row[6] == "true" for row in rows[1:])
    # 55 years, four motifs each
    assert len(rows) == 1 + 55 * 4


def test_motifs_chordless_flag_changes_counts(workspace):
    tmp_path, paths = workspace
    out_a = tmp_path / "ca"
    out_b = tmp_path / "cb"
    assert run("motifs", *base_args(paths, out_a, "--chordless-only", "true")) == 0
    assert run("motifs", *base_args(paths, out_b, "--chordless-only", "false")) == 0
    count_a = sum(int(r[3]) for r in read_csv(out_a / "motifs.csv")[1:] if r[2] == "four_cycle")
    count_b = sum(int(r[3]) for r in read_csv(out_b / "motifs.csv")[1:] if r[2] == "four_cycle")
    assert count_b >= count_a


# -- temporal ----------------------------------------------------------------


def test_temporal_outputs(workspace, planted_records):
    tmp_path, paths = workspace
    out = tmp_path / "temporal_out"
    assert run("temporal", *base_args(paths, out, "--voltage-floor", "0", "--threshold", "0.2")) == 0
    lifetimes = read_csv(out / "lifetimes.csv")
    assert lifetimes[0] == [
        "edge_id",
        "year_in",
        "first_change_year",
        "lifetime",
        "censored",
        "max_expected",
        "survived_ratio",
    ]
    assert len(lifetimes) == 109  # header plus one row per edge record
    under = read_csv(out / "underperformers.csv")
    assert under[0] == lifetimes[0]
    rates = read_csv(out / "change_rates.csv")
    assert rates[0] == [
        "year",
        "lines_in_operation",
        "new_lines",
        "decommissions",
        "topological_changes",
        "new_lines_relative",
        "changes_relative",
        "new_lines_relative_smooth",
        "changes_relative_smooth",
    ]
    assert len(rates) == 56
    # conservation replayed from the CSV itself
    stock = [int(r[1]) for r in rates[1:]]
    new = [int(r[2]) for r in rates[1:]]
    gone = [int(r[3]) for r in rates[1:]]
    for i in range(1, len(stock)):
        assert stock[i] - stock[i - 1] == new[i] - gone[i]
    averages = read_csv(out / "avg_lifetime_by_year.csv")
    assert averages[0] == ["year", "mean_lifetime", "mean_lifetime_with_censored"]


def test_temporal_respects_voltage_floor(workspace):
    tmp_path, paths = workspace
    out_low = tmp_path / "lo"
    out_high = tmp_path / "hi"
    assert run("temporal", *base_args(paths, out_low, "--voltage-floor", "0")) == 0
    assert run("temporal", *base_args(paths, out_high, "--voltage-floor", "220")) == 0
    rows_low = len(read_csv(out_low / "lifetimes.csv"))
    rows_high = len(read_csv(out_high / "lifetimes.csv"))
    assert rows_high < rows_low


# -- baselines ---------------------------------------------------------------


def test_baselines_outputs(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "base_out"
    assert (
        run(
            "baselines",
            *base_args(paths, out, "--voltage-floor", "0"),
            "--replicates",
            "3",
            "--seed",
            "4",
        )
        == 0
    )
    rows = read_csv(out / "baselines.csv")
    assert rows[0] == ["family", "replicate", "metric", "value"]
    families = {row[0] for row in rows[1:]}
    assert families == {"erdos_renyi", "watts_strogatz", "ring_lattice"}
    summary = read_csv(out / "baselines_summary.csv")
    assert summary[0] == ["family", "metric", "mean", "std"]
    ring_std = [row for row in summary[1:] if row[0] == "ring_lattice" and row[1] == "efficiency"]
    assert ring_std and float(ring_std[0][3]) == 0.0
    ordering = [row for row in summary[1:] if row[0] == "ordering"]
    assert len(ordering) == 1
    assert ">" in ordering[0][2]


def test_baselines_rerun_matches(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "base_repro"
    args = (
        "baselines",
        *base_args(paths, out, "--voltage-floor", "0"),
        "--replicates",
        "2",
        "--seed",
        "11",
    )
    assert run(*args) == 0
    first = tree_bytes(out)
    shutil.rmtree(out)
    assert run(*args) == 0
    assert tree_bytes(out) == first


def test_baselines_manifest_replays_its_flags(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "base_flags"
    args = ("--replicates", "2", "--rewiring-p", "0.25", "--per-year", "--seed", "3")
    assert run("baselines", *base_args(paths, out, "--voltage-floor", "0"), *args) == 0
    manifest = (out / "baselines_manifest.txt").read_text(encoding="utf-8")
    assert "replicates = 2\n" in manifest
    assert "rewiring_p = 0.25\n" in manifest
    assert "per_year = true\n" in manifest
    first = tree_bytes(out)
    backup = tmp_path / "baselines_manifest_copy.txt"
    shutil.copy(out / "baselines_manifest.txt", backup)
    shutil.rmtree(out)
    assert run("baselines", "--config", str(backup)) == 0
    assert tree_bytes(out) == first
    # A flag on the command line still overrides the replayed value.
    shutil.rmtree(out)
    assert run("baselines", "--config", str(backup), "--no-per-year") == 0
    assert not (out / "baselines_per_year.csv").exists()
    assert "per_year = false\n" in (out / "baselines_manifest.txt").read_text(encoding="utf-8")


def test_a_failed_baselines_run_writes_no_file(workspace, capsys, monkeypatch):
    tmp_path, paths = workspace
    calls = []
    averaged = generators.efficiency_comparison

    def failing_per_year(*args, **kwargs):
        # The first call builds the averaged ensemble; the next is per year.
        calls.append(args)
        if len(calls) > 1:
            raise GridPanelError("per-year ensemble failed")
        return averaged(*args, **kwargs)

    monkeypatch.setattr(generators, "efficiency_comparison", failing_per_year)
    out = tmp_path / "out"
    code = run("baselines", *base_args(paths, out), "--voltage-floor", "0", "--replicates", "2", "--per-year")
    assert code == 2
    assert len(calls) == 2
    assert "per-year ensemble failed" in capsys.readouterr().err
    assert not out.exists()


# -- common ------------------------------------------------------------------


CELLS = [
    None,
    True,
    False,
    0,
    -17,
    2**70,
    0.1,
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    1e16,
    1e-07,
    "a,b",
    'say "hi"',
    "two\nlines",
    "cr\rlf",
    " padded ",
    "",
]


def test_csv_cells_are_written_as_format_value_writes_them(tmp_path):
    rows = [CELLS, CELLS[::-1], [None], [""], [True], [1, True, 1.0], [0, False, 0.0]]
    rows += [[cell] for cell in CELLS]
    config = cli.RunConfig(out_dir=str(tmp_path))
    cli._write_outputs(config, "check", {"cells.csv": (("a", "b"), rows)})
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("a", "b"))
    writer.writerows([cli._format_value(cell) for cell in row] for row in rows)
    with open(tmp_path / "cells.csv", newline="", encoding="utf-8") as handle:
        written = handle.read()
    assert written == expected.getvalue()
    # a row of one empty field is quoted, so it reads back as that row
    assert '\n""\n""\n' in written


def test_unknown_config_key_exits_two(workspace, tmp_path):
    _, paths = workspace
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n", encoding="utf-8")
    assert run("panel", "--config", str(cfg)) == 2


def test_config_that_is_not_utf8_exits_two(workspace, tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"country_tag = caf\xe9\n")
    assert run("panel", "--config", str(cfg)) == 2
    assert "not UTF-8 text at byte offset 17" in capsys.readouterr().err


def test_bad_year_range_exits_two(workspace):
    tmp_path, paths = workspace
    out = tmp_path / "bad_range"
    code = run("panel", *base_args(paths, out), "--year-start", "1900", "--year-end", "1910")
    assert code == 2


@pytest.mark.parametrize("year_start,year_end", [("1800", "1805"), ("1990", "1980")])
def test_every_command_rejects_a_bad_year_range_alike(workspace, capsys, year_start, year_end):
    tmp_path, paths = workspace
    messages = set()
    for command in ("panel", "motifs", "temporal", "baselines"):
        out = tmp_path / command
        code = run(command, *base_args(paths, out), "--year-start", year_start, "--year-end", year_end)
        assert code == 2, command
        assert not out.exists(), command
        messages.add(capsys.readouterr().err)
    assert len(messages) == 1
    assert "year range" in messages.pop()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_non_finite_gamma_exits_two(workspace, capsys, source, gamma):
    tmp_path, paths = workspace
    out = tmp_path / "gamma_out"
    if source == "flag":
        code = run("panel", *base_args(paths, out), "--gamma", gamma)
    else:
        cfg = tmp_path / "gamma.cfg"
        cfg.write_text(
            f"node_file = {paths['nodes']}\nedge_file = {paths['edges']}\n"
            f"event_file = {paths['events']}\ngamma = {gamma}\nout_dir = {out}\n",
            encoding="utf-8",
        )
        code = run("panel", "--config", str(cfg))
    assert code == 2
    assert not out.exists()
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_non_finite_gamma_exits_two_for_every_command(workspace, capsys, source, gamma):
    # Also on a record set without an edge, where panel never runs Louvain.
    tmp_path, paths = workspace
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "nodes.csv").write_text(
        "node_id,label,voltage_kv,year_in,year_out,lat,lon\nA,a,220,1960,,,\nB,b,220,1962,,,\n",
        encoding="utf-8",
    )
    (bare / "edges.csv").write_text("edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out\n", encoding="utf-8")
    (bare / "events.csv").write_text("edge_id,year,kind\n", encoding="utf-8")
    bare_paths = {name: str(bare / f"{name}.csv") for name in ("nodes", "edges", "events")}
    for inputs in (paths, bare_paths):
        for command in ("validate", "panel", "motifs", "temporal", "baselines"):
            out = tmp_path / f"{command}_out"
            if source == "flag":
                code = run(command, *base_args(inputs, out), "--gamma", gamma)
            else:
                cfg = tmp_path / "gamma.cfg"
                cfg.write_text(
                    f"node_file = {inputs['nodes']}\nedge_file = {inputs['edges']}\n"
                    f"event_file = {inputs['events']}\nvoltage_floor_kv = 0\ngamma = {gamma}\nout_dir = {out}\n",
                    encoding="utf-8",
                )
                code = run(command, "--config", str(cfg))
            assert code == 2, (command, inputs["nodes"])
            assert not out.exists(), command
            assert "gamma" in capsys.readouterr().err, command


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_voltage_floor_exits_two_for_every_command(workspace, capsys, source):
    tmp_path, paths = workspace
    for command in ("validate", "panel", "motifs", "temporal", "baselines"):
        out = tmp_path / f"{command}_out"
        if source == "flag":
            code = run(command, *base_args(paths, out), "--voltage-floor", "-5")
        else:
            cfg = tmp_path / "floor.cfg"
            cfg.write_text(
                f"node_file = {paths['nodes']}\nedge_file = {paths['edges']}\n"
                f"event_file = {paths['events']}\nvoltage_floor_kv = -5\nout_dir = {out}\n",
                encoding="utf-8",
            )
            code = run(command, "--config", str(cfg))
        assert code == 2, command
        assert not out.exists(), command
        assert "voltage_floor_kv" in capsys.readouterr().err, command


@pytest.mark.parametrize("value", [" hu", "hu ", "h\nu"])
def test_country_tag_a_manifest_cannot_carry_exits_two(workspace, capsys, value):
    # A rerun from the manifest would read the tag stripped, or not at all.
    tmp_path, paths = workspace
    out = tmp_path / "motifs_out"
    assert run("motifs", *base_args(paths, out), "--country-tag", value) == 2
    assert not out.exists()
    assert "country_tag" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,flag,value",
    [
        ("replicates", "--replicates", "0"),
        ("rewiring_p", "--rewiring-p", "nan"),
        ("rewiring_p", "--rewiring-p", "1.5"),
        ("window", "--window", "4"),
        ("window", "--window", "0"),
        ("threshold", "--threshold", "5.0"),
        ("threshold", "--threshold", "7"),
        ("threshold", "--threshold", "nan"),
    ],
)
def test_out_of_range_run_parameters_exit_two_for_every_command(workspace, capsys, key, flag, value):
    tmp_path, paths = workspace
    for command in ("validate", "panel", "motifs", "temporal", "baselines"):
        out = tmp_path / f"{command}_out"
        cfg = tmp_path / "range.cfg"
        cfg.write_text(
            f"node_file = {paths['nodes']}\nedge_file = {paths['edges']}\n"
            f"event_file = {paths['events']}\n{key} = {value}\nout_dir = {out}\n",
            encoding="utf-8",
        )
        runs = [("config", ("--config", str(cfg)))]
        # --replicates and --rewiring-p exist only on baselines.
        if command == "baselines" or key in ("window", "threshold"):
            runs.append(("flag", (*base_args(paths, out), flag, value)))
        for source, argv in runs:
            assert run(command, *argv) == 2, (command, source)
            assert not out.exists(), (command, source)
            assert key in capsys.readouterr().err, (command, source)


@pytest.mark.parametrize(
    "key,flag,value",
    [
        ("seed", "--seed", "1_0"),
        ("year_start", "--year-start", "\u0661\u0669\u0667\u0660"),  # 1970 in Arabic-Indic digits
        ("voltage_floor_kv", "--voltage-floor", "2_20"),
        ("gamma", "--gamma", "1_0.5"),
        ("gamma", "--gamma", "\u0661.\u0665"),
        ("window", "--window", "\u0663"),
        ("replicates", "--replicates", "1_0"),
        ("rewiring_p", "--rewiring-p", "0.1_0"),
    ],
)
def test_numbers_outside_the_ascii_grammar_exit_two_for_every_command(workspace, capsys, key, flag, value):
    tmp_path, paths = workspace
    for command in ("validate", "panel", "motifs", "temporal", "baselines"):
        out = tmp_path / f"{command}_out"
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text(
            f"node_file = {paths['nodes']}\nedge_file = {paths['edges']}\n"
            f"event_file = {paths['events']}\n{key} = {value}\nout_dir = {out}\n",
            encoding="utf-8",
        )
        assert run(command, "--config", str(cfg)) == 2, command
        assert not out.exists(), command
        assert f"bad value for {key}" in capsys.readouterr().err, command
        # --replicates and --rewiring-p exist only on baselines.
        if command == "baselines" or key not in ("replicates", "rewiring_p"):
            with pytest.raises(SystemExit) as exc:
                run(command, *base_args(paths, out), flag, value)
            assert exc.value.code == 2, command
            assert not out.exists(), command
            assert f"argument {flag}: invalid" in capsys.readouterr().err, command


COMMAND_ARGS = {
    "validate": (),
    "panel": ("--voltage-floor", "0"),
    "motifs": ("--voltage-floor", "0"),
    "temporal": ("--voltage-floor", "0"),
    "baselines": ("--voltage-floor", "0", "--replicates", "2", "--per-year"),
}


def set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def parser_garbage(argv):
    """What a full collection reclaims after only building the parser and
    parsing ``argv``."""
    gc.collect()
    cli._build_parser().parse_args(argv)
    return gc.collect()


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_commands_leave_no_cyclic_garbage(workspace, capsys, command):
    # main pauses the cyclic collector, which is safe only while a command
    # leaves nothing for it beyond what argparse's parser leaves.
    tmp_path, paths = workspace
    argv = [command, *base_args(paths, tmp_path / "out"), *COMMAND_ARGS[command]]
    assert main(argv) == 0  # first-use imports and caches
    collecting = gc.isenabled()
    gc.disable()
    try:
        expected = parser_garbage(argv)
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == expected
    finally:
        set_collector(collecting)


def test_command_runs_with_the_collector_paused(workspace, monkeypatch):
    _, paths = workspace
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda config, args: seen.append(gc.isenabled()) or 0)
    assert run("validate", "--nodes", paths["nodes"], "--edges", paths["edges"]) == 0
    assert seen == [False]


@pytest.mark.parametrize("collecting", [True, False])
def test_main_restores_the_collector_setting_on_every_exit(workspace, capsys, collecting):
    tmp_path, paths = workspace
    (tmp_path / "dangling.csv").write_text(
        "edge_id,node_a,node_b,voltage_kv,circuits,year_in,year_out\nE,A,Z,220,1,1960,\n", encoding="utf-8"
    )
    exits = {
        0: ("validate", "--nodes", paths["nodes"], "--edges", paths["edges"]),
        1: ("validate", "--nodes", paths["nodes"], "--edges", str(tmp_path / "dangling.csv")),
        2: ("panel", *base_args(paths, tmp_path / "out"), "--year-start", "1800", "--year-end", "1805"),
    }
    was_enabled = gc.isenabled()
    try:
        for code, argv in exits.items():
            set_collector(collecting)
            assert run(*argv) == code
            assert gc.isenabled() is collecting, code
        set_collector(collecting)
        with pytest.raises(SystemExit):
            run("panel", "--no-such-flag")
        assert gc.isenabled() is collecting
    finally:
        set_collector(was_enabled)


@pytest.mark.parametrize("years", [("--year-start", "1990", "--year-end", "1992"), ()], ids=["3 years", "55 years"])
@pytest.mark.parametrize("command", ["panel", "motifs", "baselines"])
def test_commands_build_years_without_a_snapshot_call_per_year(workspace, capsys, monkeypatch, command, years):
    calls = []
    snapshot_at = records.snapshot_at

    def counting(*args, **kwargs):
        calls.append(args)
        return snapshot_at(*args, **kwargs)

    monkeypatch.setattr(records, "snapshot_at", counting)
    monkeypatch.setattr(cli, "snapshot_at", counting, raising=False)
    tmp_path, paths = workspace
    assert main([command, *base_args(paths, tmp_path / "out"), *COMMAND_ARGS[command], *years]) == 0
    assert len(calls) <= 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "gridpanel" in capsys.readouterr().out


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2

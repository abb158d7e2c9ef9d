import importlib
import os
import subprocess
import sys

import pytest

import gridpanel
from helpers import write_fixture_csvs

# The package's public names by the module that defines them, written out
# so that a name dropped from or added to the package shows here.
PUBLIC_NAMES = {
    "config": ["RunConfig"],
    "errors": [
        "GridPanelError",
        "IntervalError",
        "MetricUndefinedError",
        "ParameterError",
        "ParseError",
        "ReferentialError",
        "ValidationFailedError",
        "YearRangeError",
    ],
    "generators": [
        "BaselineEnsemble",
        "BaselineSpec",
        "efficiency_comparison",
        "gen_erdos_renyi",
        "gen_ring_lattice",
        "gen_watts_strogatz",
    ],
    "graph": ["AnnualSnapshot", "Graph", "as_graph"],
    "metrics": [
        "CommunityPartition",
        "MetricRow",
        "Omega",
        "PathSummary",
        "RandomBaselines",
        "apsp_summary",
        "average_degree",
        "clustering_coefficient",
        "is_small_world",
        "lattice_clustering",
        "link_density",
        "metric_panel",
        "metric_row",
        "modularity_detect",
        "modularity_of",
        "omega_class",
        "random_baselines",
        "small_world_omega",
        "small_world_sigma",
    ],
    "motifs": [
        "MotifCounts",
        "MotifShares",
        "count_four_cycles",
        "count_stars",
        "count_triangles",
        "motif_counts",
        "motif_shares",
    ],
    "records": [
        "AssetRecordSet",
        "ChangeEvent",
        "EdgeRecord",
        "NodeRecord",
        "ValidationReport",
        "Violation",
        "build_panel",
        "build_record_set",
        "filter_by_voltage",
        "load_asset_records",
        "parse_asset_records",
        "snapshot_at",
        "validate_records",
        "year_snapshots",
    ],
    "temporal": [
        "ChangeRateSeries",
        "LifetimeRecord",
        "annual_change_rates",
        "average_lifetime_by_year",
        "line_lifetimes",
        "moving_average",
        "underperformers",
    ],
}


def test_every_public_name_is_its_home_module_object():
    names = [name for names in PUBLIC_NAMES.values() for name in names]
    assert sorted(gridpanel.__all__) == sorted([*PUBLIC_NAMES, *names])
    for module_name, module_names in PUBLIC_NAMES.items():
        home = importlib.import_module(f"gridpanel.{module_name}")
        assert getattr(gridpanel, module_name) is home
        for name in module_names:
            assert getattr(gridpanel, name) is getattr(home, name), name
    star: dict = {}
    exec("from gridpanel import *", star)
    assert {name: star[name] for name in gridpanel.__all__} == {name: getattr(gridpanel, name) for name in gridpanel.__all__}
    assert set(gridpanel.__all__) <= set(dir(gridpanel))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        gridpanel.nope


def test_star_variants_have_one_home():
    # config checks the variant key without loading motifs, which counts
    # stars by the same tuple.
    from gridpanel import config, motifs

    assert motifs.STAR_VARIANTS is config.STAR_VARIANTS == ("subgraph", "induced")


# The modules a command must not load: each loads only the layers it uses.
NOT_LOADED = {
    "validate": ("gridpanel.metrics", "gridpanel.generators", "gridpanel.motifs", "gridpanel.temporal"),
    "panel": ("gridpanel.generators", "gridpanel.motifs", "gridpanel.temporal"),
    "motifs": ("gridpanel.metrics", "gridpanel.generators", "gridpanel.temporal"),
    "temporal": ("gridpanel.metrics", "gridpanel.generators", "gridpanel.motifs"),
    "baselines": ("gridpanel.motifs", "gridpanel.temporal"),
}
# Standard-library modules no command loads: each costs milliseconds of
# start-up (dataclasses alone pulls in inspect, ast, dis and tokenize).
SLOW_STDLIB = ("dataclasses", "inspect", "fractions", "decimal", "statistics")
REPORT_MODULES = """
import sys
from gridpanel.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


def _loaded_modules(argv: list[str]) -> set[str]:
    # The modules a fresh interpreter has loaded after running ``argv``
    # (``-c`` and its code, then arguments), with this gridpanel on its path.
    src = os.path.dirname(os.path.dirname(gridpanel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_commands_load_only_the_modules_they_use(tmp_path, country_records, command):
    paths = write_fixture_csvs(country_records, tmp_path)
    argv = [command, "--nodes", paths["nodes"], "--edges", paths["edges"], "--events", paths["events"]]
    argv += ["--out", str(tmp_path / "out")]
    loaded = _loaded_modules(["-c", REPORT_MODULES, *argv])
    assert "gridpanel.records" in loaded
    assert loaded.isdisjoint(NOT_LOADED[command])
    bare = _loaded_modules(["-c", "import sys; print(' '.join(sys.modules))"])
    assert loaded.intersection(SLOW_STDLIB) <= bare

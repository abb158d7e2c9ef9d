"""Year-by-year topology analytics for long-lived infrastructure networks.

The package turns dated asset records (stations, circuits, change
events) into annual graph snapshots and derives structure metrics,
motif censuses, lifetime statistics and reference-graph comparisons
from them, all reproducibly seeded.

Every public name below is importable from the package itself. Each is
imported from its module on first access (PEP 562), so a program, such
as one CLI command, loads only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("RunConfig",),
    "errors": (
        "GridPanelError",
        "IntervalError",
        "MetricUndefinedError",
        "ParameterError",
        "ParseError",
        "ReferentialError",
        "ValidationFailedError",
        "YearRangeError",
    ),
    "generators": (
        "BaselineEnsemble",
        "BaselineSpec",
        "efficiency_comparison",
        "gen_erdos_renyi",
        "gen_ring_lattice",
        "gen_watts_strogatz",
    ),
    "graph": ("AnnualSnapshot", "Graph", "as_graph"),
    "metrics": (
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
    ),
    "motifs": (
        "MotifCounts",
        "MotifShares",
        "count_four_cycles",
        "count_stars",
        "count_triangles",
        "motif_counts",
        "motif_shares",
    ),
    "records": (
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
    ),
    "temporal": (
        "ChangeRateSeries",
        "LifetimeRecord",
        "annual_change_rates",
        "average_lifetime_by_year",
        "line_lifetimes",
        "moving_average",
        "underperformers",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    # Called only for names not yet in the package's namespace. A
    # submodule binds itself here once imported; a name is read from its
    # module on every access, so it is always that module's current value.
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

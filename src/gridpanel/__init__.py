"""Year-by-year topology analytics for long-lived infrastructure networks.

The package turns dated asset records (stations, circuits, change
events) into annual graph snapshots and derives structure metrics,
motif censuses, lifetime statistics and reference-graph comparisons
from them, all reproducibly seeded.
"""

from .config import RunConfig
from .errors import (
    GridPanelError,
    IntervalError,
    MetricUndefinedError,
    ParameterError,
    ParseError,
    ReferentialError,
    ValidationFailedError,
    YearRangeError,
)
from .generators import (
    BaselineEnsemble,
    BaselineSpec,
    efficiency_comparison,
    gen_erdos_renyi,
    gen_ring_lattice,
    gen_watts_strogatz,
)
from .graph import AnnualSnapshot, Graph, as_graph
from .metrics import (
    CommunityPartition,
    MetricRow,
    Omega,
    PathSummary,
    RandomBaselines,
    apsp_summary,
    average_degree,
    clustering_coefficient,
    is_small_world,
    lattice_clustering,
    link_density,
    metric_panel,
    metric_row,
    modularity_detect,
    modularity_of,
    omega_class,
    random_baselines,
    small_world_omega,
    small_world_sigma,
)
from .motifs import (
    MotifCounts,
    MotifShares,
    count_four_cycles,
    count_stars,
    count_triangles,
    motif_counts,
    motif_shares,
)
from .records import (
    AssetRecordSet,
    ChangeEvent,
    EdgeRecord,
    NodeRecord,
    ValidationReport,
    Violation,
    build_panel,
    build_record_set,
    filter_by_voltage,
    load_asset_records,
    parse_asset_records,
    snapshot_at,
    validate_records,
    year_snapshots,
)
from .temporal import (
    ChangeRateSeries,
    LifetimeRecord,
    annual_change_rates,
    average_lifetime_by_year,
    line_lifetimes,
    moving_average,
    underperformers,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

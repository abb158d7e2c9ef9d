"""Command-line front end.

Five subcommands: validate, panel, motifs, temporal, baselines. Every
analysis run writes its documented CSVs plus a manifest into the output
directory, and a failed run writes none; running the same command with
``--config <manifest>`` again reproduces the outputs byte for byte. Exit
codes: 0 success, 1 record validation failure, 2 I/O or parameter
trouble. ``panel`` spreads its years over one forked process per usable
CPU; its outputs are the same bytes whatever the CPU count.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from . import __version__
from .config import CONFIG_KEYS, STAR_VARIANTS, RunConfig, _format_value, apply_overrides, dump_config, load_config
from .errors import GridPanelError, ParameterError, ValidationFailedError
from .records import (
    AssetRecordSet,
    _ascii_number,
    _year_range_within,
    filter_by_voltage,
    load_asset_records,
    parse_asset_records,
    validate_records,
    year_changes,
    year_snapshots,
)

# Every command needs the modules above. Each cmd_* function imports the
# ones only it uses, so a run loads no analysis module it does not call.


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # No command leaves cyclic garbage, so the cyclic collector's passes over
    # the long-lived records and graphs free nothing. It is paused for the
    # run and the caller's setting is restored on every exit.
    collecting = gc.isenabled()
    gc.disable()
    try:
        config = _resolve_config(args)
        return args.handler(config, args)
    except ValidationFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GridPanelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridpanel",
        description="Year-by-year topology analytics for long-lived infrastructure networks.",
    )
    parser.add_argument("--version", action="version", version=f"gridpanel {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    specs = (
        ("validate", "check record files and report every violation", cmd_validate),
        ("panel", "write per-year metric tables", cmd_panel),
        ("motifs", "write per-year motif counts and shares", cmd_motifs),
        ("temporal", "write lifetime and change-rate tables", cmd_temporal),
        ("baselines", "write reference-family efficiency ensembles", cmd_baselines),
    )
    for name, help_text, handler in specs:
        sub = subs.add_parser(name, help=help_text)
        # Numeric flags read the same ASCII grammar as config values; errors
        # still name int and float.
        for kind in (int, float):
            sub.register("type", kind, partial(_ascii_number, kind))
        _add_common_arguments(sub)
        if name == "baselines":
            sub.add_argument("--replicates", type=int, help="replicates per family (default 50)")
            sub.add_argument("--rewiring-p", type=float, help="rewiring probability (default 0.1)")
            sub.add_argument(
                "--per-year",
                action=argparse.BooleanOptionalAction,
                help="also regenerate references at each year's size instead of only the averaged one",
            )
        sub.set_defaults(handler=handler)
    return parser


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags below override it")
    sub.add_argument("--nodes", dest="node_file", help="node records CSV")
    sub.add_argument("--edges", dest="edge_file", help="edge records CSV")
    sub.add_argument("--events", dest="event_file", help="change events CSV")
    sub.add_argument("--country-tag", dest="country_tag", help="tag copied into outputs")
    sub.add_argument("--voltage-floor", dest="voltage_floor_kv", type=int, help="minimum voltage in kV")
    sub.add_argument("--year-start", dest="year_start", type=int)
    sub.add_argument("--year-end", dest="year_end", type=int)
    sub.add_argument("--gamma", type=float, help="modularity resolution")
    sub.add_argument("--seed", type=int, help="seed for every stochastic step")
    sub.add_argument("--chordless-only", dest="chordless_only", choices=("true", "false"))
    sub.add_argument("--variant", choices=STAR_VARIANTS, help="star counting variant")
    sub.add_argument("--window", type=int, help="moving-average window (odd)")
    sub.add_argument("--threshold", type=float, help="underperformer survived-ratio cutoff")
    sub.add_argument("--out", dest="out_dir", help="output directory")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides: dict[str, Any] = {}
    for key in CONFIG_KEYS:
        if hasattr(args, key):
            overrides[key] = getattr(args, key)
    if overrides.get("chordless_only") is not None:
        overrides["chordless_only"] = overrides["chordless_only"] == "true"
    return apply_overrides(config, **overrides)


def _require_inputs(config: RunConfig) -> None:
    if not config.node_file or not config.edge_file:
        raise ParameterError("node and edge files are required (--nodes/--edges or config keys)")


def _load_validated(config: RunConfig) -> AssetRecordSet:
    _require_inputs(config)
    return parse_asset_records(
        config.node_file,
        config.edge_file,
        config.event_file,
        country_tag=config.country_tag,
    )


def _write_outputs(config: RunConfig, command: str, tables: dict[str, tuple[Sequence[str], Iterable]]) -> None:
    """Create the output directory, write each ``name: (header, rows)``
    table in order as the CSV file ``name``, and write
    ``<command>_manifest.txt`` last. Commands compute their rows before
    this call, so a failed run writes no file; lazy rows are formatted as
    they are written.

    Cells are None, bool, int, float or str. The csv writer writes None
    as an empty field, an int by ``str`` and a float by ``repr``, as
    :func:`_format_value` does, so only booleans are converted here."""
    os.makedirs(config.out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        with open(os.path.join(config.out_dir, name), "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_format_value(v) if v is True or v is False else v for v in row] for row in rows)
    path = os.path.join(config.out_dir, f"{command}_manifest.txt")
    text = dump_config(
        config,
        header_lines=(
            f"gridpanel {__version__} run manifest",
            f"command: {command}",
            f"reproduce with: gridpanel {command} --config {path}",
        ),
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spread_over_cpus(work: Callable, items: Iterable, n_items: int) -> list:
    """``[work(item) for item in items]`` for ``n_items`` items, computed
    by ``w`` processes: one per usable CPU, at most one per item, and one
    where ``os.fork`` does not exist.

    Process ``k`` of ``w`` (the caller is process 0, the others are
    forked first) consumes every item but calls ``work`` only on the
    items ``i`` with ``i % w == k``, so ``items`` must come out the same
    in every process. A worker sends its results back through a pipe as
    a pickle and leaves through ``os._exit``, so none of the caller's
    stdio buffers or exit handlers runs twice. The results come back in
    item order. A failure is raised as a sequential run would raise it:
    the exception of the earliest failing item, or ``ChildProcessError``
    with the wait status of a worker that ended without sending its
    results. Every worker is reaped before this returns or raises."""
    w = min(_usable_cpus(), n_items) if hasattr(os, "fork") else 1
    if w > 1:
        import pickle
        import signal
    pipes: dict = {}  # pid of each worker not yet reaped -> read end of its pipe
    try:
        for k in range(1, w):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if not pid:
                _send_share(write_fd, work, items, k, w)
            os.close(write_fd)
            pipes[pid] = open(read_fd, "rb")
        shares = [_share(work, items, 0, w)]
        for pid, pipe in list(pipes.items()):
            with pipe:
                sent = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del pipes[pid]
            if status:
                raise ChildProcessError(f"panel worker {pid} ended without its results (wait status {status})")
            shares.append(pickle.loads(sent))
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure]
    if failures:
        raise min(failures, key=itemgetter(0))[1]
    results: list = [None] * sum(len(done) for done, _ in shares)
    for k, (done, _) in enumerate(shares):
        results[k::w] = done
    return results


def _share(work: Callable, items: Iterable, k: int, w: int) -> tuple[list, tuple[int, Exception] | None]:
    # Process k's results, and its first failure as (item index,
    # exception) or None. A failure of the items themselves counts at the
    # index of the item that was being produced.
    done = []
    index = 0
    try:
        for item in items:
            if index % w == k:
                done.append(work(item))
            index += 1
    except Exception as exc:
        return done, (index, exc)
    return done, None


def _send_share(write_fd: int, work: Callable, items: Iterable, k: int, w: int) -> None:
    # In a forked worker: send process k's share down the pipe, then
    # leave, with status 0 only if the whole share was sent.
    status = 1
    try:
        import pickle

        sent = pickle.dumps(_share(work, items, k, w))
        with open(write_fd, "wb") as pipe:
            pipe.write(sent)
        status = 0
    finally:
        os._exit(status)


def cmd_validate(config: RunConfig, args: argparse.Namespace) -> int:
    _require_inputs(config)
    records = load_asset_records(
        config.node_file,
        config.edge_file,
        config.event_file,
        country_tag=config.country_tag,
    )
    report = validate_records(records)
    print(report)
    if report.ok:
        return 0
    print(f"{len(report.violations)} violations")
    return 1


def cmd_panel(config: RunConfig, args: argparse.Namespace) -> int:
    from .metrics import METRIC_NAMES, metric_row

    records = _load_validated(config)
    start, end = _year_range_within(records, config.year_start, config.year_end)
    rows = _spread_over_cpus(
        partial(metric_row, gamma=config.gamma, seed=config.seed),
        year_snapshots(records, start, end, config.voltage_floor_kv),
        end - start + 1,
    )
    tidy = []
    wide = []
    for row in rows:
        values = row.as_dict()
        key = (config.country_tag, row.year, config.voltage_floor_kv)
        tidy.extend(key + (metric, values[metric], row.reasons.get(metric, "")) for metric in sorted(METRIC_NAMES))
        wide.append(key + tuple(values[m] for m in METRIC_NAMES))
    key_header = ("country", "year", "voltage_floor_kv")
    _write_outputs(
        config,
        "panel",
        {
            "panel_tidy.csv": (key_header + ("metric", "value", "defined_reason"), tidy),
            "panel_wide.csv": (key_header + METRIC_NAMES, wide),
        },
    )
    print(f"wrote panel_tidy.csv, panel_wide.csv for {len(rows)} years to {config.out_dir}")
    return 0


def cmd_motifs(config: RunConfig, args: argparse.Namespace) -> int:
    from .motifs import MOTIF_NAMES, carried_motif_counts, motif_shares

    n_years = 0
    out_rows = []
    changes = year_changes(_load_validated(config), config.year_start, config.year_end, config.voltage_floor_kv)
    census = carried_motif_counts(changes, chordless_only=config.chordless_only, variant=config.variant)
    for counts in census:
        n_years += 1
        shares = motif_shares(counts)
        count_map = counts.as_dict()
        share_map = shares.as_dict()
        for motif in sorted(MOTIF_NAMES):
            out_rows.append(
                (
                    config.country_tag,
                    counts.year,
                    motif,
                    count_map[motif],
                    share_map[motif],
                    config.variant,
                    config.chordless_only,
                )
            )
    _write_outputs(
        config,
        "motifs",
        {"motifs.csv": (("country", "year", "motif", "count", "share", "variant", "chordless_only"), out_rows)},
    )
    print(f"wrote motifs.csv for {n_years} years to {config.out_dir}")
    return 0


def cmd_temporal(config: RunConfig, args: argparse.Namespace) -> int:
    from .temporal import annual_change_rates, average_lifetime_by_year, line_lifetimes, underperformers

    records = _load_validated(config)
    start, end = _year_range_within(records, config.year_start, config.year_end)
    scoped = filter_by_voltage(records, config.voltage_floor_kv)
    lifetimes = line_lifetimes(scoped)
    rates = annual_change_rates(scoped, window=config.window)
    flagged = underperformers(lifetimes, config.threshold)
    observed = average_lifetime_by_year(lifetimes)
    bounded = average_lifetime_by_year(lifetimes, include_censored=True)

    lifetime_header = (
        "edge_id",
        "year_in",
        "first_change_year",
        "lifetime",
        "censored",
        "max_expected",
        "survived_ratio",
    )
    _write_outputs(
        config,
        "temporal",
        {
            # a LifetimeRecord's fields are in the order of the header
            "lifetimes.csv": (lifetime_header, lifetimes),
            "underperformers.csv": (lifetime_header, flagged),
            "change_rates.csv": (
                ("year",) + rates._fields[1:],
                (row for row in zip(*rates) if start <= row[0] <= end),
            ),
            "avg_lifetime_by_year.csv": (
                ("year", "mean_lifetime", "mean_lifetime_with_censored"),
                ((year, observed[year], bounded[year]) for year in sorted(observed)),
            ),
        },
    )
    print(
        f"wrote lifetimes.csv ({len(lifetimes)} lines), change_rates.csv, "
        f"avg_lifetime_by_year.csv, underperformers.csv ({len(flagged)} flagged) to {config.out_dir}"
    )
    return 0


def _replicate_rows(ensembles: dict) -> Iterator[tuple]:
    # (family, replicate, metric, value): families in FAMILIES order, then
    # replicates in order, then metrics by name.
    from .generators import FAMILIES

    for family in FAMILIES:
        for replicate, row in enumerate(ensembles[family].rows):
            for metric in sorted(row):
                yield family, replicate, metric, row[metric]


def cmd_baselines(config: RunConfig, args: argparse.Namespace) -> int:
    from .generators import FAMILIES, efficiency_comparison
    from .metrics import _round_half_up

    snapshots = year_snapshots(_load_validated(config), config.year_start, config.year_end, config.voltage_floor_kv)
    sizes = [(snap.year, snap.n_nodes, snap.n_edges) for snap in snapshots]
    mean_nodes = _round_half_up(sum(n_nodes for _, n_nodes, _ in sizes) / len(sizes))
    mean_edges = _round_half_up(sum(n_edges for _, _, n_edges in sizes) / len(sizes))
    ensembles = efficiency_comparison(
        mean_nodes, mean_edges, config.replicates, config.seed, rewiring_p=config.rewiring_p
    )
    summary = [
        (family, metric, ensembles[family].mean[metric], ensembles[family].std[metric])
        for family in FAMILIES
        for metric in sorted(ensembles[family].mean)
    ]
    by_efficiency = sorted(FAMILIES, key=lambda f: ensembles[f].mean["efficiency"], reverse=True)
    summary.append(("ordering", "efficiency", ">".join(by_efficiency), None))
    tables = {
        "baselines.csv": (("family", "replicate", "metric", "value"), _replicate_rows(ensembles)),
        "baselines_summary.csv": (("family", "metric", "mean", "std"), summary),
    }

    if config.per_year:
        per_year_rows = []
        for year, n_nodes, n_edges in sizes:
            try:
                yearly = efficiency_comparison(
                    n_nodes, n_edges, config.replicates, config.seed, rewiring_p=config.rewiring_p
                )
            except ParameterError:
                continue  # years too small to host a matched lattice
            per_year_rows.extend((year,) + row for row in _replicate_rows(yearly))
        tables["baselines_per_year.csv"] = (("year", "family", "replicate", "metric", "value"), per_year_rows)

    _write_outputs(config, "baselines", tables)
    lattice_edges = ensembles["ring_lattice"].achieved_edges
    note = "" if lattice_edges == mean_edges else f" (lattice families achieve {lattice_edges})"
    print(
        f"wrote baselines for n={mean_nodes}, requested edges {mean_edges}{note}, "
        f"{config.replicates} replicates to {config.out_dir}"
    )
    return 0

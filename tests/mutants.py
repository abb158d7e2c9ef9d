"""Mutation checks: each mutant breaks the program in one place, and the
tests named with it must fail on the broken copy.

Run from anywhere, with pytest installed:

    python tests/mutants.py

``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory once per mutant. The mutant's ``old`` text must occur exactly
once in its file; it is replaced by ``new`` and the named tests run on
the copy. An unmutated copy must pass all the named tests first, so a
mutant counts as caught only by tests that fail because of it. The
script exits 1 if the unmutated copy fails, or if any mutant does not
apply, survives, or stops the tests some other way than by failing them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PATH_TESTS = ["tests/test_metrics.py::test_path_summary_equals_per_source_bfs_past_word_boundaries"]
MOTIF_TESTS = [
    "tests/test_motifs.py::test_larger_graph_counts_by_hand",
    "tests/test_motifs.py::test_counts_match_edge_and_wedge_oracles_on_larger_graphs",
]
SPREAD_TESTS = [
    "tests/test_cli.py::test_panel_writes_the_same_bytes_for_every_worker_count",
    "tests/test_cli.py::test_baselines_writes_the_same_bytes_for_every_worker_count",
]
STAR_TESTS = [
    "tests/test_motifs.py::test_counts_match_subset_enumeration",
    "tests/test_motifs.py::test_counts_match_edge_and_wedge_oracles_on_larger_graphs",
]
STDOUT_TESTS = ["tests/test_cli.py::test_forked_workers_write_nothing_to_stdout"]
INTERRUPT_TESTS = ["tests/test_cli.py::test_an_interrupt_kills_and_reaps_the_workers"]
DEAD_WORKER_TESTS = ["tests/test_cli.py::test_a_worker_that_dies_without_its_rows_exits_two_and_writes_nothing"]
CLI_SPREAD_TESTS = ["tests/test_generators.py::test_the_cli_spread_equals_efficiency_comparison"]
GOLDEN_TESTS = ["tests/test_golden.py::test_csv_bytes_match_recorded_digests"]
LOUVAIN_TESTS = [
    "tests/test_modularity.py::test_detection_equals_fraction_gain_oracle",
    "tests/test_modularity.py::test_property_detection_equals_the_oracle",
]
LOADER_TESTS = [
    "tests/test_records.py::test_loader_equals_the_oracle_on_the_fixtures",
    "tests/test_records.py::test_loader_equals_the_oracle_on_odd_number_texts",
    "tests/test_records.py::test_loader_equals_the_oracle_on_repeated_event_texts",
    "tests/test_records.py::test_a_malformed_row_is_reported_before_an_earlier_bad_field",
    "tests/test_records.py::test_errors_name_the_line_a_record_starts_on",
    "tests/test_records.py::test_a_bad_field_in_a_record_over_two_lines_is_reported_where_it_starts",
    "tests/test_records.py::test_property_loader_equals_the_oracle",
]
WINDOW_TESTS = [
    "tests/test_config.py::test_out_of_range_run_parameters_rejected[window-4]",
    "tests/test_temporal.py::test_moving_average_window_validated",
]
REPLICATES_TESTS = [
    "tests/test_config.py::test_out_of_range_run_parameters_rejected[replicates-0]",
    "tests/test_generators.py::test_efficiency_comparison_validation",
]
INTERVAL_TESTS = ["tests/test_records.py::test_empty_service_interval_is_clean"]
VALIDATOR_TESTS = [
    "tests/test_records.py::test_validator_equals_the_oracle_on_the_fixtures",
    "tests/test_records.py::test_property_validator_equals_the_oracle",
]
LIFETIME_TESTS = [
    "tests/test_temporal.py::test_lifetimes_equal_the_oracle_on_the_fixtures",
    "tests/test_temporal.py::test_property_lifetimes_equal_the_oracle",
]
CHANGE_RATE_TESTS = [
    "tests/test_temporal.py::test_change_rates_equal_the_oracle_on_the_fixtures",
    "tests/test_temporal.py::test_change_rates_equal_the_oracle_on_every_event_rule",
    "tests/test_temporal.py::test_property_change_rates_equal_the_oracle",
]

# (file, old text, new text, test ids)
MUTANTS = [
    # A root's tree nodes are counted at the root's own distance.
    (
        "src/gridpanel/metrics.py",
        "pairs += fold << (width * (d + 1))",
        "pairs += fold << (width * d)",
        PATH_TESTS,
    ),
    # A root's profile is folded in at level 1 only.
    (
        "src/gridpanel/metrics.py",
        "            if profile[i]:\n",
        "            if profile[i] and d == 1:\n",
        PATH_TESTS,
    ),
    # Tree sources enter the sweep one level late.
    (
        "src/gridpanel/metrics.py",
        "if d < len(inject):\n            for r, bits in inject[d].items():",
        "if d <= len(inject):\n            for r, bits in inject[d - 1].items():",
        PATH_TESTS,
    ),
    # A root's profile is folded in once per level, not once per source.
    (
        "src/gridpanel/metrics.py",
        "                fold += c * profile[i]",
        "                fold += profile[i]",
        PATH_TESTS,
    ),
    # A tall root folds each source it finds for one order of the pair only.
    (
        "src/gridpanel/metrics.py",
        "            profile[r] <<= 1\n",
        "",
        PATH_TESTS,
    ),
    # Pairs between two tall trees are never counted.
    (
        "src/gridpanel/metrics.py",
        "                meet += profile[r] * near\n",
        "",
        PATH_TESTS,
    ),
    # Pairs between two tall trees are counted one step short.
    (
        "src/gridpanel/metrics.py",
        "pairs += (meet >> 2) << (width * (d + 2))",
        "pairs += (meet >> 2) << (width * (d + 1))",
        PATH_TESTS,
    ),
    # The last level, at which no node gains a source, is recorded.
    (
        "src/gridpanel/metrics.py",
        "        if found:\n            hist[d] = found\n",
        "        hist[d] = found\n",
        PATH_TESTS,
    ),
    # The matched lattice's coordination rounds half of the degree to even.
    (
        "src/gridpanel/metrics.py",
        "max(2, 2 * _round_half_up(avg_degree / 2))",
        "max(2, 2 * round(avg_degree / 2))",
        [
            "tests/test_metrics.py::test_lattice_clustering_reference_points",
            "tests/test_generators.py::test_efficiency_comparison_matches_edges_across_families",
        ],
    ),
    # Both ends' shares of a linked pair go to its lower end's degree class.
    (
        "src/gridpanel/metrics.py",
        "            linked_by_degree[len(rows[b])] += w\n",
        "            linked_by_degree[len(rows[a])] += w\n",
        [
            "tests/test_metrics.py::test_clustering_equals_per_node_fractions",
            "tests/test_metrics.py::test_property_clustering_equals_the_oracle",
        ],
    ),
    # The census keeps each station's walk back to itself as a pair.
    (
        "src/gridpanel/motifs.py",
        "    for a in positions:\n        del walks[a, a]\n",
        "",
        ["tests/test_motifs.py::test_census_equals_motif_counts_on_the_fixtures"],
    ),
    # Chordless 4-cycles lose the correction for linked middle corners.
    (
        "src/gridpanel/motifs.py",
        "cycles += comb(w, 2) - sum(len(common.intersection(rows[x])) for x in common) // 2",
        "cycles += comb(w, 2)",
        MOTIF_TESTS,
    ),
    # A linked diagonal pair closes chordless 4-cycles.
    (
        "src/gridpanel/motifs.py",
        "if w > 1 and b not in rows[a]:",
        "if w > 1:",
        MOTIF_TESTS,
    ),
    # Each process's results are concatenated, not interleaved.
    (
        "src/gridpanel/cli.py",
        "    for k, (done, _) in enumerate(shares):\n        results[k::w] = done\n",
        "    results = [result for done, _ in shares for result in done]\n",
        SPREAD_TESTS,
    ),
    # The first failure in process order is raised, not the earliest item's.
    (
        "src/gridpanel/cli.py",
        "raise min(failures, key=itemgetter(0))[1]",
        "raise failures[0][1]",
        ["tests/test_cli.py::test_a_failing_year_raises_as_a_sequential_run_does"],
    ),
    # A worker's wait status is ignored.
    (
        "src/gridpanel/cli.py",
        "status = os.waitpid(pid, 0)[1]",
        "status = 0 * os.waitpid(pid, 0)[1]",
        ["tests/test_cli.py::test_a_worker_that_dies_without_its_rows_exits_two_and_writes_nothing"],
    ),
    # Process k computes the items one index after its own.
    (
        "src/gridpanel/cli.py",
        "    index = 0\n",
        "    index = 1\n",
        SPREAD_TESTS,
    ),
    # Each level of the induced star pass counts one subset, not one per pool member.
    (
        "src/gridpanel/motifs.py",
        "found[size] += len(pool)",
        "found[size] += 1",
        STAR_TESTS,
    ),
    # The next level's pool keeps the chosen member.
    (
        "src/gridpanel/motifs.py",
        "[c for c in pool[idx + 1 :] if c not in row]",
        "[c for c in pool[idx:] if c not in row]",
        STAR_TESTS,
    ),
    # The next level's pool is not filtered by the chosen member's row.
    (
        "src/gridpanel/motifs.py",
        "[c for c in pool[idx + 1 :] if c not in row]",
        "list(pool[idx + 1 :])",
        STAR_TESTS,
    ),
    # A worker leaves through sys.exit, which runs the caller's exit handlers and flushes its stdio.
    (
        "src/gridpanel/cli.py",
        "    finally:\n        os._exit(status)\n",
        "    finally:\n        sys.exit(status)\n",
        STDOUT_TESTS,
    ),
    # A worker flushes the stdout buffer it inherited.
    (
        "src/gridpanel/cli.py",
        "    finally:\n        os._exit(status)\n",
        "    finally:\n        sys.stdout.flush()\n        os._exit(status)\n",
        STDOUT_TESTS,
    ),
    # Workers left behind are reaped but not killed first.
    (
        "src/gridpanel/cli.py",
        "            os.kill(pid, signal.SIGKILL)\n",
        "",
        INTERRUPT_TESTS,
    ),
    # Workers left behind are killed but not reaped.
    (
        "src/gridpanel/cli.py",
        "            os.kill(pid, signal.SIGKILL)\n            os.waitpid(pid, 0)\n",
        "            os.kill(pid, signal.SIGKILL)\n",
        INTERRUPT_TESTS,
    ),
    # Every plan reads the first rows of the job list.
    (
        "src/gridpanel/generators.py",
        "rows = iter(spread(_measure, jobs))",
        "rows = list(spread(_measure, jobs))",
        CLI_SPREAD_TESTS,
    ),
    # The Watts-Strogatz ensemble also takes the lattice row.
    (
        "src/gridpanel/generators.py",
        "rows[replicates:-1]",
        "rows[replicates:]",
        ["tests/test_generators.py::test_efficiency_comparison_shapes_and_determinism", *GOLDEN_TESTS],
    ),
    # The ensemble std is the root of the variance rounded to a float.
    (
        "src/gridpanel/generators.py",
        "std[name] = _root_of_ratio(spread, (n * common) ** 2)",
        "std[name] = math.sqrt(spread / (n * n * common * common))",
        ["tests/test_generators.py::test_summary_std_is_the_exact_root_rounded_once"],
    ),
    # A year too small for a lattice is skipped but still listed.
    (
        "src/gridpanel/cli.py",
        "                continue  # years too small to host a matched lattice\n",
        "                pass  # years too small to host a matched lattice\n",
        ["tests/test_cli.py::test_baselines_writes_the_same_bytes_for_every_worker_count"],
    ),
    # A dead worker is reported with the old text.
    (
        "src/gridpanel/cli.py",
        'f"worker process {pid} ended without its results',
        'f"panel worker {pid} ended without its results',
        DEAD_WORKER_TESTS,
    ),
    # baselines measures every job in the caller.
    (
        "src/gridpanel/cli.py",
        "_measure_plans(plans, lambda work, jobs: _spread_over_cpus(work, jobs, len(jobs)))",
        "_measure_plans(plans, map)",
        [*DEAD_WORKER_TESTS, "tests/test_cli.py::test_a_failed_baselines_run_writes_no_file"],
    ),
    # The lattice job comes first in a plan.
    (
        "src/gridpanel/generators.py",
        "    jobs.append((gen_ring_lattice, (n_nodes, coordination)))\n",
        "    jobs.insert(0, (gen_ring_lattice, (n_nodes, coordination)))\n",
        ["tests/test_generators.py::test_efficiency_ordering_random_above_rewired_above_ring", *GOLDEN_TESTS],
    ),
    # The lattice spec keeps the Watts-Strogatz rewiring probability.
    (
        "src/gridpanel/generators.py",
        'ws._replace(family="ring_lattice", rewiring_p=None)',
        'ws._replace(family="ring_lattice")',
        ["tests/test_generators.py::test_each_family_spec_holds_its_own_generation_parameters"],
    ),
    # efficiency_comparison spreads its jobs over the CPUs.
    (
        "src/gridpanel/generators.py",
        "    return _measure_plans([_plan(n_nodes, n_edges, replicates, seed, rewiring_p)], map)[0]\n",
        "    from .cli import _spread_over_cpus\n\n"
        "    plans = [_plan(n_nodes, n_edges, replicates, seed, rewiring_p)]\n"
        "    return _measure_plans(plans, lambda work, jobs: _spread_over_cpus(work, jobs, len(jobs)))[0]\n",
        CLI_SPREAD_TESTS,
    ),
    # Equal gains go to the highest label.
    (
        "src/gridpanel/metrics.py",
        "(gain == best_gain and c < best_c)",
        "(gain == best_gain and c > best_c)",
        ["tests/test_modularity.py::test_equal_gains_go_to_the_lowest_label", *LOUVAIN_TESTS],
    ),
    # Equal gains go to the community scored last.
    (
        "src/gridpanel/metrics.py",
        "if gain > best_gain or (gain == best_gain",
        "if gain >= best_gain or (gain == best_gain",
        ["tests/test_modularity.py::test_equal_gains_go_to_the_lowest_label", *LOUVAIN_TESTS],
    ),
    # A community's entries of its own label stay in its row, and its loop misses them.
    (
        "src/gridpanel/metrics.py",
        "        for c, row in enumerate(new_rows):\n            own = row.count(c)\n            if own:\n"
        "                new_loop[c] += own\n                new_rows[c] = [v for v in row if v != c]\n",
        "",
        LOUVAIN_TESTS,
    ),
    # Repeated entries of a community's row collapse to one.
    (
        "src/gridpanel/metrics.py",
        "new_rows[c].extend(map(to_new.__getitem__, row))",
        "new_rows[c].extend(set(map(to_new.__getitem__, row)).difference(new_rows[c]))",
        LOUVAIN_TESTS,
    ),
    # A community's degree is taken as its row length, without its self-weight.
    (
        "src/gridpanel/metrics.py",
        "rows, k, loop = new_rows, new_k, new_loop",
        "rows, k, loop = new_rows, list(map(len, new_rows)), new_loop",
        LOUVAIN_TESTS,
    ),
    # After a bad field the rest of the file is not scanned for a malformed row.
    (
        "src/gridpanel/records.py",
        "                    line = start\n",
        "                    return ParseError(path, start, str(exc))\n",
        LOADER_TESTS,
    ),
    # A bad field is reported before the file is scanned for a malformed row.
    (
        "src/gridpanel/records.py",
        "    line = None\n    with open(",
        "    if isinstance(exc, _FieldError):\n        return ParseError(path, line_num, str(exc))\n"
        "    line = None\n    with open(",
        LOADER_TESTS,
    ),
    # A row's line number counts records, not the lines a quoted field spans.
    (
        "src/gridpanel/records.py",
        "                    line = start\n                start = reader.line_num + 1\n",
        "                    line = start\n                start += 1\n",
        LOADER_TESTS,
    ),
    # A bad field is reported at the line its row ends on.
    (
        "src/gridpanel/records.py",
        "                    line = start\n",
        "                    line = line_num\n",
        LOADER_TESTS,
    ),
    # An edge's events are sorted by kind first.
    (
        "src/gridpanel/records.py",
        '_event_order = attrgetter("year", "kind")',
        '_event_order = attrgetter("kind", "year")',
        LOADER_TESTS,
    ),
    # A station's year_in reads the memo of integer fields.
    (
        "src/gridpanel/records.py",
        '"voltage_kv"))\n            year_in = years.get(y_in) or years.setdefault(y_in, _year_field(y_in, "year_in"))',
        '"voltage_kv"))\n            year_in = ints.get(y_in) or ints.setdefault(y_in, _year_field(y_in, "year_in"))',
        LOADER_TESTS,
    ),
    # An edge endpoint keeps its own text rather than the station's identifier string.
    (
        "src/gridpanel/records.py",
        "node_a = ids.get(node_a) or ids.setdefault(node_a, ids.get(node_a.strip(), node_a.strip()))",
        "node_a = node_a.strip()",
        LOADER_TESTS,
    ),
    # An event row whose year and kind texts were read before skips the edge check.
    (
        "src/gridpanel/records.py",
        "if event is None or edge is None:",
        "if event is None:",
        LOADER_TESTS,
    ),
    # An even window passes the shared domain table.
    (
        "src/gridpanel/config.py",
        "isinstance(v, int) and v >= 1 and v % 2 == 1,",
        "isinstance(v, int) and v >= 1,",
        WINDOW_TESTS,
    ),
    # efficiency_comparison checks rewiring_p only when its first Watts-Strogatz graph is built.
    (
        "src/gridpanel/generators.py",
        '    check("replicates", replicates)\n    check("rewiring_p", rewiring_p)\n',
        '    check("replicates", replicates)\n',
        ["tests/test_generators.py::test_a_bad_rewiring_p_is_rejected_before_any_graph_is_measured"],
    ),
    # An ensemble of no replicates passes the shared domain table.
    (
        "src/gridpanel/config.py",
        '"replicates": (lambda v: v >= 1,',
        '"replicates": (lambda v: v >= 0,',
        REPLICATES_TESTS,
    ),
    # An empty service interval counts as reversed, for a station and for a line.
    (
        "src/gridpanel/records.py",
        'if year_out is not None and year_out < year_in:\n            err("interval_reversed", node_id',
        'if year_out is not None and year_out <= year_in:\n            err("interval_reversed", node_id',
        INTERVAL_TESTS,
    ),
    (
        "src/gridpanel/records.py",
        'if year_out is not None and year_out < year_in:\n            err("interval_reversed", edge_id',
        'if year_out is not None and year_out <= year_in:\n            err("interval_reversed", edge_id',
        INTERVAL_TESTS,
    ),
    # A station without a year_out stops a year early, in the last year of the span.
    (
        "src/gridpanel/records.py",
        "lives[node_id] = (year_in, open_end if year_out is None else year_out)",
        "lives[node_id] = (year_in, end if year_out is None else year_out)",
        VALIDATOR_TESTS,
    ),
    # A decommission event off year_out is not reported.
    (
        "src/gridpanel/records.py",
        'if kind == "decommission" and ev_year != year_out:',
        "if False:",
        VALIDATOR_TESTS,
    ),
    # Events of every kind end a line's lifetime.
    (
        "src/gridpanel/temporal.py",
        "if kind in kinds and (first_change is None or year < first_change):",
        "if first_change is None or year < first_change:",
        LIFETIME_TESTS,
    ),
    # A decommission event in year_out counts again.
    (
        "src/gridpanel/temporal.py",
        "counted = {year_out}",
        "counted = set()",
        CHANGE_RATE_TESTS,
    ),
    # Decommission events count once each, not once a year.
    (
        "src/gridpanel/temporal.py",
        "                    if year in counted:\n                        continue\n                    counted.add(year)\n",
        "                    if year == year_out:\n                        continue\n",
        CHANGE_RATE_TESTS,
    ),
    # A line with both years outside the span is reported by its year_out.
    (
        "src/gridpanel/temporal.py",
        "year = year_out if year_in in new_lines else year_in",
        "year = year_out if year_out not in ends else year_in",
        ["tests/test_temporal.py::test_change_rates_reject_edges_outside_the_span[1955-1960]"],
    ),
    # The stock counts every line ever commissioned.
    (
        "src/gridpanel/temporal.py",
        "accumulate(map(sub, new_lines.values(), decommissions.values()))",
        "accumulate(new_lines.values())",
        CHANGE_RATE_TESTS,
    ),
    # A record validation failure exits 2, as an I/O or parameter problem does.
    (
        "src/gridpanel/cli.py",
        'print(f"error: {exc}", file=sys.stderr)\n        return 1\n',
        'print(f"error: {exc}", file=sys.stderr)\n        return 2\n',
        ["tests/test_cli.py::test_analysis_commands_exit_one_on_a_validation_failure"],
    ),
    # filter_by_voltage takes any floor, so the sweep of a NaN floor is empty.
    (
        "src/gridpanel/records.py",
        '    check("voltage_floor_kv", voltage_floor_kv)\n    nodes = tuple(',
        "    nodes = tuple(",
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[voltage_floor_kv-nan]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[voltage_floor_kv--1]",
        ],
    ),
    # check takes a value of any type, so a library call runs on True for an int.
    (
        "src/gridpanel/config.py",
        "    kind, optional = _PARAMETER_TYPES[name]",
        "    return\n    kind, optional = _PARAMETER_TYPES[name]",
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[voltage_floor_kv-True]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[seed-1.5]",
        ],
    ),
    # The library takes any year bounds, so a float bound escapes as a bare TypeError.
    (
        "src/gridpanel/records.py",
        '    check("year_start", start)\n    check("year_end", end)\n',
        "",
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[year_start-2000.5]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[year_end-2002.0]",
        ],
    ),
    # snapshot_at takes any year, so a float year stamps its snapshot and an
    # out-of-span year gives an empty one.
    (
        "src/gridpanel/records.py",
        "    _year_range_within(records, year, year)\n",
        "",
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[year_start-2000.5]",
            "tests/test_records.py::test_snapshot_outside_span_rejected",
        ],
    ),
    # A bool passes as an average degree, so the lattice reference of True is 0.0.
    (
        "src/gridpanel/config.py",
        '"avg_degree": (lambda v: not isinstance(v, bool) and isfinite(v),',
        '"avg_degree": (isfinite,',
        ["tests/test_metrics.py::test_non_finite_average_degree_rejected[10-True]"],
    ),
    # A record set takes span bounds of any type, so a float start reaches range().
    (
        "src/gridpanel/records.py",
        '    check("year_start", dataset_start)\n    check("year_end", dataset_end)\n',
        "",
        [
            "tests/test_records.py::test_a_span_bound_of_another_type_is_rejected_in_the_words_of_run_config[dataset_start-year_start-1999.5]",
            "tests/test_records.py::test_a_span_bound_of_another_type_is_rejected_in_the_words_of_run_config[dataset_end-year_end-True]",
        ],
    ),
    # A nodes file of only a header loads as a record set without stations.
    (
        "src/gridpanel/records.py",
        "    if not nodes:\n",
        "    if False:\n",
        [
            "tests/test_records.py::test_a_nodes_file_of_only_a_header_is_a_parse_error_of_the_file",
            "tests/test_cli.py::test_validate_exits_two_on_a_nodes_file_of_only_a_header",
        ],
    ),
    # snapshot_at takes None for its year, and bisect compares it with a year.
    (
        "src/gridpanel/records.py",
        '    check("year", year)',
        "    pass",
        ["tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[year-None]"],
    ),
    # A star size of any type is taken, so True counts the one-leaf stars.
    (
        "src/gridpanel/motifs.py",
        '    check("leaves", leaves)\n',
        "",
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[leaves-True]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[leaves-2.0]",
        ],
    ),
    # gen_erdos_renyi seeds its generator with whatever it is given.
    (
        "src/gridpanel/generators.py",
        '    check("n_edges", n_edges)\n    check("seed", seed)\n',
        '    check("n_edges", n_edges)\n',
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[seed-1.5]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[seed-True]",
        ],
    ),
    # gen_watts_strogatz seeds its generator with whatever it is given.
    (
        "src/gridpanel/generators.py",
        '    check("rewiring_p", rewiring_p)\n    check("seed", seed)\n    rng',
        '    check("rewiring_p", rewiring_p)\n    rng',
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[seed-1.5]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[seed-True]",
        ],
    ),
    # gen_erdos_renyi takes sizes of any type, so a bool edge count builds a graph.
    (
        "src/gridpanel/generators.py",
        '    check("n_nodes", n_nodes)\n    check("n_edges", n_edges)\n    check("seed", seed)\n',
        '    check("seed", seed)\n',
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[n_nodes-10.0]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[n_edges-True]",
        ],
    ),
    # The ring-lattice families take a node count or coordination of any type.
    (
        "src/gridpanel/generators.py",
        '    check("n_nodes", n_nodes)\n    check("coordination", coordination)\n',
        "",
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[n_nodes-10.0]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[coordination-2.0]",
        ],
    ),
    # efficiency_comparison takes sizes of any type, so a float edge count is reported in its specs.
    (
        "src/gridpanel/generators.py",
        '    check("n_nodes", n_nodes)\n    check("n_edges", n_edges)\n    check("replicates", replicates)\n',
        '    check("replicates", replicates)\n',
        [
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[n_nodes-10.0]",
            "tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[n_edges-12.0]",
        ],
    ),
    # The random-graph and lattice references take a node count of any type.
    (
        "src/gridpanel/metrics.py",
        '    check("n_nodes", n_nodes)\n    check("avg_degree", avg_degree)\n    if n_nodes < 2:',
        '    check("avg_degree", avg_degree)\n    if n_nodes < 2:',
        ["tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[n_nodes-10.5]"],
    ),
    (
        "src/gridpanel/metrics.py",
        '    check("n_nodes", n_nodes)\n    check("avg_degree", avg_degree)\n    if n_nodes < 3:',
        '    check("avg_degree", avg_degree)\n    if n_nodes < 3:',
        ["tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[n_nodes-10.5]"],
    ),
    # motif_counts takes any value for chordless_only.
    (
        "src/gridpanel/motifs.py",
        '    check("chordless_only", chordless_only)\n    check("variant", variant)\n    year =',
        '    check("variant", variant)\n    year =',
        ["tests/test_config.py::test_the_library_rejects_a_value_in_the_words_of_run_config[chordless_only-no]"],
    ),
    # A failure with more than eight violations does not say how many it left out.
    (
        "src/gridpanel/errors.py",
        '        if extra > 0:\n            lines.append(f"... and {extra} more")\n',
        "",
        ["tests/test_records.py::test_a_validation_failure_lists_eight_violations_and_counts_the_rest"],
    ),
]

# A mutant can make the sweep loop forever; its run is stopped after this.
TIMEOUT_S = 300
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")


def _copy(into: Path) -> None:
    shutil.copytree(ROOT / "src", into / "src", ignore=IGNORED)
    shutil.copytree(ROOT / "tests", into / "tests", ignore=IGNORED)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(where: Path, ids: list[str]) -> str:
    # "tests passed", "tests failed", or why the tests reached neither.
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        done = subprocess.run(
            command, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return f"tests timed out after {TIMEOUT_S} s"
    return {0: "tests passed", 1: "tests failed"}.get(done.returncode, f"pytest exit {done.returncode}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        verdict = _pytest(Path(tmp), sorted({test for *_, tests in MUTANTS for test in tests}))
    if verdict != "tests passed":
        print(f"unmutated copy: {verdict}")
        return 1
    bad = 0
    for number, (file, old, new, tests) in enumerate(MUTANTS, start=1):
        with tempfile.TemporaryDirectory() as tmp:
            _copy(Path(tmp))
            target = Path(tmp) / file
            text = target.read_text(encoding="utf-8")
            if text.count(old) == 1:
                target.write_text(text.replace(old, new), encoding="utf-8")
                verdict = _pytest(Path(tmp), tests)
            else:
                verdict = f"old text occurs {text.count(old)} times"
        bad += verdict != "tests failed"
        print(f"mutant {number} ({file}: {old.strip()!r} -> {new.strip()!r}): {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

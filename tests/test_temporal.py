import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from helpers import make_edge, make_node
from gridpanel import (
    ParameterError,
    YearRangeError,
    annual_change_rates,
    average_lifetime_by_year,
    build_record_set,
    line_lifetimes,
    moving_average,
    underperformers,
)


def records_with(edges, *, start=1950, end=2020):
    nodes = [make_node("A", start), make_node("B", start), make_node("C", start)]
    return build_record_set(nodes, edges, dataset_start=start, dataset_end=end)


# -- lifetimes ---------------------------------------------------------------


def test_first_major_change_sets_lifetime():
    records = records_with(
        [make_edge("E", "A", "B", 1970, events=[(1995, "voltage_upgrade"), (2000, "split")])]
    )
    (rec,) = line_lifetimes(records)
    assert rec.lifetime_years == 25
    assert rec.first_change_year == 1995
    assert not rec.censored


def test_decommissioning_counts_as_change():
    records = records_with([make_edge("E", "A", "B", 1960, year_out=1980)])
    (rec,) = line_lifetimes(records)
    assert rec.lifetime_years == 20
    assert not rec.censored


def test_earliest_of_event_and_retirement_wins():
    records = records_with(
        [make_edge("E", "A", "B", 1960, year_out=1990, events=[(1975, "reroute")])]
    )
    (rec,) = line_lifetimes(records)
    assert rec.lifetime_years == 15


def test_unchanged_line_is_censored():
    records = records_with([make_edge("E", "A", "B", 1970)], end=2020)
    (rec,) = line_lifetimes(records)
    assert rec.censored
    assert rec.lifetime_years is None
    assert rec.first_change_year is None
    assert rec.max_expected_lifetime == 50
    assert rec.survived_ratio is None


def test_other_events_do_not_end_lifetime_by_default():
    records = records_with([make_edge("E", "A", "B", 1970, events=[(1980, "other")])])
    (rec,) = line_lifetimes(records)
    assert rec.censored


def test_change_kinds_are_configurable():
    records = records_with([make_edge("E", "A", "B", 1970, events=[(1980, "other")])])
    (rec,) = line_lifetimes(records, change_kinds=("other",))
    assert rec.lifetime_years == 10


@pytest.mark.parametrize("change_kinds", [("splitt",), "split", ("split", "Reroute")])
def test_unknown_change_kinds_rejected(change_kinds):
    # A typo, or a bare string read as its letters, would match no event
    # and leave every line censored.
    records = records_with([make_edge("E", "A", "B", 1970, events=[(1980, "split")])])
    with pytest.raises(ParameterError, match="split, reroute, voltage_upgrade, decommission, other"):
        line_lifetimes(records, change_kinds=change_kinds)


def test_survived_ratio():
    records = records_with(
        [make_edge("E", "A", "B", 1960, events=[(1970, "voltage_upgrade")])], end=2020
    )
    (rec,) = line_lifetimes(records)
    assert rec.max_expected_lifetime == 60
    assert rec.survived_ratio == pytest.approx(10 / 60, abs=1e-15)


def test_lifetimes_sorted_by_commissioning_year():
    records = records_with(
        [
            make_edge("E2", "A", "B", 1980, year_out=1990),
            make_edge("E1", "A", "C", 1960, year_out=1970),
            make_edge("E0", "B", "C", 1960, year_out=1985),
        ]
    )
    ids = [rec.edge_id for rec in line_lifetimes(records)]
    assert ids == ["E0", "E1", "E2"]


def test_average_lifetime_by_year_exact(planted_records):
    averages = average_lifetime_by_year(line_lifetimes(planted_records))
    assert set(averages) == set(range(1955, 1975)) | {1990}
    for year in range(1955, 1975):
        assert averages[year] == 25.0
    assert averages[1990] is None


def test_average_lifetime_includes_censored_as_bound(planted_records):
    averages = average_lifetime_by_year(
        line_lifetimes(planted_records), include_censored=True
    )
    assert averages[1990] == 20.0
    assert averages[1955] == 25.0


# -- underperformers ---------------------------------------------------------


def make_ratio_lifetimes():
    edges = []
    for i, change_after in enumerate((5, 12, 18, 30, 59)):
        edges.append(
            make_edge(f"R{i}", "A", "B", 1960, events=[(1960 + change_after, "split")])
        )
    return line_lifetimes(records_with(edges, end=2020))


def test_underperformers_strictly_below_threshold():
    lifetimes = make_ratio_lifetimes()
    flagged = underperformers(lifetimes, threshold=0.2)
    assert [rec.edge_id for rec in flagged] == ["R0"]
    # ratio 12/60 == 0.2 sits exactly on the threshold and stays out
    assert all(rec.edge_id != "R1" for rec in flagged)


def test_underperformer_sets_nest_by_threshold():
    lifetimes = make_ratio_lifetimes()
    sets = {
        t: {rec.edge_id for rec in underperformers(lifetimes, threshold=t)}
        for t in (0.1, 0.2, 0.3, 0.5)
    }
    assert sets[0.1] <= sets[0.2] <= sets[0.3] <= sets[0.5]
    assert sets[0.5] == {"R0", "R1", "R2"}


def test_underperformers_threshold_validated():
    lifetimes = make_ratio_lifetimes()
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            underperformers(lifetimes, threshold=bad)


def test_censored_lines_never_flagged():
    records = records_with([make_edge("E", "A", "B", 2015)], end=2020)
    assert underperformers(line_lifetimes(records), threshold=0.9) == []


# -- change rates ------------------------------------------------------------


def test_change_rate_hand_example():
    records = records_with(
        [
            make_edge("E1", "A", "B", 1960, year_out=1962),
            make_edge("E2", "A", "C", 1961),
        ],
        start=1959,
        end=1964,
    )
    series = annual_change_rates(records, window=3)
    assert series.years == tuple(range(1959, 1965))
    assert series.lines_in_operation == (0, 1, 2, 1, 1, 1)
    assert series.new_lines == (0, 1, 1, 0, 0, 0)
    assert series.decommissions == (0, 0, 0, 1, 0, 0)
    assert series.new_lines_relative[0] is None
    assert series.new_lines_relative[2] == 0.5


def test_conservation_of_line_counts(country_records):
    series = annual_change_rates(country_records)
    for i in range(1, len(series.years)):
        delta = series.lines_in_operation[i] - series.lines_in_operation[i - 1]
        assert delta == series.new_lines[i] - series.decommissions[i]


def test_topological_changes_count_each_event_once():
    records = records_with(
        [
            # retirement recorded both as year_out and as event: one change
            make_edge("E1", "A", "B", 1960, year_out=1965, events=[(1965, "decommission")]),
            # plain retirement: one change
            make_edge("E2", "A", "C", 1960, year_out=1966),
            # upgrade plus split: two changes
            make_edge("E3", "B", "C", 1960, events=[(1962, "voltage_upgrade"), (1963, "split")]),
        ],
        start=1960,
        end=1970,
    )
    series = annual_change_rates(records)
    by_year = dict(zip(series.years, series.topological_changes))
    assert by_year[1965] == 1
    assert by_year[1966] == 1
    assert by_year[1962] == 1
    assert by_year[1963] == 1
    assert sum(series.topological_changes) == 4


@pytest.mark.parametrize("start,end", [(1955, 1970), (1940, 1960)])
def test_change_rates_reject_edges_outside_the_span(start, end):
    # commissioned before the first year, or retired after the last
    nodes = [make_node("a", 1950, voltage=400), make_node("b", 1950, voltage=400)]
    edges = [make_edge("ab", "a", "b", 1950, year_out=1962, voltage=400)]
    records = build_record_set(nodes, edges, dataset_start=start, dataset_end=end)
    with pytest.raises(YearRangeError, match="outside the dataset span"):
        annual_change_rates(records)


def test_smoothed_series_present_and_aligned(country_records):
    series = annual_change_rates(country_records, window=5)
    assert len(series.new_lines_relative_smooth) == len(series.years)
    assert len(series.changes_relative_smooth) == len(series.years)


# -- moving average ----------------------------------------------------------


def test_moving_average_constant_series():
    assert moving_average([2.0] * 7, window=5) == [2.0] * 7


def test_moving_average_impulse_spreads():
    values = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    out = moving_average(values, window=5)
    assert out[4] == 0.2
    assert out[2] == 0.2
    assert out[6] == 0.2
    assert out[1] == 0.0


def test_moving_average_shrinks_at_boundaries():
    out = moving_average([1.0, 0.0, 0.0, 0.0, 0.0], window=5)
    assert out[0] == 1 / 3
    assert out[1] == 0.25
    assert out[2] == 0.2


def test_moving_average_skips_missing_values():
    out = moving_average([1.0, None, 1.0], window=3)
    assert out == [1.0, 1.0, 1.0]
    assert moving_average([None, None], window=3) == [None, None]


def test_moving_average_is_the_exact_mean_rounded_once():
    # A float sum rounds after every addition, and how it rounds depends
    # on the interpreter version; the exact mean of these three is 0.2.
    assert moving_average([0.1, 0.2, 0.3], window=3)[1] == 0.2


@given(
    st.lists(st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)), max_size=12),
    st.sampled_from([1, 3, 5, 7]),
)
def test_moving_average_equals_fraction_oracle(values, window):
    assert moving_average(values, window) == oracles.moving_average_by_fractions(values, window)


def test_moving_average_window_validated():
    for bad in (0, -1, 4, 2.5):
        with pytest.raises(ParameterError):
            moving_average([1.0, 2.0], window=bad)

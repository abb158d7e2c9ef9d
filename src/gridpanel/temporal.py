"""Line lifetimes, censoring and annual change rates.

A line's undisturbed lifetime runs from commissioning to its first major
change: the earliest recorded split, reroute or voltage upgrade, or the
decommissioning year, whichever comes first. Lines with none of those by
the end of the dataset are censored; they have no lifetime, only the
lower bound given by the observation window.
"""

from __future__ import annotations

from itertools import accumulate
from math import lcm
from operator import add, itemgetter, sub
from typing import Iterable, NamedTuple, Sequence

from .config import check
from .errors import ParameterError, YearRangeError
from .records import EVENT_KINDS, MAJOR_CHANGE_KINDS, AssetRecordSet


class LifetimeRecord(NamedTuple):
    """Observed or censored undisturbed lifetime of one line.

    The fields are in the order of the columns of ``lifetimes.csv``.
    """

    edge_id: str
    year_commissioned: int
    first_change_year: int | None
    lifetime_years: int | None
    censored: bool
    max_expected_lifetime: int
    survived_ratio: float | None


_by_commissioning = itemgetter(1, 0)  # year_commissioned, then edge_id


class ChangeRateSeries(NamedTuple):
    """Per-year activity counts over the dataset span.

    Relative rates are None in years with nothing in operation. The
    smoothed variants come from the same centered moving average the
    plots use.
    """

    years: tuple[int, ...]
    lines_in_operation: tuple[int, ...]
    new_lines: tuple[int, ...]
    decommissions: tuple[int, ...]
    topological_changes: tuple[int, ...]
    new_lines_relative: tuple[float | None, ...]
    changes_relative: tuple[float | None, ...]
    new_lines_relative_smooth: tuple[float | None, ...]
    changes_relative_smooth: tuple[float | None, ...]


def line_lifetimes(
    records: AssetRecordSet,
    *,
    change_kinds: Sequence[str] = MAJOR_CHANGE_KINDS,
) -> list[LifetimeRecord]:
    """Lifetime records for every edge, sorted by commissioning year.

    ``change_kinds`` widens or narrows which event kinds end a lifetime;
    decommissioning (via ``year_out``) always does. Each must be one of
    ``EVENT_KINDS``, so a typo or a bare string raises ``ParameterError``.
    """
    kinds = frozenset(change_kinds)
    unknown = kinds.difference(EVENT_KINDS)
    if unknown:
        raise ParameterError(
            f"change kinds must be among {', '.join(EVENT_KINDS)}; got {', '.join(sorted(map(repr, unknown)))}"
        )
    dataset_end = records.dataset_end
    new = tuple.__new__  # a LifetimeRecord without its constructor's argument handling
    out = []
    for edge_id, _, _, _, year_in, year_out, _, events in records.edges:
        first_change = year_out
        for year, kind in events:
            if kind in kinds and (first_change is None or year < first_change):
                first_change = year
        max_expected = dataset_end - year_in
        lifetime = None if first_change is None else first_change - year_in
        # True division of two ints is correctly rounded, as float(Fraction) is.
        ratio = lifetime / max_expected if lifetime is not None and max_expected > 0 else None
        out.append(
            new(LifetimeRecord, (edge_id, year_in, first_change, lifetime, first_change is None, max_expected, ratio))
        )
    out.sort(key=_by_commissioning)
    return out


def average_lifetime_by_year(
    lifetimes: Sequence[LifetimeRecord],
    *,
    include_censored: bool = False,
) -> dict[int, float | None]:
    """Mean lifetime grouped by commissioning year.

    Censored lines are left out by default; with ``include_censored``
    they contribute their maximum expected lifetime, making the mean a
    lower bound. Years whose lines are all excluded map to None.
    """
    groups: dict[int, list[int]] = {}
    for rec in lifetimes:
        values = groups.setdefault(rec.year_commissioned, [])
        if rec.censored:
            if include_censored:
                values.append(rec.max_expected_lifetime)
        elif rec.lifetime_years is not None:
            values.append(rec.lifetime_years)
    return {
        year: sum(values) / len(values) if values else None
        for year, values in sorted(groups.items())
    }


def moving_average(values: Sequence[float | None], window: int = 5) -> list[float | None]:
    """Centered moving average with an odd window.

    The window shrinks at the series boundaries. None entries are
    skipped and the divisor renormalized; a stretch that is all None
    stays None. With the values scaled to integers over one common
    denominator, each mean is one exact integer ratio, rounded once, so
    it does not depend on how the interpreter sums floats.
    """
    check("window", window)
    half = window // 2
    ratios = [None if value is None else value.as_integer_ratio() for value in values]
    common = lcm(*(ratio[1] for ratio in ratios if ratio is not None))
    scaled = [None if ratio is None else ratio[0] * (common // ratio[1]) for ratio in ratios]
    out: list[float | None] = []
    for i in range(len(values)):
        picked = [x for x in scaled[max(0, i - half) : i + half + 1] if x is not None]
        out.append(sum(picked) / (common * len(picked)) if picked else None)
    return out


def annual_change_rates(records: AssetRecordSet, *, window: int = 5) -> ChangeRateSeries:
    """Commissioning, decommissioning and change activity per year.

    Topological changes are all dated events plus decommissionings;
    decommission events count once a year, and not in ``year_out``,
    where the decommission itself counts. Counts respect the stock
    balance: lines in operation change from one year to the next by new
    lines minus decommissions.
    Edges commissioned or retired outside the dataset span raise
    :class:`YearRangeError`; events outside it are ignored.
    """
    # Counts keyed by the span's years, so a year outside it has no key.
    start, end = records.dataset_start, records.dataset_end
    years = range(start, end + 1)
    new_lines = dict.fromkeys(years, 0)
    decommissions = dict.fromkeys(years, 0)
    events = dict.fromkeys(years, 0)
    ends = {None, *years}  # a line still in service has no year_out

    for edge_id, _, _, _, year_in, year_out, _, dated in records.edges:
        if year_in not in new_lines or year_out not in ends:
            year = year_out if year_in in new_lines else year_in
            raise YearRangeError(f"edge {edge_id} has year {year} outside the dataset span {start}-{end}")
        new_lines[year_in] += 1
        if year_out is not None:
            decommissions[year_out] += 1
        if dated:
            counted = {year_out}  # the years whose decommission has counted
            for year, kind in dated:
                if kind == "decommission":
                    if year in counted:
                        continue
                    counted.add(year)
                if year in events:
                    events[year] += 1

    in_operation = tuple(accumulate(map(sub, new_lines.values(), decommissions.values())))
    changes = tuple(map(add, events.values(), decommissions.values()))

    def relative(counts: Iterable[int]) -> list[float | None]:
        return [
            count / stock if stock > 0 else None
            for count, stock in zip(counts, in_operation)
        ]

    new_rel = relative(new_lines.values())
    changes_rel = relative(changes)
    return ChangeRateSeries(
        years=tuple(years),
        lines_in_operation=in_operation,
        new_lines=tuple(new_lines.values()),
        decommissions=tuple(decommissions.values()),
        topological_changes=changes,
        new_lines_relative=tuple(new_rel),
        changes_relative=tuple(changes_rel),
        new_lines_relative_smooth=tuple(moving_average(new_rel, window)),
        changes_relative_smooth=tuple(moving_average(changes_rel, window)),
    )


def underperformers(
    lifetimes: Sequence[LifetimeRecord],
    threshold: float = 0.2,
) -> list[LifetimeRecord]:
    """Non-censored lines whose survived ratio falls below ``threshold``.

    The ratio compares observed lifetime to the maximum observable one
    for the commissioning year; the comparison is strict, so a line
    sitting exactly at the threshold is not flagged. Sorted by
    commissioning year.
    """
    check("threshold", threshold)
    flagged = [
        rec
        for rec in lifetimes
        if not rec.censored and rec.survived_ratio is not None and rec.survived_ratio < threshold
    ]
    flagged.sort(key=_by_commissioning)
    return flagged

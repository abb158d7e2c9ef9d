"""Line lifetimes, censoring and annual change rates.

A line's undisturbed lifetime runs from commissioning to its first major
change: the earliest recorded split, reroute or voltage upgrade, or the
decommissioning year, whichever comes first. Lines with none of those by
the end of the dataset are censored; they have no lifetime, only the
lower bound given by the observation window.
"""

from __future__ import annotations

from math import lcm
from operator import attrgetter
from typing import NamedTuple, Sequence

from .config import check_threshold
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


_by_commissioning = attrgetter("year_commissioned", "edge_id")


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
    out = []
    for rec in records.edges:
        candidates = [ev.year for ev in rec.events if ev.kind in kinds]
        if rec.year_out is not None:
            candidates.append(rec.year_out)
        first_change = min(candidates) if candidates else None
        max_expected = records.dataset_end - rec.year_in
        lifetime = None if first_change is None else first_change - rec.year_in
        ratio = None
        if lifetime is not None and max_expected > 0:
            # True division of two ints is correctly rounded, as float(Fraction) is.
            ratio = lifetime / max_expected
        out.append(
            LifetimeRecord(rec.edge_id, rec.year_in, first_change, lifetime, first_change is None, max_expected, ratio)
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
    if not isinstance(window, int) or window < 1:
        raise ParameterError(f"window must be a positive integer, got {window!r}")
    if window % 2 == 0:
        raise ParameterError(f"window must be odd so the average stays centered, got {window}")
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

    Topological changes are all dated events plus decommissionings; a
    decommission recorded both as an event and as ``year_out`` counts
    once. Counts respect the stock balance: lines in operation change
    from one year to the next by new lines minus decommissions.
    Edges commissioned or retired outside the dataset span raise
    :class:`YearRangeError`; events outside it are ignored.
    """
    start, end = records.dataset_start, records.dataset_end
    n_years = end - start + 1
    alive_delta = [0] * (n_years + 1)
    new_lines = [0] * n_years
    decommissions = [0] * n_years
    changes = [0] * n_years

    for rec in records.edges:
        for year in (rec.year_in, rec.year_out):
            if year is not None and not start <= year <= end:
                raise YearRangeError(
                    f"edge {rec.edge_id} has year {year} outside the dataset span {start}-{end}"
                )
        first = rec.year_in - start
        new_lines[first] += 1
        alive_delta[first] += 1
        if rec.year_out is not None:
            last = rec.year_out - start
            alive_delta[last] -= 1
            decommissions[last] += 1
            changes[last] += 1
        decom_years = set()
        for ev in rec.events:
            if ev.kind == "decommission":
                # already counted through year_out when the two agree
                if ev.year != rec.year_out and 0 <= ev.year - start < n_years:
                    decom_years.add(ev.year)
                continue
            if 0 <= ev.year - start < n_years:
                changes[ev.year - start] += 1
        for year in decom_years:
            changes[year - start] += 1

    in_operation = []
    running = 0
    for i in range(n_years):
        running += alive_delta[i]
        in_operation.append(running)

    def relative(counts: list[int]) -> list[float | None]:
        return [
            count / stock if stock > 0 else None
            for count, stock in zip(counts, in_operation)
        ]

    new_rel = relative(new_lines)
    changes_rel = relative(changes)
    return ChangeRateSeries(
        years=tuple(range(start, end + 1)),
        lines_in_operation=tuple(in_operation),
        new_lines=tuple(new_lines),
        decommissions=tuple(decommissions),
        topological_changes=tuple(changes),
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
    check_threshold(threshold)
    flagged = [
        rec
        for rec in lifetimes
        if not rec.censored and rec.survived_ratio is not None and rec.survived_ratio < threshold
    ]
    flagged.sort(key=_by_commissioning)
    return flagged

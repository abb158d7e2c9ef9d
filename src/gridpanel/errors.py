"""Exception types shared across the toolkit."""

from __future__ import annotations


class GridPanelError(Exception):
    """Base class for all toolkit errors."""


class ParseError(GridPanelError):
    """A file could not be read into records (bad header, malformed row).

    ``str(exc)`` is ``source:line: message``, or ``source: message`` when
    ``line`` is None; all three are kept as attributes.
    """

    def __init__(self, source: str, line: int | None, message: str) -> None:
        self.source = source
        self.line = line
        self.message = message
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # the default rebuilds from args, which hold the formatted text alone
        return type(self), (self.source, self.line, self.message)


class ValidationFailedError(GridPanelError):
    """A record set violates its integrity rules; carries the full report."""

    def __init__(self, report) -> None:
        self.report = report
        lines = [str(v) for v in report.violations[:8]]
        extra = len(report.violations) - len(lines)
        if extra > 0:
            lines.append(f"... and {extra} more")
        super().__init__("record validation failed:\n" + "\n".join(lines))

    def __reduce__(self):
        # the default rebuilds from args, which hold the formatted text alone
        return type(self), (self.report,)


class ReferentialError(ValidationFailedError):
    """An edge or event points at an identifier that does not resolve."""


class IntervalError(ValidationFailedError):
    """A life interval or event date is inconsistent."""


class YearRangeError(GridPanelError):
    """A requested year falls outside the dataset span."""


class MetricUndefinedError(GridPanelError):
    """The requested quantity has no value on this input.

    ``reason`` is the short code that ``panel_tidy.csv`` writes in its
    ``defined_reason`` column for every metric the raising kernel feeds;
    ``str(exc)`` is the message alone.
    """

    def __init__(self, message: str, reason: str) -> None:
        self.reason = reason
        super().__init__(message)

    def __reduce__(self):
        # the default rebuilds from args, which hold the message alone
        return type(self), (str(self), self.reason)


class ParameterError(GridPanelError):
    """A parameter is out of its documented domain."""

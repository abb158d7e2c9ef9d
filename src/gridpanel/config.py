"""Run configuration: a flat key-value file plus flag overrides.

The file format is one ``key = value`` pair per line; blank lines and
``#`` comments are ignored. Keys are exactly the RunConfig fields and
nothing else, so a dumped config (or a run manifest, which is a config
with comment headers) parses back to an identical RunConfig.
"""

from __future__ import annotations

from math import isfinite
from typing import Any, NamedTuple

from .errors import ParameterError
from .records import _ascii_number

# The choices of the ``variant`` key; gridpanel.motifs counts stars by them.
STAR_VARIANTS = ("subgraph", "induced")


def check_variant(variant: str) -> None:
    if variant not in STAR_VARIANTS:
        raise ParameterError(f"variant must be one of {', '.join(STAR_VARIANTS)}, got {variant!r}")


def check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must lie strictly between 0 and 1, got {threshold!r}")


class _RunConfigFields(NamedTuple):
    node_file: str | None = None
    edge_file: str | None = None
    event_file: str | None = None
    country_tag: str = ""
    voltage_floor_kv: int = 220
    year_start: int | None = None
    year_end: int | None = None
    gamma: float = 1.0
    seed: int = 42
    chordless_only: bool = True
    variant: str = "subgraph"
    window: int = 5
    threshold: float = 0.2
    replicates: int = 50
    rewiring_p: float = 0.1
    per_year: bool = False
    out_dir: str = "out"


class RunConfig(_RunConfigFields):
    """Everything a command needs to run reproducibly.

    An immutable named tuple. Every way to build one checks its values:
    the constructor, ``_make`` and ``_replace``, and so
    :func:`apply_overrides` too.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        # A config file holds one value per line and strips it, so only
        # such text reads back from a manifest as it was given.
        for name, value in zip(self._fields, self):
            if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
                raise ParameterError(
                    f"{name} must not start or end with whitespace or hold a line break, got {value!r}"
                )
        # Checked for every command, not only where Louvain runs, so a
        # manifest never records a gamma no run could use.
        if not isfinite(self.gamma):
            raise ParameterError(f"gamma must be a finite number, got {self.gamma!r}")
        if self.voltage_floor_kv < 0:
            raise ParameterError(f"voltage_floor_kv must not be negative, got {self.voltage_floor_kv}")
        if self.replicates < 1:
            raise ParameterError(f"replicates must be at least 1, got {self.replicates}")
        # The range checks are chained comparisons, so NaN, which compares
        # false with everything, fails them.
        if not 0.0 <= self.rewiring_p <= 1.0:
            raise ParameterError(f"rewiring_p must lie in [0, 1], got {self.rewiring_p!r}")
        if not isinstance(self.window, int) or self.window < 1 or self.window % 2 == 0:
            raise ParameterError(f"window must be a positive odd integer, got {self.window!r}")
        check_threshold(self.threshold)
        check_variant(self.variant)
        return self

    @classmethod
    def _make(cls, iterable: Any) -> RunConfig:
        # The inherited _make, which _replace calls, skips __new__.
        return cls(*iterable)


CONFIG_KEYS = RunConfig._fields


def _parse_value(key: str, raw: str, source: str, line: int) -> Any:
    # The annotation's text; typing may wrap it in a ForwardRef.
    kind = _RunConfigFields.__annotations__[key]
    kind = getattr(kind, "__forward_arg__", kind)
    if raw == "" and "None" in kind:
        return None
    try:
        if kind.startswith("int"):
            return _ascii_number(int, raw)
        if kind.startswith("float"):
            return _ascii_number(float, raw)
        if kind.startswith("bool"):
            if raw not in ("true", "false"):
                raise ValueError
            return raw == "true"
    except ValueError:
        raise ParameterError(f"{source}:{line}: bad value for {key}: {raw!r}") from None
    return raw


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text; unknown or repeated keys are errors."""
    seen: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ParameterError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ParameterError(f"{source}:{lineno}: config key {key!r} given twice")
        seen[key] = _parse_value(key, raw, source, lineno)
    try:
        return RunConfig(**seen)
    except ParameterError as exc:
        raise ParameterError(f"{source}: {exc}") from None


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # one read decodes the whole file, so exc.start is a file offset
        raise ParameterError(f"cannot read config {path}: not UTF-8 text at byte offset {exc.start}") from None
    return parse_config_text(text, source=path)


def _format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(config: RunConfig, header_lines: tuple[str, ...] = ()) -> str:
    """Render a config (optionally with comment headers) so that parsing
    the result returns an equal RunConfig."""
    lines = [f"# {line}" for line in header_lines]
    lines.extend(f"{key} = {_format_value(getattr(config, key))}" for key in CONFIG_KEYS)
    return "\n".join(lines) + "\n"


def apply_overrides(config: RunConfig, **overrides: Any) -> RunConfig:
    """Non-None overrides replace config values; unknown names are bugs."""
    changes = {key: value for key, value in overrides.items() if value is not None}
    for key in changes:
        if key not in CONFIG_KEYS:
            raise ParameterError(f"unknown config field {key!r}")
    return config._replace(**changes)

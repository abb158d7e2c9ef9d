"""Run configuration: a flat key-value file plus flag overrides.

The file format is one ``key = value`` pair per line; blank lines and
``#`` comments are ignored. Keys are exactly the RunConfig fields and
nothing else, so a dumped config (or a run manifest, which is a config
with comment headers) parses back to an identical RunConfig.
"""

from __future__ import annotations

from math import isfinite
from typing import Any, Callable, NamedTuple

from .errors import ParameterError

# The choices of the ``variant`` key; gridpanel.motifs counts stars by them.
STAR_VARIANTS = ("subgraph", "induced")

# Each run parameter's domain, a test and the words for what it asks,
# read by RunConfig and by every library call that takes the parameter.
# The range tests are chained comparisons, so NaN, which compares false
# with everything, fails them.
_DOMAINS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "gamma": (isfinite, "must be a finite number"),
    "avg_degree": (lambda v: not isinstance(v, bool) and isfinite(v), "must be a finite number"),
    "voltage_floor_kv": (lambda v: v >= 0, "must not be negative"),
    "replicates": (lambda v: v >= 1, "must be at least 1"),
    "rewiring_p": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
    "window": (lambda v: isinstance(v, int) and v >= 1 and v % 2 == 1, "must be a positive odd integer"),
    "threshold": (lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1"),
    "variant": (lambda v: v in STAR_VARIANTS, f"must be one of {', '.join(STAR_VARIANTS)}"),
}


def check(name: str, value: Any) -> None:
    """Raise ``ParameterError`` unless ``value`` is a value of parameter ``name``.

    The parameter's whole rule: its domain where it has one, then its
    type where it has one, and for a RunConfig field the text a manifest
    can carry.
    """
    if name in _DOMAINS:
        test, rule = _DOMAINS[name]
        try:
            inside = test(value)
        except TypeError:  # a value the test cannot compare, such as text for a number
            inside = False
        if not inside:
            raise ParameterError(f"{name} {rule}, got {value!r}")
        if name not in _PARAMETER_TYPES:
            return
    kind, optional = _PARAMETER_TYPES[name]  # a KeyError for a name that is no parameter
    # dump_config writes a value of another type, such as True for an
    # int, as text that reads back as another value or not at all.
    typed = isinstance(value, _TYPES[kind]) and isinstance(value, bool) == (kind == "bool")
    if not (typed or value is None and optional):
        raise ParameterError(f"{name} must be of type {kind}{' | None' if optional else ''}, got {value!r}")
    # A config file holds one value per line and strips it, so only such
    # text reads back from a manifest as it was given.
    if isinstance(value, str) and (value != value.strip() or len(value.splitlines()) > 1):
        raise ParameterError(f"{name} must not start or end with whitespace or hold a line break, got {value!r}")


def _ascii_number(kind: Callable[[str], Any], text: str) -> Any:
    # int(text) or float(text) over ASCII text without underscores, which
    # int() and float() alone would take, or a ValueError: the one number
    # grammar of record fields, config values and flags. nan and inf parse.
    if text.isascii() and "_" not in text:
        return kind(text)
    raise ValueError(f"not an ASCII {kind.__name__}: {text!r}")


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
    the constructor, ``_make`` and ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> RunConfig:
        self = super().__new__(cls, *args, **kwargs)
        # Every field is checked for every command, gamma too where no
        # Louvain runs, so a manifest never records a value no run could use.
        for name, value in zip(self._fields, self):
            check(name, value)
        return self

    @classmethod
    def _make(cls, iterable: Any) -> RunConfig:
        # The inherited _make, which _replace calls, skips __new__.
        return cls(*iterable)


CONFIG_KEYS = RunConfig._fields


def _field_type(annotation: Any) -> tuple[str, bool]:
    # An annotation as its type's name and whether it may be None,
    # ("int", True) for "int | None"; typing may wrap the text in a ForwardRef.
    kind, _, rest = getattr(annotation, "__forward_arg__", annotation).partition(" | ")
    return kind, rest == "None"


# Each parameter's type, for check and _parse_value: a field's, read from
# its annotation once, and int for the sizes and the snapshot year that
# only library calls take.
_PARAMETER_TYPES = {name: _field_type(kind) for name, kind in _RunConfigFields.__annotations__.items()}
_PARAMETER_TYPES.update(dict.fromkeys(("year", "leaves", "n_nodes", "n_edges", "coordination"), ("int", False)))

# The values each annotation's type name takes; a bool, although an int,
# stands for neither an int nor a float.
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _parse_value(key: str, raw: str, source: str, line: int) -> Any:
    kind, optional = _PARAMETER_TYPES[key]
    if raw == "" and optional:
        return None
    try:
        if kind == "int":
            return _ascii_number(int, raw)
        if kind == "float":
            return _ascii_number(float, raw)
        if kind == "bool":
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


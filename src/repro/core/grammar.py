"""One ``key=value`` grammar for the noise, RPC and sanitizer specs,
fault clauses and what-if queries (docs/architecture.md, "Spec
grammars"): a spec's keys are a table of :class:`Key` rows, read by
:func:`parse_pairs`, written back by :func:`describe` and enforced on
direct construction by :func:`check`."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Type, Union


@dataclass(frozen=True)
class Range:
    """``low`` to ``high``; ``brackets`` says which ends are closed."""

    low: float
    high: float = math.inf
    brackets: str = "[]"

    def __contains__(self, value: float) -> bool:
        above = value > self.low if self.brackets[0] == "(" else value >= self.low
        below = value < self.high if self.brackets[1] == ")" else value <= self.high
        return above and below

    def __str__(self) -> str:
        return f"in {self.brackets[0]}{self.low:g}, {self.high:g}{self.brackets[1]}"


PROBABILITY = Range(0.0, 1.0)
NON_NEGATIVE = Range(0.0)
POSITIVE_COUNT = Range(1)


@dataclass(frozen=True)
class Key:
    """One table row: a key, how its text parses, its range and the
    dataclass ``field`` it fills (default: the key's name).

    ``tail`` is a second field the key fills after an ``x``
    (``burst=0.02x5``). ``always`` makes :func:`describe` print the key
    even at its default value.
    """

    name: str
    parse: Callable[[str], Any] = float
    limits: Optional[Range] = None
    field: str = ""
    aliases: Tuple[str, ...] = ()
    always: bool = False
    tail: Optional["Key"] = None

    def __post_init__(self) -> None:
        if not self.field:
            object.__setattr__(self, "field", self.name)

    def problem(self, value: Any) -> Optional[str]:
        if isinstance(value, float) and not math.isfinite(value):
            return f"{self.field} must be finite, got {value}"
        if self.limits is not None and value not in self.limits:
            return f"{self.field} must be {self.limits}, got {value}"
        return None


Table = Sequence[Key]


def check(spec: Any, table: Table, error: Type[ValueError]) -> None:
    """Raise ``error`` unless every field ``table`` fills is in range."""
    for key in table:
        for row in (key, key.tail):
            problem = row and row.problem(getattr(spec, row.field))
            if problem:
                raise error(problem)


def split_pairs(text: str, error: Type[ValueError]) -> Dict[str, str]:
    """``"a=1, b=2"`` -> ``{"a": "1", "b": "2"}``; blank pairs skipped."""
    pairs: Dict[str, str] = {}
    for part in filter(str.strip, text.split(",")):
        key, eq, value = part.partition("=")
        key = key.strip().lower()
        if not eq or not key:
            raise error(f"bad parameter {part.strip()!r} (expected key=value)")
        if key in pairs:
            raise error(f"key {key!r} given twice")
        pairs[key] = value.strip()
    return pairs


def parse_pairs(
    text: Union[str, Dict[str, str]], table: Table, error: Type[ValueError]
) -> Dict[str, Any]:
    """Parse ``key=value,...`` (or pairs already split) against ``table``
    into ``{field: value}``."""
    by_name = {name: key for key in table for name in (key.name,) + key.aliases}
    pairs = split_pairs(text, error) if isinstance(text, str) else text
    values: Dict[str, Any] = {}
    for name, text_value in pairs.items():
        key = by_name.get(name)
        if key is None:
            accepted = ", ".join(by_name) or "none"
            raise error(f"unknown key {name!r} (accepted: {accepted})")
        if key.field in values:
            raise error(f"key {key.name!r} given twice")
        parts = [(key, text_value)]
        if key.tail is not None:
            head, sep, rest = text_value.partition("x")
            parts = [(key, head)] + ([(key.tail, rest)] if sep else [])
        for row, part in parts:
            try:
                value = row.parse(part)
            except ValueError:
                raise error(f"bad value {text_value!r} for key {name!r}") from None
            problem = row.problem(value)
            if problem:
                raise error(problem)
            values[row.field] = value
    return values


def format_value(value: Any) -> str:
    """A float prints as ``:g`` when that reads back equal, else ``repr``."""
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    if isinstance(value, frozenset):
        return "+".join(sorted(value))
    return str(value)


def describe(spec: Any, table: Table) -> str:
    """``key=value,...`` for the keys off their default (and the
    ``always`` ones), in table order; :func:`parse_pairs` reads it back."""
    defaults = {f.name: f.default for f in fields(spec)}
    parts = []
    for key in table:
        rows = (key,) if key.tail is None else (key, key.tail)
        values = [getattr(spec, row.field) for row in rows]
        if key.always or any(v != defaults[r.field] for r, v in zip(rows, values)):
            parts.append(f"{key.name}={'x'.join(map(format_value, values))}")
    return ",".join(parts)


def parse_spec(cls: type, spec: Any, table: Table, error: Type[ValueError], seed=None):
    """A ``cls`` from an instance or its text (``off``, ``""`` and
    ``None`` give the defaults); ``seed``, when given, replaces the seed."""
    if isinstance(spec, cls):
        return spec if seed is None else replace(spec, seed=seed)
    text = (spec or "").strip()
    values = {} if text == "off" else parse_pairs(text, table, error)
    if seed is not None:
        values["seed"] = seed
    return cls(**values)


def split_clause(
    text: str, error: Type[ValueError]
) -> Tuple[str, Optional[str], str, Optional[str], str]:
    """Split ``kind[:arg]@time[+duration][,key=value...]`` into
    ``(kind, arg, time_text, duration_text, pairs_text)``; ``arg`` and
    ``duration_text`` are ``None`` when absent. Callers convert times."""
    head, at, tail = text.partition("@")
    if not at:
        raise error(f"{text.strip()!r} is missing '@time'")
    kind, colon, arg = head.partition(":")
    when, _, pairs = tail.partition(",")
    time_text, plus, duration_text = when.partition("+")
    arg_text = arg.strip() if colon else None
    duration = duration_text.strip() if plus else None
    return kind.strip(), arg_text, time_text.strip(), duration, pairs

"""Sanitizer configuration and ``REPRO_CHECK`` spec parsing.

A spec string selects a mode and optional knobs::

    strict                  raise on the first violation
    collect                 record violations, never raise
    off                     disable (the default when REPRO_CHECK is unset)
    strict:twin=1.0         strict mode, twin oracle on every invocation
    collect:twin=0,max=50   no twin sampling, keep at most 50 violations

Recognized options: ``twin`` (sampling fraction of scheduler invocations
shadow-executed by the differential twin oracle), ``twin_tol`` (relative
rate tolerance for twin agreement; 0 demands bit-equality), ``seed``
(the deterministic sampling stream), ``max`` (collected-violation cap),
and ``invariants`` (``+``-separated allow-list of invariant names).
The options follow the shared rules of :mod:`repro.core.grammar`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

from ..core import grammar
from ..core.grammar import NON_NEGATIVE, POSITIVE_COUNT, PROBABILITY, Key

MODE_OFF = "off"
MODE_COLLECT = "collect"
MODE_STRICT = "strict"
MODES: Tuple[str, ...] = (MODE_OFF, MODE_COLLECT, MODE_STRICT)

#: Spellings accepted for the bare on/off forms of REPRO_CHECK.
_MODE_ALIASES = {
    "": MODE_OFF,
    "0": MODE_OFF,
    "false": MODE_OFF,
    "no": MODE_OFF,
    "off": MODE_OFF,
    "1": MODE_STRICT,
    "true": MODE_STRICT,
    "yes": MODE_STRICT,
    "on": MODE_STRICT,
    "strict": MODE_STRICT,
    "collect": MODE_COLLECT,
}


@dataclass(frozen=True)
class CheckConfig:
    """Everything the sanitizer needs to know about how hard to check."""

    mode: str = MODE_STRICT
    #: Fraction of scheduler invocations shadow-executed by the twin
    #: oracle (0 disables it, 1 checks every invocation).
    twin_sample: float = 0.05
    #: Relative rate tolerance for twin agreement; 0 = bit-equality,
    #: matching the offline equivalence tests.
    twin_tolerance: float = 0.0
    #: Slack for the from-scratch link-capacity feasibility check; the
    #: same tolerance the network's own set_rates gate applies.
    capacity_tolerance: float = 1e-6
    #: Relative (per link capacity) slack for residual-accounting drift.
    accounting_tolerance: float = 1e-6
    #: Relative slack for global byte conservation at run end.
    conservation_tolerance: float = 1e-6
    #: Relative (per link capacity) headroom a work-conserving scheduler
    #: is allowed to leave on every link of an unfinished flow's path.
    work_conservation_tolerance: float = 1e-6
    #: Seed of the deterministic twin-sampling stream (per engine).
    seed: int = 0
    #: Collected-violation retention cap (counts stay exact past it).
    max_violations: int = 200
    #: When non-empty, only these invariant names are checked.
    invariants: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        grammar.check(self, CHECK_KEYS, ValueError)

    @property
    def enabled(self) -> bool:
        return self.mode != MODE_OFF

    @property
    def strict(self) -> bool:
        return self.mode == MODE_STRICT

    def wants(self, invariant: str) -> bool:
        """Is this invariant in scope? (Empty allow-list = everything.)"""
        return not self.invariants or invariant in self.invariants

    def describe(self) -> str:
        """The spec string :func:`parse_spec` reads back as this config."""
        options = grammar.describe(self, CHECK_KEYS)
        return f"{self.mode}:{options}" if options else self.mode


#: The option tail after ``mode:``; the tolerances other than
#: ``twin_tol`` are not settable from a spec.
CHECK_KEYS = (
    Key("twin", limits=PROBABILITY, field="twin_sample"),
    Key("twin_tol", limits=NON_NEGATIVE, field="twin_tolerance",
        aliases=("twin_tolerance",)),
    Key("seed", int),
    Key("max", int, POSITIVE_COUNT, field="max_violations",
        aliases=("max_violations",)),
    # A "+"-separated allow-list: invariants=capacity+twin.
    Key("invariants", lambda text: frozenset(filter(None, text.split("+")))),
)


def parse_spec(spec: Union[str, CheckConfig, None]) -> Optional[CheckConfig]:
    """Parse a ``REPRO_CHECK`` / ``--check`` spec into a config.

    Returns ``None`` for the off spellings (empty string, ``0``, ``off``,
    ...), so callers can treat "no config" and "explicitly off" alike.
    """
    if spec is None:
        return None
    if isinstance(spec, CheckConfig):
        return spec if spec.enabled else None
    text = spec.strip()
    head, _, options = text.partition(":")
    mode = _MODE_ALIASES.get(head.strip().lower())
    if mode is None:
        raise ValueError(
            f"unknown check mode {head!r}; expected one of "
            f"{sorted(set(_MODE_ALIASES.values()))}"
        )
    if mode == MODE_OFF:
        return None
    overrides = grammar.parse_pairs(options, CHECK_KEYS, ValueError)
    return CheckConfig(mode=mode, **overrides)

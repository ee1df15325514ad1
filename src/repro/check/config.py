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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple, Union

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
        if not 0.0 <= self.twin_sample <= 1.0:
            raise ValueError(
                f"twin_sample must be in [0, 1], got {self.twin_sample}"
            )
        if self.twin_tolerance < 0:
            raise ValueError(
                f"twin_tolerance must be >= 0, got {self.twin_tolerance}"
            )
        if self.max_violations < 1:
            raise ValueError(
                f"max_violations must be positive, got {self.max_violations}"
            )

    @property
    def enabled(self) -> bool:
        return self.mode != MODE_OFF

    @property
    def strict(self) -> bool:
        return self.mode == MODE_STRICT

    def wants(self, invariant: str) -> bool:
        """Is this invariant in scope? (Empty allow-list = everything.)"""
        return not self.invariants or invariant in self.invariants


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
    overrides = {}
    if options.strip():
        for item in options.split(","):
            key, sep, value = item.partition("=")
            key = key.strip().lower()
            if not sep:
                raise ValueError(f"malformed check option {item!r} (need key=value)")
            value = value.strip()
            if key == "twin":
                overrides["twin_sample"] = float(value)
            elif key in ("twin_tol", "twin_tolerance"):
                overrides["twin_tolerance"] = float(value)
            elif key == "seed":
                overrides["seed"] = int(value)
            elif key in ("max", "max_violations"):
                overrides["max_violations"] = int(value)
            elif key == "invariants":
                overrides["invariants"] = frozenset(
                    name for name in value.split("+") if name
                )
            else:
                known = "twin, twin_tol, seed, max, invariants"
                raise ValueError(
                    f"unknown check option {key!r}; recognized: {known}"
                )
    return CheckConfig(mode=mode, **overrides)

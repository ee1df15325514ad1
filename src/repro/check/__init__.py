"""`repro.check`: the runtime sanitizer and differential twin oracle.

Three ways to turn it on:

* **Programmatic** -- pass ``sanitizer=Sanitizer(CheckConfig(...))`` (or a
  spec string) to :class:`~repro.simulator.engine.Engine`.
* **Environment** -- set ``REPRO_CHECK=strict`` (or ``collect``, with
  options like ``strict:twin=1.0``); every engine constructed without an
  explicit ``sanitizer`` argument picks it up.
* **CLI / pytest** -- ``python -m repro <cmd> --check[=MODE]`` or
  ``pytest --repro-check=MODE`` route through :func:`configure`.

When ``REPRO_CHECK_REPORT`` names a path, an aggregated violation report
across every sanitized engine in the process is written there at exit
(CI uploads it as an artifact on failure).
"""

from __future__ import annotations

import atexit
import json
import os
from typing import Dict, Optional, Union

from .config import (
    MODE_COLLECT,
    MODE_OFF,
    MODE_STRICT,
    CheckConfig,
    parse_spec,
)
from .invariants import (
    INVARIANTS,
    infeasible_links,
    invariant_names,
    scan_earliest_finish,
    scan_finishing,
    unserved_flows,
)
from .sanitizer import Sanitizer
from .twin import TwinOracle
from .violations import CheckViolation, Violation, ViolationLog

__all__ = [
    "CheckConfig",
    "CheckViolation",
    "INVARIANTS",
    "MODE_COLLECT",
    "MODE_OFF",
    "MODE_STRICT",
    "Sanitizer",
    "TwinOracle",
    "Violation",
    "ViolationLog",
    "configure",
    "clear_configuration",
    "default_config",
    "default_sanitizer",
    "global_stats",
    "infeasible_links",
    "invariant_names",
    "make_sanitizer",
    "parse_spec",
    "reset_global_stats",
    "scan_earliest_finish",
    "scan_finishing",
    "unserved_flows",
    "write_global_report",
]

#: Environment variables consulted lazily.
ENV_VAR = "REPRO_CHECK"
REPORT_ENV_VAR = "REPRO_CHECK_REPORT"


class GlobalStats:
    """Process-wide violation aggregation across every sanitized engine.

    Engines come and go (one per run, many per test session); the CLI and
    the exit-time report need totals that outlive them. Only bounded
    state is kept: exact counters plus the first few hundred violations.
    """

    def __init__(self, capacity: int = 500) -> None:
        self.log = ViolationLog(capacity=capacity)
        self.sanitizers = 0

    def record(self, violation: Violation) -> None:
        self.log.add(violation)

    @property
    def total(self) -> int:
        return self.log.total

    def to_dict(self) -> Dict:
        return {"sanitizers": self.sanitizers, **self.log.to_dict()}

    def reset(self) -> None:
        self.log = ViolationLog(capacity=self.log.capacity)
        self.sanitizers = 0


_STATS = GlobalStats()

#: The process-default config; ``_UNSET`` means "read REPRO_CHECK lazily".
_UNSET = object()
_default_config: Union[object, Optional[CheckConfig]] = _UNSET


def configure(spec: Union[str, CheckConfig, None]) -> Optional[CheckConfig]:
    """Set the process-default sanitizer config (None/'off' disables)."""
    global _default_config
    _default_config = parse_spec(spec)
    return _default_config


def clear_configuration() -> None:
    """Forget the process default; REPRO_CHECK is re-read on next use."""
    global _default_config
    _default_config = _UNSET


def default_config() -> Optional[CheckConfig]:
    """The effective process default (configure() overrides REPRO_CHECK)."""
    global _default_config
    if _default_config is _UNSET:
        _default_config = parse_spec(os.environ.get(ENV_VAR))
    return _default_config  # type: ignore[return-value]


def default_sanitizer() -> Optional[Sanitizer]:
    """A fresh Sanitizer from the process default, or None when off.

    Called by every Engine constructed without an explicit ``sanitizer``
    argument -- the hook that lets ``REPRO_CHECK=strict`` cover the whole
    existing test suite without touching a single test.
    """
    config = default_config()
    if config is None:
        return None
    _STATS.sanitizers += 1
    return Sanitizer(config, stats=_STATS)


def make_sanitizer(spec: Union[str, CheckConfig, None]) -> Optional[Sanitizer]:
    """Build a sanitizer from an explicit spec (None/'off' gives None)."""
    config = parse_spec(spec)
    if config is None:
        return None
    _STATS.sanitizers += 1
    return Sanitizer(config, stats=_STATS)


def global_stats() -> GlobalStats:
    return _STATS


def reset_global_stats() -> None:
    _STATS.reset()


def write_global_report(path: str) -> None:
    """Dump the aggregated violation report (CI failure artifact)."""
    document = {
        "env": {
            ENV_VAR: os.environ.get(ENV_VAR),
            REPORT_ENV_VAR: os.environ.get(REPORT_ENV_VAR),
        },
        "config": None,
        "stats": _STATS.to_dict(),
    }
    config = default_config()
    if config is not None:
        document["config"] = {
            "mode": config.mode,
            "twin_sample": config.twin_sample,
            "twin_tolerance": config.twin_tolerance,
            "seed": config.seed,
        }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


_report_registered = False


def _register_exit_report() -> None:
    """Arm the exit-time report writer once, if REPRO_CHECK_REPORT is set."""
    global _report_registered
    if _report_registered:
        return
    path = os.environ.get(REPORT_ENV_VAR)
    if not path:
        return
    _report_registered = True
    atexit.register(write_global_report, path)


_register_exit_report()

"""Grammar and parsing for what-if queries.

A query is a single token of the form::

    kind[:arg]@time[+duration][,key=value]...

the fault-spec clause shape under the shared ``key=value`` rules
(docs/architecture.md, "Spec grammars"), so operators only learn one
shape. ``time`` (and ``duration``) accept an optional ``%`` suffix
meaning *fraction of the baseline makespan* -- ``kill_link:h0-leaf0@50%``
injects the failure halfway through the baseline run. Resolution to
absolute seconds happens in :meth:`WhatIfQuery.resolved`, once the
service knows the baseline end time.

Supported kinds (each has its own option table, :data:`OPTION_KEYS`):

``submit_job:paradigm``
    Admit one extra job of ``paradigm`` (``dp``/``fsdp``/``pp``/``tp``)
    at the query time. Options: ``layers=N`` (>= 1, default 8),
    ``hosts=N`` (>= 0; 0 = the service's hosts per job).
``add_tenant:paradigm``
    ``submit_job`` with ``jobs=N`` copies (>= 1, default 2), modelling a
    new tenant's arrival.
``remove_job:job_id``
    Cancel a job whose arrival is still pending at the query time.
``kill_link:linkspec``
    Take links down (fail-stop) at the query time; ``+duration``
    schedules the matching restore.
``degrade_link:linkspec``
    Scale link capacity by ``factor=F`` (0 < F < 1, default 0.5);
    ``+duration`` restores nominal capacity.

Link specs are the fault grammar's: ``a-b`` (both directions of a duplex
link) or ``a->b`` (one directed link).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core import grammar
from ..core.grammar import NON_NEGATIVE, POSITIVE_COUNT, Key, Range

_LINK_KINDS = ("kill_link", "degrade_link")

_TIME_RE = re.compile(r"^(?P<value>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(?P<pct>%?)$")


class WhatIfQueryError(ValueError):
    """A query string does not parse or is semantically malformed."""


@dataclass(frozen=True)
class QueryOptions:
    """A query's typed options, defaults filled in."""

    layers: int = 8
    hosts: int = 0
    jobs: int = 1
    factor: float = 0.5


_JOB_KEYS = (
    Key("layers", int, POSITIVE_COUNT),
    Key("hosts", int, NON_NEGATIVE),
    Key("jobs", int, POSITIVE_COUNT),
)
_LINK_KEYS = (Key("factor", limits=Range(0.0, 1.0, "()")),)
#: Each query kind's option table.
OPTION_KEYS = {
    "submit_job": _JOB_KEYS[:2],
    "add_tenant": _JOB_KEYS,
    "remove_job": (),
    "kill_link": (),
    "degrade_link": _LINK_KEYS,
}


@dataclass(frozen=True)
class WhatIfQuery:
    """One parsed counterfactual intervention.

    ``time``/``duration`` are stored as ``(value, is_fraction)`` pairs;
    call :meth:`resolved` with the baseline makespan to get absolute
    seconds. ``arg`` is the ``:``-suffix (paradigm, job id, or raw link
    spec), ``options`` the trailing ``k=v`` pairs as written and
    ``params`` their typed values, checked against the kind's table.
    """

    kind: str
    arg: str
    time: Tuple[float, bool]
    duration: Optional[Tuple[float, bool]] = None
    options: Dict[str, str] = field(default_factory=dict)
    raw: str = ""
    params: QueryOptions = field(default_factory=QueryOptions)

    def resolved(self, makespan: float) -> Tuple[float, Optional[float]]:
        """Return ``(abs_time, abs_duration_or_None)`` in seconds."""
        value, pct = self.time
        time = value * makespan / 100.0 if pct else value
        duration: Optional[float] = None
        if self.duration is not None:
            dvalue, dpct = self.duration
            duration = dvalue * makespan / 100.0 if dpct else dvalue
        return time, duration

    def describe(self) -> str:
        return self.raw or f"{self.kind}:{self.arg}@{self.time[0]:g}"


def _parse_time(token: str, *, what: str, raw: str) -> Tuple[float, bool]:
    match = _TIME_RE.match(token)
    if match is None or not math.isfinite(float(match.group("value"))):
        raise WhatIfQueryError(f"bad {what} {token!r} in query {raw!r}")
    return float(match.group("value")), match.group("pct") == "%"


def parse_query(spec: str) -> WhatIfQuery:
    """Parse one ``kind[:arg]@time[+duration][,k=v]`` token."""
    raw = spec.strip()
    if not raw:
        raise WhatIfQueryError("empty what-if query")
    kind, arg, time_text, duration_text, pairs = grammar.split_clause(
        raw, WhatIfQueryError
    )
    if kind not in OPTION_KEYS:
        raise WhatIfQueryError(
            f"unknown query kind {kind!r} in {raw!r} "
            f"(expected one of {', '.join(OPTION_KEYS)})"
        )
    if not arg:
        raise WhatIfQueryError(f"query kind {kind!r} needs a ':arg' in {raw!r}")
    time = _parse_time(time_text, what="time", raw=raw)
    duration: Optional[Tuple[float, bool]] = None
    if duration_text is not None:
        if kind not in _LINK_KINDS:
            raise WhatIfQueryError(
                f"'+duration' only applies to link queries, not {kind!r} ({raw!r})"
            )
        duration = _parse_time(duration_text, what="duration", raw=raw)
        if duration[0] == 0:
            raise WhatIfQueryError(f"zero duration in query {raw!r}")
    values = grammar.parse_pairs(pairs, OPTION_KEYS[kind], WhatIfQueryError)
    if kind == "add_tenant":
        values.setdefault("jobs", 2)
    return WhatIfQuery(
        kind=kind,
        arg=arg,
        time=time,
        duration=duration,
        options=grammar.split_pairs(pairs, WhatIfQueryError),
        raw=raw,
        params=QueryOptions(**values),
    )


def parse_batch(text: str) -> List[WhatIfQuery]:
    """Parse a batch file: one query per line, ``#`` comments, blanks ok."""
    queries: List[WhatIfQuery] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            queries.append(parse_query(stripped))
        except WhatIfQueryError as exc:
            raise WhatIfQueryError(f"line {lineno}: {exc}") from exc
    return queries

"""Declarative fault schedules: what breaks, when, and for how long.

A :class:`FaultSchedule` is an immutable, time-sorted list of primitive
:class:`FaultEvent` actions. Schedules are built from a compact spec string::

    link_down:h1-h2@2.5+1.0; degrade:h2-h3@4.0,factor=0.5;
    flap:h0-h1@1.0,period=0.2,count=6; crash_scheduler@3.0

or from JSON (see :meth:`FaultSchedule.from_json`). Grammar per clause::

    action[:linkspec]@time[+duration][,key=value...]

The clause shape and the ``key=value`` rules are the ones every spec in
the repo shares (docs/architecture.md, "Spec grammars"); times and
durations are finite seconds.

* ``linkspec`` -- ``a-b`` hits both directions of a duplex link pair,
  ``a->b`` only the directed link.
* ``link_down`` -- capacity drops to 0 at ``time``; with ``+duration`` the
  link restores afterwards, without it the outage is permanent.
* ``degrade`` -- capacity drops to ``factor`` x nominal (0 < factor < 1);
  optional ``+duration`` restores it.
* ``flap`` -- ``count`` down/restore cycles of length ``period`` starting
  at ``time`` (down for the first half of each cycle). An optional
  ``factor`` makes it a *brown-out* flap: each cycle degrades to
  ``factor`` x nominal instead of failing stop, so traffic stays on the
  sick link instead of being rerouted off it.
* ``crash_scheduler`` -- poison the next scheduler invocation after
  ``time`` (requires a :class:`~repro.faults.ResilientScheduler`).

Control-plane actions (these require a
:class:`~repro.system.runtime.ControlPlaneRuntime` attached to the
engine; see docs/control_plane.md)::

    crash_agent@2.0+1.0,agent=job1; crash_coordinator@3.0+0.5;
    partition_control@4.0+1.0; rpc_noise@1.0,drop=0.1,delay=0.002

* ``crash_agent`` -- the named agent (``agent=<job id>``) stops sending
  and receiving control messages at ``time``; with ``+duration`` it
  restarts afterwards and re-syncs with the coordinator.
* ``crash_coordinator`` -- the coordinator process dies (in-memory
  registry lost); with ``+duration`` it restarts, recovers from its last
  checkpoint, and replays the post-checkpoint request log.
* ``partition_control`` -- the control network partitions: the named
  agent (``agent=``, or every agent when omitted) cannot reach the
  coordinator; ``+duration`` heals the partition. Data-plane traffic is
  unaffected -- only the scheduling control loop degrades.
* ``rpc_noise`` -- swap the control channel to a degraded one described
  by inline RPC-spec keys (``drop`` / ``delay`` / ``dup`` / ``timeout``
  / ``retries`` / ``backoff`` / ``seed``, see
  :mod:`repro.system.runtime.rpc`; JSON clauses carry them as one
  ``spec`` string); ``+duration`` restores the channel the run started
  with.

Compound clauses (``flap``, ``+duration``) expand at parse time into
primitive paired events (``link_down`` / ``link_restore``,
``crash_agent`` / ``agent_restore``, ...), so the injector replays a
flat, deterministic timeline. Overlapping clauses on one link resolve by
time order: the latest action wins, and every restore returns the link
to its *nominal* (construction-time) capacity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.grammar import NON_NEGATIVE, POSITIVE_COUNT, Key, Range
from ..core.grammar import parse_pairs, split_clause, split_pairs

_LINK_ACTIONS = ("link_down", "link_restore", "degrade")
#: Control-plane primitives (PR 10). Appended *after* the original
#: actions: the schedule's sort key indexes into ``_ACTIONS``, so
#: appending preserves every pre-existing same-timestamp ordering.
_CONTROL_ACTIONS = (
    "crash_agent",
    "agent_restore",
    "crash_coordinator",
    "coordinator_restore",
    "partition_control",
    "partition_heal",
    "rpc_noise",
    "rpc_restore",
)
_ACTIONS = _LINK_ACTIONS + ("crash_scheduler",) + _CONTROL_ACTIONS
#: Actions that *end* a fault rather than cause one (skipped by
#: ``ground_truth``).
_RESTORE_ACTIONS = frozenset(
    {
        "link_restore",
        "agent_restore",
        "coordinator_restore",
        "partition_heal",
        "rpc_restore",
    }
)
#: Clause action -> paired restore primitive for ``+duration``.
_CONTROL_RESTORE = {
    "crash_agent": "agent_restore",
    "crash_coordinator": "coordinator_restore",
    "partition_control": "partition_heal",
    "rpc_noise": "rpc_restore",
}
#: Primitive action -> localization kind for ``ground_truth``.
_CONTROL_KINDS = {
    "crash_agent": "agent",
    "crash_coordinator": "coordinator",
    "partition_control": "control",
    "rpc_noise": "control",
}
#: Control actions that carry (or may carry) an ``agent=`` target.
_TARGETED_ACTIONS = frozenset(
    {"crash_agent", "agent_restore", "partition_control", "partition_heal"}
)


#: ``FaultEvent`` fields JSON carries only when set, with their types.
_OPTIONAL_FIELDS = (("factor", float), ("target", str), ("spec", str))


class FaultSpecError(ValueError):
    """A fault spec string or JSON document failed to parse."""


@dataclass(frozen=True)
class FaultEvent:
    """One primitive timed fault action.

    ``links`` holds directed ``(src, dst)`` keys (a duplex ``a-b`` spec
    expands to both directions); ``factor`` is set for ``degrade`` only.
    Control-plane actions carry no links; ``target`` names the agent a
    ``crash_agent``/``partition_control`` hits (``None`` partitions every
    agent) and ``spec`` holds an ``rpc_noise`` clause's channel grammar.
    """

    time: float
    action: str
    links: Tuple[Tuple[str, str], ...] = ()
    factor: Optional[float] = None
    target: Optional[str] = None
    spec: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.time) and self.time >= 0):
            raise FaultSpecError(
                f"fault time must be finite and >= 0, got {self.time}"
            )
        if self.action not in _ACTIONS:
            raise FaultSpecError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if self.action in _LINK_ACTIONS and not self.links:
            raise FaultSpecError(f"{self.action} fault needs at least one link")
        if self.action not in _LINK_ACTIONS and self.links:
            raise FaultSpecError(f"{self.action} takes no link spec")
        if self.action == "degrade":
            if self.factor is None or not (0.0 < self.factor < 1.0):
                raise FaultSpecError(
                    f"degrade needs 0 < factor < 1, got {self.factor}"
                )
        elif self.factor is not None:
            raise FaultSpecError(f"{self.action} does not take a factor")
        if self.target is not None and self.action not in _TARGETED_ACTIONS:
            raise FaultSpecError(f"{self.action} does not take agent=")
        if self.action in ("crash_agent", "agent_restore") and not self.target:
            raise FaultSpecError(f"{self.action} requires agent=<job id>")
        if self.spec is not None and self.action != "rpc_noise":
            raise FaultSpecError(f"{self.action} does not take an RPC spec")
        if self.action == "rpc_noise" and not self.spec:
            raise FaultSpecError(
                "rpc_noise requires channel parameters "
                "(e.g. rpc_noise@1.0,drop=0.1,delay=0.002)"
            )

    def describe(self) -> str:
        links = ",".join(f"{s}->{d}" for s, d in self.links)
        extra = f" factor={self.factor}" if self.factor is not None else ""
        if self.target is not None:
            extra += f" agent={self.target}"
        if self.spec is not None:
            extra += f" spec={self.spec}"
        return f"{self.action}@{self.time:g} {links}{extra}".rstrip()


def _parse_linkspec(text: str) -> Tuple[Tuple[str, str], ...]:
    text = text.strip()
    if "->" in text:
        src, _, dst = text.partition("->")
        src, dst = src.strip(), dst.strip()
        if not src or not dst:
            raise FaultSpecError(f"bad directed link spec {text!r}")
        return ((src, dst),)
    if "-" in text:
        a, _, b = text.partition("-")
        a, b = a.strip(), b.strip()
        if not a or not b:
            raise FaultSpecError(f"bad link spec {text!r}")
        return ((a, b), (b, a))
    raise FaultSpecError(
        f"bad link spec {text!r}: expected 'a-b' (duplex) or 'a->b' (directed)"
    )


#: A clause's ``@time[+duration]``, in seconds.
_WHEN_KEYS = (Key("time", limits=NON_NEGATIVE), Key("duration"))
_FACTOR = Key("factor", limits=Range(0.0, 1.0, "()"))
_AGENT = Key("agent", str)
#: Each clause action's ``key=value`` table (docs/architecture.md,
#: "Spec grammars"); an ``rpc_noise`` clause's keys arrive as one spec.
_PARAM_KEYS = {
    "link_down": (),
    "degrade": (_FACTOR,),
    "flap": (
        Key("period", limits=Range(0.0, math.inf, "(]")),
        Key("count", int, POSITIVE_COUNT),
        _FACTOR,
    ),
    "crash_scheduler": (),
    "crash_agent": (_AGENT,),
    "crash_coordinator": (),
    "partition_control": (_AGENT,),
    "rpc_noise": (Key("spec", str),),
}


def _restore(duration: Optional[float], time: float, **event) -> List[FaultEvent]:
    """The event a ``+duration`` pairs with a fault (none without one)."""
    if duration is None:
        return []
    if duration <= 0:
        raise FaultSpecError(f"duration must be > 0, got {duration}")
    return [FaultEvent(time=time + duration, **event)]


def _expand_clause(
    action: str,
    links: Tuple[Tuple[str, str], ...],
    time: float,
    duration: Optional[float],
    params: Dict[str, str],
) -> List[FaultEvent]:
    if action not in _PARAM_KEYS:
        raise FaultSpecError(
            f"unknown fault action {action!r}; expected one of "
            f"{', '.join(_PARAM_KEYS)}"
        )
    values = parse_pairs(params, _PARAM_KEYS[action], FaultSpecError)

    if action == "crash_scheduler":
        if links:
            raise FaultSpecError("crash_scheduler takes no link spec")
        if duration is not None:
            raise FaultSpecError("crash_scheduler takes no duration")
        return [FaultEvent(time=time, action="crash_scheduler")]

    if action in ("link_down", "degrade"):
        fault = FaultEvent(
            time=time, action=action, links=links, factor=values.get("factor")
        )
        return [fault] + _restore(
            duration, time, action="link_restore", links=links
        )

    if action == "flap":
        if duration is not None:
            raise FaultSpecError("flap uses period/count, not a duration")
        if "period" not in values or "count" not in values:
            raise FaultSpecError("flap requires period=<s> and count=<n>")
        period = values["period"]
        # Optional factor turns a fail-stop flap (link_down cycles) into
        # a brown-out flap: the link stays up but cycles between degraded
        # and nominal capacity, the signature of a failing optic. Flows
        # are NOT auto-rerouted off a degraded link (it still carries
        # traffic), which is exactly what makes brown-outs the case
        # where a watch-loop cordon earns its keep.
        factor = values.get("factor")
        down = "link_down" if factor is None else "degrade"
        events: List[FaultEvent] = []
        for i in range(values["count"]):
            start = time + i * period
            events.append(FaultEvent(start, down, links, factor=factor))
            events.append(FaultEvent(start + period / 2.0, "link_restore", links))
        return events

    # Control-plane actions.
    if links:
        raise FaultSpecError(
            f"{action} takes no link spec; name agents with agent=<id>"
        )
    target, spec = values.get("agent"), values.get("spec")
    if spec:
        # Deferred import: repro.system.runtime sits on top of faults.
        from ..system.runtime.rpc import RpcSpecError, parse_rpc_spec

        try:
            parse_rpc_spec(spec)
        except RpcSpecError as exc:
            raise FaultSpecError(f"bad rpc_noise parameters: {exc}") from None
    fault = FaultEvent(time=time, action=action, target=target, spec=spec)
    return [fault] + _restore(
        duration, time, action=_CONTROL_RESTORE[action], target=target
    )


def _parse_clause(clause: str) -> List[FaultEvent]:
    action, linkpart, time_text, duration_text, pairs = split_clause(
        clause, FaultSpecError
    )
    links = _parse_linkspec(linkpart) if linkpart is not None else ()
    params = split_pairs(pairs, FaultSpecError)
    if action == "rpc_noise":
        # The inline keys are the channel spec itself (JSON carries it
        # as one "spec" field).
        params = {"spec": ",".join(f"{k}={v}" for k, v in params.items())}
    texts = {"time": time_text}
    if duration_text is not None:
        texts["duration"] = duration_text
    when = parse_pairs(texts, _WHEN_KEYS, FaultSpecError)
    return _expand_clause(action, links, when["time"], when.get("duration"), params)


def parse_fault_spec(spec: str) -> "FaultSchedule":
    """Parse a ``;``-separated fault spec string into a schedule."""
    events: List[FaultEvent] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        events.extend(_parse_clause(clause))
    if not events:
        raise FaultSpecError(f"fault spec {spec!r} contains no clauses")
    return FaultSchedule(events)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered sequence of primitive fault events.

    One schedule can arm any number of engines (each via its own
    :class:`~repro.faults.FaultInjector`); it carries no runtime state.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = tuple(
            sorted(events, key=lambda e: (e.time, _ACTIONS.index(e.action)))
        )
        object.__setattr__(self, "events", ordered)

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        return parse_fault_spec(spec)

    @classmethod
    def from_json(cls, document) -> "FaultSchedule":
        """Build a schedule from JSON (a string, list, or ``{"faults": [...]}``).

        Each entry is either a primitive event (``{"time", "action",
        "links": [["a","b"], ...], "factor"}``) or a clause mirroring the
        string grammar (``{"action", "link": "a-b", "time", "duration",
        "factor", "period", "count"}``) which expands exactly like its
        spec-string counterpart.
        """
        if isinstance(document, str):
            document = json.loads(document)
        if isinstance(document, dict):
            document = document.get("faults", [])
        if not isinstance(document, list):
            raise FaultSpecError(
                f"fault JSON must be a list or {{'faults': [...]}}, "
                f"got {type(document).__name__}"
            )
        events: List[FaultEvent] = []
        for entry in document:
            if not isinstance(entry, dict):
                raise FaultSpecError(f"bad fault entry {entry!r}")
            if "links" in entry:
                optional = {
                    key: cast(entry[key])
                    for key, cast in _OPTIONAL_FIELDS
                    if entry.get(key) is not None
                }
                events.append(
                    FaultEvent(
                        time=float(entry["time"]),
                        action=str(entry["action"]),
                        links=tuple(
                            (str(s), str(d)) for s, d in entry["links"]
                        ),
                        **optional,
                    )
                )
                continue
            action = str(entry.get("action", ""))
            links = _parse_linkspec(entry["link"]) if "link" in entry else ()
            params = {
                key: str(entry[key])
                for key in ("factor", "period", "count", "agent", "spec")
                if entry.get(key) is not None
            }
            duration = (
                float(entry["duration"])
                if entry.get("duration") is not None
                else None
            )
            events.extend(
                _expand_clause(
                    action, links, float(entry["time"]), duration, params
                )
            )
        if not events:
            raise FaultSpecError("fault JSON contains no events")
        return cls(events)

    def to_json(self) -> str:
        """Serialize as a flat list of primitive events (round-trippable)."""
        return json.dumps(
            [
                {
                    "time": event.time,
                    "action": event.action,
                    "links": [list(key) for key in event.links],
                    **{
                        key: getattr(event, key)
                        for key, _ in _OPTIONAL_FIELDS
                        if getattr(event, key) is not None
                    },
                }
                for event in self.events
            ]
        )

    def link_keys(self) -> List[Tuple[str, str]]:
        """Every directed link key any event touches, sorted."""
        return sorted({key for event in self.events for key in event.links})

    def validate_links(self, topology) -> None:
        """Check every targeted link exists in ``topology``.

        Raises :class:`FaultSpecError` naming the first missing link, so
        a typo'd ``--faults`` spec dies at build time instead of firing
        a no-op (or crashing) mid-run.
        """
        for src, dst in self.link_keys():
            if not topology.has_link(src, dst):
                keys = sorted(link.key for link in topology.links())
                shown = ", ".join(f"{s}->{d}" for s, d in keys[:12])
                if len(keys) > 12:
                    shown += f", ... ({len(keys)} links)"
                raise FaultSpecError(
                    f"fault spec targets unknown link {src}->{dst} "
                    f"(topology {topology.name!r} has: {shown})"
                )

    def ground_truth(self) -> List[Dict]:
        """Grader-facing labels: one entry per distinct injected cause.

        Groups the primitive timeline by ``(action, target set)`` and
        skips restore actions (a restore ends a fault, it does not
        cause one), so a flap's many down/restore pairs collapse into a
        single ``link_down`` entry carrying its first onset and cycle
        count. ``crash_scheduler`` maps to localization kind
        ``"scheduler"``; link actions to kind ``"link"`` with directed
        ``src->dst`` target keys; control-plane actions to kinds
        ``"agent"`` / ``"coordinator"`` / ``"control"`` with
        ``agent:<id>`` targets where one was named. This is the *only*
        sanctioned bridge between the chaos layer and the watch loop's
        scoring -- the detectors and localizer never see it (see
        :mod:`repro.obs.watch.stream`).
        """
        grouped: Dict[Tuple[str, Tuple[str, ...]], Dict] = {}
        for event in self.events:
            if event.action in _RESTORE_ACTIONS:
                continue
            if event.action in _CONTROL_KINDS:
                kind = _CONTROL_KINDS[event.action]
                if event.target is not None:
                    targets: Tuple[str, ...] = (f"agent:{event.target}",)
                elif event.action == "crash_coordinator":
                    targets = ("coordinator",)
                else:
                    targets = ("control",)
            else:
                kind = (
                    "scheduler" if event.action == "crash_scheduler" else "link"
                )
                targets = tuple(sorted(f"{s}->{d}" for s, d in event.links))
            key = (event.action, targets)
            entry = grouped.get(key)
            if entry is None:
                grouped[key] = {
                    "kind": kind,
                    "action": event.action,
                    "targets": list(targets) or ["scheduler"],
                    "time": event.time,
                    "count": 1,
                }
            else:
                entry["time"] = min(entry["time"], event.time)
                entry["count"] += 1
        return sorted(
            grouped.values(), key=lambda e: (e["time"], e["action"])
        )

    @property
    def has_crashes(self) -> bool:
        return any(e.action == "crash_scheduler" for e in self.events)

    @property
    def has_control_faults(self) -> bool:
        """True when any event targets the control plane (agent /
        coordinator / partition / RPC channel); such schedules need a
        :class:`~repro.system.runtime.ControlPlaneRuntime` on the engine."""
        return any(e.action in _CONTROL_ACTIONS for e in self.events)

    def control_events(self) -> List[FaultEvent]:
        """The control-plane subset of the timeline, in order."""
        return [e for e in self.events if e.action in _CONTROL_ACTIONS]

    def agent_targets(self) -> List[str]:
        """Every agent id a control event names, sorted."""
        return sorted(
            {e.target for e in self.events if e.target is not None}
        )

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

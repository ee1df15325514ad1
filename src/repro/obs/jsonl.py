"""Structured JSONL event logging and offline summarisation.

Every instrumented run can stream its lifecycle events -- flow
injections/deliveries, scheduler invocations, network advances -- to an
append-only log, one JSON object per line. The format is deliberately
flat ({"ev": kind, "t": sim-time, ...fields}) so logs grep well and load
into pandas/jq without a schema. ``summarize_events`` recovers the
headline numbers from a saved log, powering ``python -m repro obs``.

The log is also the *live* feed for the online watch loop
(:mod:`repro.obs.watch`): subscribers registered with
:meth:`JsonlEventLog.subscribe` see every event the moment it is
appended, before any capacity eviction, so streaming detectors never
miss an event even when the on-disk ring is bounded.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Iterable, Iterator, List, Optional

#: A ring drops evicted events once at least this many, and at least a
#: quarter of its capacity, sit in front of the retained ones.
_COMPACT_MIN = 64


class JsonlEventLog:
    """An in-memory structured event log, written out as JSONL.

    Events accumulate as plain dicts; ``write`` (or ``dump``) serialises
    one object per line. When ``capacity`` is set the log keeps only the
    most recent events (a ring), bounding memory on very long runs.
    ``stream_to`` additionally spills every record to a JSONL file as it
    is appended (buffered, flushed every ``flush_every`` records and on
    :meth:`close`), so ring eviction never loses the on-disk history --
    the combination gives O(capacity) memory with a complete log.

    Coalescing policy under eviction
    --------------------------------
    When the capacity bound evicts events, the dropped records are
    *coalesced* rather than silently discarded: per-kind counts and the
    evicted time span accumulate in :attr:`evicted_by_kind` /
    :attr:`evicted_span`, and :meth:`dump` prepends one synthetic
    ``log_truncated`` event describing what the ring dropped. Consumers
    replaying a truncated log (``repro obs`` / ``repro watch``) can
    therefore tell a short run from a clipped one, and windowed
    statistics know their left edge is soft. Live subscribers are
    notified on append -- strictly before eviction -- so the online
    watch loop sees the complete stream regardless of ``capacity``.
    """

    def __init__(
        self,
        capacity: Optional[int] = None,
        stream_to: Optional[str] = None,
        flush_every: int = 512,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if flush_every <= 0:
            raise ValueError(f"flush_every must be positive, got {flush_every}")
        self.capacity = capacity
        #: Retained events, plus ``_head`` evicted ones in front of
        #: them: a ring drops its evicted events in one slice once
        #: ``max(64, capacity // 4)`` have piled up, so eviction costs
        #: O(1) amortized and the list never exceeds that plus capacity.
        self._events: List[Dict] = []
        self._head = 0
        #: Events appended over the lifetime (>= len(events) with a ring).
        self.total_appended = 0
        #: Per-kind counts of ring-evicted events (coalesced history).
        self.evicted_by_kind: Dict[str, int] = {}
        #: [first, last] event time of everything evicted, or None.
        self.evicted_span: Optional[List[float]] = None
        self._subscribers: List[Callable[[Dict], None]] = []
        #: Streaming spill: every record is serialised to this path the
        #: moment it is appended, so a ring-bounded log still persists
        #: the complete stream with O(capacity) memory. Buffered writes
        #: are flushed every ``flush_every`` records and on :meth:`close`.
        self.stream_path = stream_to
        self._flush_every = flush_every
        self._unflushed = 0
        self._stream = open(stream_to, "w") if stream_to else None

    def subscribe(self, callback: Callable[[Dict], None]) -> None:
        """Register a live consumer; called with every appended record.

        Callbacks fire synchronously on :meth:`append`, before capacity
        eviction, and must treat the record as read-only: records share
        list values with each other and with their producer (every
        ``flow_injected`` event on one path holds the same hop lists; a
        ``flow_rates`` event holds the rate recorder's sealed segments).
        """
        self._subscribers.append(callback)

    @property
    def events(self) -> List[Dict]:
        """The retained events, oldest first (at most ``capacity``)."""
        if self._head:
            del self._events[: self._head]
            self._head = 0
        return self._events

    def append(self, ev: str, t: float, **fields) -> None:
        """Append the event ``{"ev": ev, "t": t, **fields}``."""
        self.add({"ev": ev, "t": t, **fields})

    def add(self, record: Dict) -> None:
        """Append one ready-built record, its ``ev`` and ``t`` keys first.

        The per-flow and per-decision hooks build their records as dict
        literals and hand them here, which saves the keyword dictionary
        :meth:`append` receives and the copy it makes of it.
        """
        self._events.append(record)
        self.total_appended += 1
        if self._stream is not None:
            self._stream.write(
                json.dumps(record, sort_keys=True, default=str) + "\n"
            )
            self._unflushed += 1
            if self._unflushed >= self._flush_every:
                self._stream.flush()
                self._unflushed = 0
        if self._subscribers:
            for callback in self._subscribers:
                callback(record)
        capacity = self.capacity
        if capacity is not None:
            events = self._events
            while len(events) - self._head > capacity:
                self._evict(events[self._head])
                self._head += 1
            if self._head >= _COMPACT_MIN and self._head >= capacity >> 2:
                del events[: self._head]
                self._head = 0

    def _evict(self, victim: Dict) -> None:
        """Fold one ring-evicted event into the coalesced history."""
        kind = victim.get("ev", "?")
        self.evicted_by_kind[kind] = self.evicted_by_kind.get(kind, 0) + 1
        vt = victim.get("t")
        if isinstance(vt, (int, float)):
            if self.evicted_span is None:
                self.evicted_span = [vt, vt]
            else:
                self.evicted_span[0] = min(self.evicted_span[0], vt)
                self.evicted_span[1] = max(self.evicted_span[1], vt)

    def __len__(self) -> int:
        return len(self._events) - self._head

    def _truncation_event(self) -> Optional[Dict]:
        if not self.evicted_by_kind:
            return None
        record: Dict = {
            "ev": "log_truncated",
            "t": self.evicted_span[1] if self.evicted_span else 0.0,
            "evicted": sum(self.evicted_by_kind.values()),
            "by_kind": dict(sorted(self.evicted_by_kind.items())),
        }
        if self.evicted_span is not None:
            record["span"] = list(self.evicted_span)
        return record

    def dump(self) -> str:
        head = self._truncation_event()
        prefix = (
            json.dumps(head, sort_keys=True, default=str) + "\n" if head else ""
        )
        return prefix + "".join(
            json.dumps(event, sort_keys=True, default=str) + "\n"
            for event in self.events
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.dump())

    def close(self) -> None:
        """Flush and close the streaming spill file (idempotent)."""
        if self._stream is not None:
            self._stream.flush()
            self._stream.close()
            self._stream = None
            self._unflushed = 0

    def __enter__(self) -> "JsonlEventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_jsonl(path: str) -> Iterator[Dict]:
    """Stream a JSONL event log one record at a time.

    The streaming twin of :func:`read_jsonl`: nothing is materialized
    beyond the current line, so replaying multi-gigabyte logs through the
    watch loop costs O(1) memory. Blank lines are skipped; malformed
    lines raise with path:lineno context.
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({exc})")


def read_jsonl(path: str) -> List[Dict]:
    """Load a JSONL event log fully into memory (see :func:`iter_jsonl`)."""
    return list(iter_jsonl(path))


def percentile(values: Iterable[float], q: float) -> float:
    """Exact nearest-rank percentile of ``values`` (0 <= q <= 1).

    Accepts any iterable (it is materialized once); raises ``ValueError``
    on an empty input or an out-of-range ``q`` instead of silently
    clamping, so streaming callers surface bad windows early.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty list")
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def summarize_events(events: Iterable[Dict]) -> Dict:
    """Headline statistics of a JSONL event stream.

    Returns counts per event kind, the simulated time span, scheduler
    invocations by trigger cause (plus wall-clock latency percentiles
    when ``scheduler_invocation`` events are present), flow delivery/
    tardiness aggregates, per-link peak utilization when ``link_sample``
    events are present, and -- whenever the chaos/watch layers left
    traces -- a ``robustness`` section surfacing faults, scheduler
    fallbacks, reroutes (migrated vs stranded flows), and anomalies
    instead of burying them in the raw ``by_kind`` counts.
    """
    by_kind: Dict[str, int] = {}
    causes: Dict[str, int] = {}
    t_min = float("inf")
    t_max = float("-inf")
    flows_delivered = 0
    tardiness: List[float] = []
    latencies: List[float] = []
    link_peak: Dict[str, float] = {}
    fault_actions: Dict[str, int] = {}
    fault_first: Optional[float] = None
    fault_last: Optional[float] = None
    fallback_kinds: Dict[str, int] = {}
    reroutes = 0
    migrated_flows = 0
    stranded_flows = 0
    anomaly_detectors: Dict[str, int] = {}
    control_kinds: Dict[str, int] = {}
    truncated: Optional[Dict] = None
    for event in events:
        kind = event.get("ev", "?")
        by_kind[kind] = by_kind.get(kind, 0) + 1
        t = event.get("t")
        if isinstance(t, (int, float)):
            t_min = min(t_min, t)
            t_max = max(t_max, t)
        if kind == "reschedule":
            cause = event.get("cause", "unknown")
            causes[cause] = causes.get(cause, 0) + 1
        elif kind == "scheduler_invocation":
            value = event.get("wall_clock")
            if isinstance(value, (int, float)):
                latencies.append(value)
        elif kind == "flow_finished":
            flows_delivered += 1
            value = event.get("tardiness")
            if isinstance(value, (int, float)):
                tardiness.append(value)
        elif kind == "link_sample":
            for link, utilization in (event.get("links") or {}).items():
                link_peak[link] = max(link_peak.get(link, 0.0), utilization)
        elif kind == "fault":
            action = event.get("action", "unknown")
            fault_actions[action] = fault_actions.get(action, 0) + 1
            if isinstance(t, (int, float)):
                fault_first = t if fault_first is None else min(fault_first, t)
                fault_last = t if fault_last is None else max(fault_last, t)
            migrated_flows += len(event.get("migrated") or ())
            stranded_flows += len(event.get("stranded") or ())
        elif kind == "scheduler_fallback":
            fb = event.get("kind", "unknown")
            fallback_kinds[fb] = fallback_kinds.get(fb, 0) + 1
        elif kind == "flow_rerouted":
            reroutes += 1
        elif kind == "anomaly":
            detector = event.get("detector", "unknown")
            anomaly_detectors[detector] = anomaly_detectors.get(detector, 0) + 1
        elif kind == "control":
            ck = event.get("kind", "unknown")
            control_kinds[ck] = control_kinds.get(ck, 0) + 1
        elif kind == "log_truncated":
            truncated = {
                "evicted": event.get("evicted", 0),
                "by_kind": event.get("by_kind", {}),
                "span": event.get("span"),
            }
    summary: Dict = {
        "events": sum(by_kind.values()),
        "by_kind": dict(sorted(by_kind.items())),
        "time_span": None
        if t_min == float("inf")
        else {"start": t_min, "end": t_max},
        "scheduler": {
            "invocations": sum(causes.values()),
            "by_cause": dict(sorted(causes.items())),
        },
        "flows": {"delivered": flows_delivered},
    }
    if latencies:
        summary["scheduler"]["latency_seconds"] = {
            "count": len(latencies),
            "mean": sum(latencies) / len(latencies),
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "max": max(latencies),
        }
    if tardiness:
        summary["flows"]["worst_tardiness"] = max(tardiness)
        summary["flows"]["mean_tardiness"] = sum(tardiness) / len(tardiness)
    if link_peak:
        summary["links"] = {
            "count": len(link_peak),
            "peak_utilization": dict(
                sorted(link_peak.items(), key=lambda kv: -kv[1])
            ),
        }
    if fault_actions or fallback_kinds or reroutes or anomaly_detectors:
        robustness: Dict = {
            "faults": sum(fault_actions.values()),
            "fault_actions": dict(sorted(fault_actions.items())),
            "scheduler_fallbacks": sum(fallback_kinds.values()),
            "fallback_kinds": dict(sorted(fallback_kinds.items())),
            "flow_reroutes": reroutes,
            "migrated_flows": migrated_flows,
            "stranded_flows": stranded_flows,
        }
        if fault_first is not None:
            robustness["first_fault_time"] = fault_first
            robustness["last_fault_time"] = fault_last
        if anomaly_detectors:
            robustness["anomalies"] = sum(anomaly_detectors.values())
            robustness["anomaly_detectors"] = dict(
                sorted(anomaly_detectors.items())
            )
        summary["robustness"] = robustness
    if control_kinds:
        summary["control_plane"] = {
            "events": sum(control_kinds.values()),
            "event_kinds": dict(sorted(control_kinds.items())),
        }
    if truncated is not None:
        summary["truncated"] = truncated
    return summary


def summarize_jsonl(path: str) -> Dict:
    return summarize_events(iter_jsonl(path))

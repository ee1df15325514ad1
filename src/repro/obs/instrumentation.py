"""Run-time instrumentation: what the engine records when observed.

An :class:`Instrumentation` object plugs into the engine (and, through
it, the network model) and passively records:

* per-link utilization/saturation timelines, sampled on every fluid
  advance and merged into piecewise-constant segments;
* per-round event counts and scheduler invocations by trigger cause
  (arrival / departure / compute / tick / timer);
* per-EchelonFlow *live* tardiness, appended the moment each member
  flow delivers -- the running view of Eq. 1-4 rather than the
  post-hoc report;
* optional structured JSONL events for offline analysis.

Everything funnels into a :class:`~repro.obs.registry.MetricsRegistry`
so reports and merges come for free. The engine holds ``None`` when not
observed and guards each hook with one attribute check, which keeps the
un-instrumented hot path allocation-free.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from .jsonl import JsonlEventLog
from .registry import MetricsRegistry

#: Rates closer than this (relative) are merged into one timeline segment.
_RATE_TOL = 1e-9

#: Default bound on retained per-flow rate segments (see FlowRateRecorder).
DEFAULT_RATE_CAPACITY = 200_000

#: One path's ``((link key, capacity), ...)`` and ``[[link key, capacity], ...]``.
_Payload = Tuple[Tuple[Tuple[str, float], ...], List[List]]


class LinkNames(dict):
    """``Link.key`` -> ``"src->dst"``, formatted on first lookup.

    Every hook that names a link reads it from one shared table, so each
    name is formatted once per run and every path, timeline and event
    holds the same string object.
    """

    def __missing__(self, key: Tuple[str, str]) -> str:
        name = self[key] = LinkTimeline.link_key(*key)
        return name


class LinkTimeline:
    """Piecewise-constant utilization history of every observed link.

    Samples arrive as (now, dt, the network's
    :class:`~repro.simulator.allocation.LinkAccounting`); consecutive
    samples at the same rate coalesce, so a flow draining steadily for a
    thousand engine rounds costs one segment, not a thousand.

    A sample costs what changed since the previous one, not the number
    of busy links. The first sample switches on the accounting's
    ``moved`` set, which then records every link whose load or capacity
    the accounting changes; a contiguous sample runs the per-link rule
    only on those links and clears the set. Links met for the first
    time go last, in accounting-column order, the order a full scan
    meets them in, so ``segments`` and ``capacities`` keep their key
    order. Every other busy link carries the same load as at the
    previous sample, so its open segment just extends; open segments
    share one end, the latest sample's, which is written into them only
    when :attr:`segments` is read. The first sample, a non-contiguous
    one and one on an accounting that records nothing close every open
    segment and scan all busy links. One timeline per accounting: the
    timeline owns the ``moved`` set.
    """

    def __init__(self) -> None:
        #: link key "src->dst" -> list of [start, end, rate] segments.
        self._segments: Dict[str, List[List[float]]] = {}
        self.capacities: Dict[str, float] = {}
        self.names = LinkNames()
        #: Link.key -> (name, its segment list): one lookup per sample.
        self._series: Dict[Tuple[str, str], Tuple[str, List[List[float]]]] = {}
        #: Link.key -> (name, segment list) of each link busy at the
        #: latest sample; the last segment's stored end may trail ``_end``.
        self._open: Dict[Tuple[str, str], Tuple[str, List[List[float]]]] = {}
        #: End of the latest sample; ``None`` before the first.
        self._end: Optional[float] = None

    @staticmethod
    def link_key(src: str, dst: str) -> str:
        return f"{src}->{dst}"

    @property
    def segments(self) -> Dict[str, List[List[float]]]:
        """link key "src->dst" -> its [start, end, rate] segments."""
        end = self._end
        for _name, series in self._open.values():
            series[-1][1] = end
        return self._segments

    def sample(self, now: float, dt: float, accounting) -> None:
        """Record one fluid advance of ``dt`` from ``now``.

        ``accounting`` is the network's residual accounting. Its per-link
        float accumulators can drift a few ulp below zero on a busy link
        that just emptied, so tiny negatives are clamped rather than
        plotted.
        """
        if dt <= 0:
            return
        end = now + dt
        previous = self._end
        opened = self._open
        series_of = self._series
        nonzero = accounting.nonzero
        moved = accounting.moved
        loads = accounting.loads
        links = accounting.links
        capacities = self.capacities
        # The per-link rule: extend the last segment or open a new one,
        # both within _RATE_TOL (relative to the rate above 1). Open
        # links run it in the scan of ``moved``; links that open a
        # segment run go to ``busy`` and run it below.
        if (
            moved is None
            or previous is None
            or not -_RATE_TOL <= previous - now <= _RATE_TOL
        ):
            for _name, series in opened.values():
                series[-1][1] = previous
            opened.clear()
            # ``nonzero`` iterates in column order.
            busy = [key for key, count in nonzero.items() if count > 0]
            accounting.moved = set()
        else:
            busy = []
            fresh = []
            for key in moved:
                if nonzero[key] <= 0:
                    entry = opened.pop(key, None)
                    if entry is not None:
                        entry[1][-1][1] = previous
                    continue
                entry = opened.get(key)
                if entry is None:
                    (busy if key in series_of else fresh).append(key)
                    continue
                # Open, so contiguous: its end is ``previous`` until read.
                name, series = entry
                rate = loads[key]
                if rate < 0.0:
                    rate = 0.0
                capacities[name] = links[key].capacity
                tol = _RATE_TOL * rate if rate > 1.0 else _RATE_TOL
                last = series[-1]
                if -tol <= last[2] - rate <= tol:
                    continue
                last[1] = previous
                series.append([now, end, rate])
            if fresh:
                # Only first-seen links add keys; they go in column order.
                fresh.sort(key=accounting.columns.__getitem__)
                busy += fresh
            moved.clear()
        self._end = end

        for key in busy:
            rate = loads[key]
            if rate < 0.0:
                rate = 0.0
            entry = series_of.get(key)
            if entry is None:
                name = self.names[key]
                entry = series_of[key] = (
                    name,
                    self._segments.setdefault(name, []),
                )
            name, series = entry
            capacities[name] = links[key].capacity
            opened[key] = entry
            if series:
                last = series[-1]
                if -_RATE_TOL <= last[1] - now <= _RATE_TOL:
                    tol = _RATE_TOL * rate if rate > 1.0 else _RATE_TOL
                    if -tol <= last[2] - rate <= tol:
                        last[1] = end
                        continue
            series.append([now, end, rate])

    def utilization_series(self, key: str) -> List[Tuple[float, float, float]]:
        """(start, end, utilization-fraction) segments of one link."""
        capacity = self.capacities.get(key)
        if not capacity:
            return []
        return [(s, e, r / capacity) for s, e, r in self.segments.get(key, [])]

    def stats(self, horizon: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        """Per-link peak/mean utilization and busy time.

        ``mean_utilization`` is time-weighted over ``horizon`` (the run
        length); when omitted, over the link's own observed window.
        """
        out: Dict[str, Dict[str, float]] = {}
        for key, series in sorted(self.segments.items()):
            capacity = self.capacities[key]
            peak = 0.0
            byte_integral = 0.0
            busy = 0.0
            observed_end = 0.0
            for start, end, rate in series:
                duration = end - start
                utilization = rate / capacity
                if utilization > peak:
                    peak = utilization
                byte_integral += rate * duration
                if rate > 0:
                    busy += duration
                if end > observed_end:
                    observed_end = end
            window = horizon if horizon and horizon > 0 else observed_end
            out[key] = {
                "capacity": capacity,
                "peak_utilization": peak,
                "mean_utilization": (
                    byte_integral / (capacity * window) if window > 0 else 0.0
                ),
                "busy_seconds": busy,
                "bytes_carried": byte_integral,
            }
        return out


class FlowRateRecorder:
    """Bounded-memory per-flow allocated-rate interval history.

    The tardiness-attribution math in :mod:`repro.obs.diagnosis` needs to
    know, for every flow, *when it held which rate*: contention is the
    integral of a contender's rate over the victim's lifetime. The
    recorder listens to the network's ``on_rates_applied`` hook (fired
    only for flows whose rate actually changed, so recording cost tracks
    the dirty set, not the active set) and keeps one coalesced
    ``[start, end, rate]`` segment list per flow, plus the flow's pinned
    path as ``(link key, capacity)`` pairs.

    Memory is bounded by ``capacity`` *total segments*: once exceeded,
    the oldest-*finished* flows are evicted FIFO (in-flight flows are
    never dropped, so a live attribution query is always complete).
    ``evicted_flows`` counts the casualties so downstream consumers can
    report degraded coverage instead of silently wrong sums.
    """

    def __init__(self, capacity: int = DEFAULT_RATE_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: flow id -> [[start, end, rate], ...], nonzero-rate spans only.
        self.segments: Dict[int, List[List[float]]] = {}
        #: flow id -> ((link key, capacity), ...) of its pinned path.
        self.paths: Dict[int, Tuple[Tuple[str, float], ...]] = {}
        #: flow id -> [(since, path), ...] for flows a fault migrated; the
        #: admission path's epoch starts at -inf (see FlowFact.path_epochs).
        self.epochs: Dict[int, List[Tuple[float, Tuple[Tuple[str, float], ...]]]] = {}
        #: flow id -> [since, rate] of the currently-open span.
        self._open: Dict[int, List[float]] = {}
        self._finished: deque = deque()
        self.total_segments = 0
        self.evicted_flows = 0

    def on_admitted(
        self, flow_id: int, path: Tuple[Tuple[str, float], ...], now: float
    ) -> None:
        self.paths[flow_id] = path
        self.segments[flow_id] = []
        self._open[flow_id] = [now, 0.0]

    def on_rerouted(
        self, flow_id: int, path: Tuple[Tuple[str, float], ...], now: float
    ) -> None:
        """Pin ``path`` from ``now`` on, keeping the earlier path epochs."""
        old = self.paths.get(flow_id)
        if old is None:
            return
        self.on_rate_change(flow_id, now, 0.0)
        self.epochs.setdefault(flow_id, [(float("-inf"), old)]).append(
            (now, path)
        )
        self.paths[flow_id] = path

    def on_rates_applied(self, now: float, changed) -> None:
        """Close every changed flow's open span at ``now``; open the next.

        ``changed`` is the network's ``(flow id, state, new rate)`` list;
        flows the recorder never admitted are skipped. A closed span
        extends the flow's last segment when it continues it at the same
        rate, so a flow re-granted its rate costs no new segment.
        """
        spans = self._open
        segments = self.segments
        added = 0
        for flow_id, _state, rate in changed:
            span = spans.get(flow_id)
            if span is None:
                continue
            since, held = span
            if now > since and held > 0.0:
                series = segments[flow_id]
                if series and series[-1][1] == since and series[-1][2] == held:
                    series[-1][1] = now
                else:
                    series.append([since, now, held])
                    added += 1
            span[0] = now
            span[1] = rate
        self.total_segments += added

    def on_rate_change(self, flow_id: int, now: float, rate: float) -> None:
        self.on_rates_applied(now, ((flow_id, None, rate),))

    def on_finished(self, flow_id: int, finish: float) -> Optional[List[List[float]]]:
        """Seal a flow's history; returns its segments (pre-eviction).

        The returned list is the recorder's own and is never mutated
        again, so consumers may hold it without copying, read-only.
        """
        if flow_id not in self._open:
            return None
        self.on_rates_applied(finish, ((flow_id, None, 0.0),))
        del self._open[flow_id]
        self._finished.append(flow_id)
        series = self.segments[flow_id]
        while self.total_segments > self.capacity and self._finished:
            victim = self._finished.popleft()
            self.total_segments -= len(self.segments.pop(victim, ()))
            self.paths.pop(victim, None)
            self.epochs.pop(victim, None)
            self.evicted_flows += 1
        return series

    def rates_of(self, flow_id: int) -> List[List[float]]:
        """Recorded ``[start, end, rate]`` spans of one flow (or []).

        The recorder's own list, not a copy: treat it as read-only. A
        finished flow's list is sealed (never mutated again); an
        in-flight flow's list still grows.
        """
        return self.segments.get(flow_id, [])


class Instrumentation:
    """Observer attached to an engine run; see module docstring.

    Parameters
    ----------
    registry:
        Accumulation target; a fresh one is created when omitted.
    sample_links:
        Record per-link utilization timelines (the dominant memory cost;
        disable for huge runs where only counters matter).
    event_log:
        A :class:`JsonlEventLog` to stream structured events into, or
        ``None`` for no log.
    log_link_samples:
        Also mirror link utilization samples into the event log (off by
        default: one event per engine round gets bulky).
    record_rates:
        Keep per-flow allocated-rate intervals in a
        :class:`FlowRateRecorder` (the input to tardiness attribution in
        :mod:`repro.obs.diagnosis`). On by default; the cost is O(rate
        changes), bounded by ``rate_capacity`` retained segments.
    rate_capacity:
        Total-segment bound for the rate recorder; oldest-finished flows
        are evicted first once exceeded.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        sample_links: bool = True,
        event_log: Optional[JsonlEventLog] = None,
        log_link_samples: bool = False,
        record_rates: bool = True,
        rate_capacity: int = DEFAULT_RATE_CAPACITY,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.link_timeline = LinkTimeline() if sample_links else None
        #: Link.key -> "src->dst" for every hook; the timeline's own table
        #: when there is one, so each name is formatted once per run.
        self.link_names = (
            self.link_timeline.names
            if self.link_timeline is not None
            else LinkNames()
        )
        self.event_log = event_log
        self.log_link_samples = log_link_samples
        self.rate_recorder = (
            FlowRateRecorder(rate_capacity) if record_rates else None
        )
        #: group id -> [(finish time, tardiness)] in delivery order.
        self.tardiness_series: Dict[str, List[Tuple[float, float]]] = {}
        #: (job id, task id) -> the completed Task (deps, device, flows);
        #: feeds critical-path extraction without re-walking the DAGs.
        self.task_meta: Dict[Tuple[Optional[str], str], object] = {}
        self.job_arrivals: Dict[str, float] = {}
        self.job_completions: Dict[str, float] = {}
        #: Series the per-flow and per-round hooks touch, each resolved
        #: from the registry on its first use (see _bound), so the registry
        #: holds the same series as if every call looked it up by name.
        self._series: Dict[object, object] = {}
        #: Path (the router's cached Link tuple) -> its payload, shared
        #: read-only by every flow and event on that path. Dropped on any
        #: capacity change, since it records capacities.
        self._payloads: Dict[Tuple, _Payload] = {}
        #: Applied fault records, in firing order (mirrors obs "fault"
        #: events; feeds the diagnosis layer's fault section).
        self.fault_events: List[Dict] = []
        #: ResilientScheduler degradation records, in occurrence order.
        self.scheduler_fallbacks: List[Dict] = []
        #: Control-plane runtime records (quarantine, failover, degraded
        #: mode, ...), in emission order.
        self.control_events: List[Dict] = []
        #: flow id -> number of fault-driven path migrations.
        self.reroutes: Dict[int, int] = {}
        self.rounds = 0

    def _payload(self, path) -> _Payload:
        """The shared ``(key path, hop lists)`` of one pinned path."""
        payload = self._payloads.get(path)
        if payload is None:
            names = self.link_names
            key_path = tuple((names[link.key], link.capacity) for link in path)
            payload = self._payloads[path] = (
                key_path,
                [list(hop) for hop in key_path],
            )
        return payload

    def _bound(self, kind: str, name: str, /, **labels):
        """The registry's ``kind`` series ``name``, looked up there once.

        ``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"``; a
        histogram's ``buckets`` go with the labels. Later calls cost one
        lookup in a table keyed by the name and label values.
        """
        key = (name, *labels.values()) if labels else name
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = getattr(self.registry, kind)(
                name, **labels
            )
        return series

    # -- engine-facing hooks -------------------------------------------

    def on_flow_finished(self, record, now: float) -> None:
        flow = record.flow
        flow_id = flow.flow_id
        group = flow.group_id
        finish = record.finish
        ideal_finish = record.ideal_finish
        tardiness = None if ideal_finish is None else finish - ideal_finish
        bound = self._bound
        bound("counter", "flows_delivered_total").inc()
        bound("counter", "flow_bytes_delivered_total").inc(flow.size)
        bound("histogram", "flow_completion_seconds").observe(
            finish - record.start
        )
        if tardiness is not None and group is not None:
            self.tardiness_series.setdefault(group, []).append(
                (finish, tardiness)
            )
            bound("histogram", "flow_tardiness_seconds", group=group).observe(
                tardiness
            )
        log = self.event_log
        if log is not None:
            log.add({
                "ev": "flow_finished",
                "t": now,
                "flow_id": flow_id,
                "src": flow.src,
                "dst": flow.dst,
                "size": flow.size,
                "group": group,
                "index": flow.index_in_group,
                "job": flow.job_id,
                "tag": flow.tag,
                "start": record.start,
                "finish": finish,
                "ideal_finish": ideal_finish,
                "tardiness": tardiness,
            })
        if self.rate_recorder is not None:
            segments = self.rate_recorder.on_finished(flow_id, finish)
            if log is not None and segments is not None:
                # The recorder's sealed list itself: never mutated again.
                log.add({
                    "ev": "flow_rates",
                    "t": now,
                    "flow_id": flow_id,
                    "segments": segments,
                })

    def on_compute_span(self, span) -> None:
        self.registry.counter("compute_spans_total", device=span.device).inc()
        self.registry.counter("compute_busy_seconds_total").inc(span.duration)

    def on_reschedule(
        self, now: float, cause: str, active_flows: int
    ) -> None:
        # Named distinctly from the ProfiledScheduler's
        # "scheduler_invocations_total" so a shared registry never
        # double-counts when both layers observe the same engine.
        bound = self._bound
        bound("counter", "engine_reschedules_total", cause=cause).inc()
        bound("gauge", "active_flows").set(active_flows)
        bound(
            "histogram",
            "scheduler_active_flows",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
        ).observe(active_flows)
        if self.event_log is not None:
            self.event_log.add({
                "ev": "reschedule",
                "t": now,
                "cause": cause,
                "active_flows": active_flows,
            })

    def on_round(self, now: float, n_events: int, n_finished_flows: int) -> None:
        self.rounds += 1
        bound = self._bound
        bound("counter", "engine_rounds_total").inc()
        if n_events:
            bound("counter", "engine_events_total").inc(n_events)
        if n_finished_flows:
            bound("counter", "engine_flow_completions_total").inc(
                n_finished_flows
            )

    def on_job_arrival(self, job_id: str, now: float) -> None:
        self.registry.counter("jobs_arrived_total").inc()
        self.job_arrivals[job_id] = now
        if self.event_log is not None:
            self.event_log.append("job_arrival", now, job=job_id)

    def on_job_completed(self, job_id: str, now: float) -> None:
        self.registry.counter("jobs_completed_total").inc()
        self.job_completions[job_id] = now
        if self.event_log is not None:
            self.event_log.append("job_completed", now, job=job_id)

    def on_task_complete(self, task, now: float) -> None:
        """Any task (compute/comm/barrier) completed in a job DAG.

        The recorded dependency edges and flow memberships make the
        events log a self-contained artifact for critical-path
        extraction (the trace's TaskEvent carries neither).
        """
        kind = task.kind.value
        self._bound("counter", "tasks_completed_total", kind=kind).inc()
        self.task_meta[(task.job_id, task.task_id)] = task
        if self.event_log is not None:
            self.event_log.add({
                "ev": "task_finished",
                "t": now,
                "task": task.task_id,
                "kind": kind,
                "job": task.job_id,
                "device": task.device,
                "duration": task.duration,
                "deps": list(task.deps),
                "flow_ids": [flow.flow_id for flow in task.flows],
            })

    def on_fault(self, record: Dict, now: float) -> None:
        """A :class:`repro.faults.FaultInjector` event fired."""
        self.registry.counter(
            "faults_injected_total", action=record.get("action", "unknown")
        ).inc()
        self.fault_events.append(dict(record))
        if self.event_log is not None:
            self.event_log.append("fault", now, **record)

    def on_scheduler_fallback(self, record: Dict, now: float) -> None:
        """A ResilientScheduler degraded one invocation to its fallback."""
        self.registry.counter(
            "scheduler_fallbacks_total", kind=record.get("kind", "unknown")
        ).inc()
        self.scheduler_fallbacks.append(dict(record))
        if self.event_log is not None:
            self.event_log.append("scheduler_fallback", now, **record)

    def on_control_event(self, record: Dict, now: float) -> None:
        """The control-plane runtime logged a lifecycle event.

        ``record["kind"]`` names it (``quarantine``, ``readopt``,
        ``resync``, ``failover``, ``degraded_enter``, ``degraded_exit``,
        ``checkpoint``, ``registration_deferred``); the rest of the
        record carries event-specific fields.
        """
        self.registry.counter(
            "control_events_total", kind=record.get("kind", "unknown")
        ).inc()
        self.control_events.append(dict(record))
        if self.event_log is not None:
            self.event_log.append("control", now, **record)

    # -- network-facing hooks (NetworkModel.observer) -------------------

    def on_flow_injected(self, flow, path, now: float) -> None:
        """The network admitted ``flow`` and pinned ``path`` for it."""
        self._bound("counter", "flows_injected_total").inc()
        recorder = self.rate_recorder
        log = self.event_log
        if recorder is None and log is None:
            return
        key_path, hops = self._payload(path)
        if recorder is not None:
            recorder.on_admitted(flow.flow_id, key_path, now)
        if log is not None:
            log.add({
                "ev": "flow_injected",
                "t": now,
                "flow_id": flow.flow_id,
                "src": flow.src,
                "dst": flow.dst,
                "size": flow.size,
                "group": flow.group_id,
                "index": flow.index_in_group,
                "job": flow.job_id,
                "tag": flow.tag,
                "path": hops,
            })

    def on_rates_applied(self, now: float, changed) -> None:
        """``changed`` is the network's (flow id, state, new rate) list."""
        if self.rate_recorder is not None:
            self.rate_recorder.on_rates_applied(now, changed)

    def on_flow_rerouted(self, flow_id: int, old_path, new_path, now: float) -> None:
        """A fault migrated an in-flight flow onto a new path."""
        self.registry.counter("flows_rerouted_total").inc()
        self.reroutes[flow_id] = self.reroutes.get(flow_id, 0) + 1
        key_path, hops = self._payload(new_path)
        if self.rate_recorder is not None:
            # The migrated flow restarts at rate 0 on the new path; the
            # recorder closes its open span so no old-path rate bleeds
            # past the fault, and opens a new path epoch.
            self.rate_recorder.on_rerouted(flow_id, key_path, now)
        if self.event_log is not None:
            names = self.link_names
            self.event_log.append(
                "flow_rerouted",
                now,
                flow_id=flow_id,
                old_path=[names[link.key] for link in old_path],
                new_path=[name for name, _capacity in key_path],
                path=hops,
            )

    def on_link_capacity(self, link, now: float) -> None:
        """A fault or repair set ``link``'s capacity.

        Payloads record capacities, so every cached one is dropped.
        """
        self._payloads.clear()

    def on_network_advance(self, now: float, dt: float, accounting) -> None:
        """``accounting`` is the network's residual LinkAccounting."""
        if self.link_timeline is not None:
            self.link_timeline.sample(now, dt, accounting)
        if self.event_log is not None and self.log_link_samples:
            usage = accounting.usage()
            if not usage:
                return
            # ``caps`` mirrors the live capacity per sampled link so
            # offline consumers (the watch loop's degrade telemetry) can
            # recover absolute rates and spot capacity drops; utilization
            # alone is blind to a link renegotiating to a lower speed.
            links: Dict[str, float] = {}
            caps: Dict[str, float] = {}
            names = self.link_names
            for link, rate in usage.items():
                key = names[link.key]
                capacity = link.capacity
                links[key] = rate / capacity if capacity > 0 else 0.0
                caps[key] = capacity
            self.event_log.append(
                "link_sample", now, dt=dt, links=links, caps=caps
            )

    # -- derived views --------------------------------------------------

    def link_stats(self, horizon: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        if self.link_timeline is None:
            return {}
        return self.link_timeline.stats(horizon)

    def reschedules_by_cause(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for labels in self.registry.labels_of("engine_reschedules_total"):
            cause = labels.get("cause", "unknown")
            counts[cause] = counts.get(cause, 0) + int(
                self.registry.counter_value(
                    "engine_reschedules_total", cause=cause
                )
            )
        return dict(sorted(counts.items()))

    def worst_tardiness_by_group(self) -> Dict[str, float]:
        return {
            group: max(t for _, t in series)
            for group, series in sorted(self.tardiness_series.items())
            if series
        }

"""Normalized run artifacts: the single input shape for diagnosis.

Diagnosis must run purely from recorded artifacts -- a saved JSONL
events log (``--events-out``) or the in-memory trace + instrumentation
of a run that just finished -- without re-simulating anything. This
module normalizes both sources into one :class:`RunArtifacts` value:
per-flow facts (endpoints, sizes, deadlines, pinned paths, allocated-
rate intervals) and per-task facts (dependency edges, devices,
durations, flow memberships), plus job arrival/completion times.

The JSONL log is the self-contained on-disk artifact: ``flow_injected``
events carry the pinned path, ``flow_rates`` events carry the rate
segments, and ``task_finished`` events carry the dependency edges --
none of which the plain trace JSON records.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..jsonl import read_jsonl

_INF = float("inf")

#: ``dataclass`` options of the per-flow records: ``__slots__`` where the
#: interpreter supports them (3.10+), which makes the thousands built per
#: report smaller and faster to fill.
SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: A pinned path as ((link key, capacity), ...).
PinnedPath = Tuple[Tuple[str, float], ...]


@dataclass(**SLOTS)
class FlowFact:
    """Everything diagnosis knows about one flow."""

    flow_id: int
    src: Optional[str] = None
    dst: Optional[str] = None
    size: Optional[float] = None
    group: Optional[str] = None
    index: int = 0
    job: Optional[str] = None
    tag: str = ""
    start: Optional[float] = None
    finish: Optional[float] = None
    ideal_finish: Optional[float] = None
    #: Pinned path as ((link key, capacity), ...); empty when unrecorded.
    #: For a rerouted flow this is the last path it was pinned to.
    path: PinnedPath = ()
    #: Allocated-rate history as [start, end, rate] spans (nonzero only),
    #: in time order and disjoint: the recorder closes one span before
    #: opening the next, so ``segments[0][0]`` and ``segments[-1][1]``
    #: bound the flow's recorded extent.
    segments: List[List[float]] = field(default_factory=list)
    #: Path epochs of a flow a fault migrated, as ((since, path), ...) in
    #: time order: each path was pinned from its ``since`` until the next
    #: epoch's. The first epoch (the admission path) has ``since = -inf``
    #: and the last one's path is ``path``. Empty when the flow never
    #: moved, in which case ``path`` held for its whole life.
    path_epochs: Tuple[Tuple[float, PinnedPath], ...] = ()

    @property
    def delivered(self) -> bool:
        return self.finish is not None

    def path_spans(self) -> List[Tuple[float, float, PinnedPath]]:
        """``(since, until, path)`` for every path the flow was pinned to."""
        epochs = self.path_epochs
        if not epochs:
            return [(-_INF, _INF, self.path)]
        return [
            (since, epochs[i + 1][0] if i + 1 < len(epochs) else _INF, path)
            for i, (since, path) in enumerate(epochs)
        ]

    @property
    def tardiness(self) -> Optional[float]:
        if self.finish is None or self.ideal_finish is None:
            return None
        return self.finish - self.ideal_finish

    @property
    def stage(self) -> str:
        """Human-stable label: the tag, else group#index, else the id."""
        if self.tag:
            return self.tag
        if self.group is not None:
            return f"{self.group}#{self.index}"
        return f"flow{self.flow_id}"

    @property
    def structural_key(self) -> Tuple:
        """Id-free identity, stable across runs of the same workload.

        Flow ids come from a global counter, so two runs of one workload
        number their flows differently; cross-run matching (run-diff)
        keys on what the flow *is* instead.
        """
        return (
            self.src,
            self.dst,
            self.size,
            self.group or "",
            self.index,
            self.job or "",
            self.tag,
        )


@dataclass
class TaskFact:
    """One completed DAG task, with the edges diagnosis walks."""

    task_id: str
    job: Optional[str]
    kind: str
    completed: float
    device: Optional[str] = None
    duration: float = 0.0
    deps: Tuple[str, ...] = ()
    flow_ids: Tuple[int, ...] = ()


@dataclass
class RunArtifacts:
    """One run, normalized for diagnosis; see module docstring."""

    flows: Dict[int, FlowFact] = field(default_factory=dict)
    #: (job id, task id) -> TaskFact.
    tasks: Dict[Tuple[Optional[str], str], TaskFact] = field(
        default_factory=dict
    )
    job_arrivals: Dict[str, float] = field(default_factory=dict)
    job_completions: Dict[str, float] = field(default_factory=dict)
    #: Injected fault records, in firing order (chaos layer).
    faults: List[Dict] = field(default_factory=list)
    #: Scheduler fallback records (graceful degradation events).
    scheduler_fallbacks: List[Dict] = field(default_factory=list)
    #: flow id -> number of mid-run path migrations.
    reroutes: Dict[int, int] = field(default_factory=dict)
    end_time: float = 0.0
    source: str = "events"
    meta: Dict = field(default_factory=dict)

    # -- derived views --------------------------------------------------

    def delivered_flows(self) -> List[FlowFact]:
        """Every delivered flow, in flow-id order."""
        flows = self.flows
        return [
            flow
            for flow in map(flows.__getitem__, sorted(flows))
            if flow.finish is not None
        ]

    def flows_of_job(self, job: Optional[str]) -> List[FlowFact]:
        return [f for f in self.delivered_flows() if f.job == job]

    def tasks_of_job(self, job: Optional[str]) -> Dict[str, TaskFact]:
        return {
            task_id: fact
            for (job_id, task_id), fact in self.tasks.items()
            if job_id == job
        }

    def jobs(self) -> List[str]:
        """Every job id seen, in deterministic order."""
        seen = set()
        for fact in self.tasks.values():
            if fact.job is not None:
                seen.add(fact.job)
        for flow in self.flows.values():
            if flow.job is not None:
                seen.add(flow.job)
        seen.update(self.job_arrivals)
        seen.update(self.job_completions)
        return sorted(seen)

    def job_completion(self, job: str) -> Optional[float]:
        """Completion time: recorded event, else last task, else last flow."""
        if job in self.job_completions:
            return self.job_completions[job]
        times = [
            fact.completed
            for (job_id, _), fact in self.tasks.items()
            if job_id == job
        ]
        if times:
            return max(times)
        finishes = [
            f.finish for f in self.flows.values()
            if f.job == job and f.finish is not None
        ]
        return max(finishes) if finishes else None

    def flows_on_link(self) -> Dict[str, List[FlowFact]]:
        """link key -> delivered flows pinned to a path crossing it.

        Each list is in flow-id order; a rerouted flow is listed once under
        every link of every path it was pinned to.
        """
        return group_by_link(self.delivered_flows())

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Dict], source: str = "events") -> "RunArtifacts":
        """Normalize a JSONL event stream (see repro.obs.jsonl)."""
        artifacts = cls(source=source)
        flows = artifacts.flows
        end = 0.0
        for event in events:
            kind = event.get("ev")
            t = event.get("t")
            if isinstance(t, (int, float)):
                end = max(end, t)
            if kind == "flow_injected":
                fact = flows.setdefault(
                    event["flow_id"], FlowFact(flow_id=event["flow_id"])
                )
                fact.src = event.get("src")
                fact.dst = event.get("dst")
                fact.size = event.get("size")
                fact.group = event.get("group")
                fact.index = event.get("index", 0)
                fact.job = event.get("job")
                fact.tag = event.get("tag", "") or ""
                fact.start = t
                path = event.get("path")
                if path:
                    fact.path = tuple(
                        (str(key), float(capacity)) for key, capacity in path
                    )
            elif kind == "flow_finished":
                fact = flows.setdefault(
                    event["flow_id"], FlowFact(flow_id=event["flow_id"])
                )
                # flow_finished repeats the identity fields, so a log whose
                # ring evicted the injection event still yields a full fact.
                fact.src = event.get("src", fact.src)
                fact.dst = event.get("dst", fact.dst)
                fact.size = event.get("size", fact.size)
                fact.group = event.get("group", fact.group)
                fact.index = event.get("index", fact.index)
                fact.job = event.get("job", fact.job)
                fact.tag = event.get("tag", fact.tag) or ""
                if event.get("start") is not None:
                    fact.start = event["start"]
                fact.finish = event.get("finish")
                fact.ideal_finish = event.get("ideal_finish")
            elif kind == "flow_rates":
                fact = flows.setdefault(
                    event["flow_id"], FlowFact(flow_id=event["flow_id"])
                )
                fact.segments = [list(s) for s in event.get("segments", ())]
            elif kind == "task_finished":
                fact = TaskFact(
                    task_id=event["task"],
                    job=event.get("job"),
                    kind=event.get("kind", "compute"),
                    completed=t,
                    device=event.get("device"),
                    duration=event.get("duration", 0.0) or 0.0,
                    deps=tuple(event.get("deps", ())),
                    flow_ids=tuple(event.get("flow_ids", ())),
                )
                artifacts.tasks[(fact.job, fact.task_id)] = fact
            elif kind == "job_arrival":
                artifacts.job_arrivals[event.get("job")] = t
            elif kind == "job_completed":
                artifacts.job_completions[event.get("job")] = t
            elif kind == "fault":
                artifacts.faults.append(
                    {k: v for k, v in event.items() if k != "ev"}
                )
            elif kind == "scheduler_fallback":
                artifacts.scheduler_fallbacks.append(
                    {k: v for k, v in event.items() if k != "ev"}
                )
            elif kind == "flow_rerouted":
                flow_id = event.get("flow_id")
                if flow_id is not None:
                    artifacts.reroutes[flow_id] = (
                        artifacts.reroutes.get(flow_id, 0) + 1
                    )
                fact = flows.get(flow_id)
                path = event.get("path")
                if fact is not None and fact.path and path:
                    new_path = tuple(
                        (str(key), float(capacity)) for key, capacity in path
                    )
                    fact.path_epochs = (
                        fact.path_epochs or ((-_INF, fact.path),)
                    ) + ((t, new_path),)
                    fact.path = new_path
        artifacts.end_time = end
        return artifacts

    @classmethod
    def from_jsonl(cls, path: str) -> "RunArtifacts":
        return cls.from_events(read_jsonl(path), source=path)

    @classmethod
    def from_run(cls, trace, instrumentation=None) -> "RunArtifacts":
        """Normalize an in-memory trace (+ optional Instrumentation).

        Without instrumentation only the trace's facts are available:
        flows lack paths/rate segments (attribution degrades to the
        upstream term) and tasks lack dependency edges (no critical
        path). With it, everything the events log would carry is here.
        """
        artifacts = cls(source="run")
        recorder = getattr(instrumentation, "rate_recorder", None)
        task_meta = getattr(instrumentation, "task_meta", {}) or {}
        flows = artifacts.flows
        if recorder is not None:
            paths = recorder.paths
            segments = recorder.segments
            epochs = recorder.epochs
        else:
            paths = segments = epochs = {}
        for record in trace.flow_records:
            flow = record.flow
            flow_id = flow.flow_id
            moved = epochs.get(flow_id)
            # The recorder's own segment lists, sealed once a flow is
            # delivered (see FlowRateRecorder.rates_of): held, not copied.
            flows[flow_id] = FlowFact(
                flow_id,
                flow.src,
                flow.dst,
                flow.size,
                flow.group_id,
                flow.index_in_group,
                flow.job_id,
                flow.tag,
                record.start,
                record.finish,
                record.ideal_finish,
                paths.get(flow_id, ()),
                segments.get(flow_id) or [],
                tuple(moved) if moved else (),
            )
        tasks = artifacts.tasks
        for event in trace.task_events:
            key = (event.job_id, event.task_id)
            meta = task_meta.get(key)
            if meta is None:
                tasks[key] = TaskFact(
                    event.task_id, event.job_id, event.kind, event.time
                )
                continue
            tasks[key] = TaskFact(
                event.task_id,
                event.job_id,
                event.kind,
                event.time,
                meta.device,
                meta.duration or 0.0,
                tuple(meta.deps),
                tuple([flow.flow_id for flow in meta.flows]),
            )
        if instrumentation is not None:
            artifacts.job_arrivals = dict(
                getattr(instrumentation, "job_arrivals", {}) or {}
            )
            artifacts.job_completions = dict(
                getattr(instrumentation, "job_completions", {}) or {}
            )
            artifacts.faults = [
                dict(r)
                for r in getattr(instrumentation, "fault_events", ()) or ()
            ]
            artifacts.scheduler_fallbacks = [
                dict(r)
                for r in getattr(
                    instrumentation, "scheduler_fallbacks", ()
                ) or ()
            ]
            artifacts.reroutes = dict(
                getattr(instrumentation, "reroutes", {}) or {}
            )
        artifacts.end_time = trace.end_time
        if recorder is not None and recorder.evicted_flows:
            artifacts.meta["evicted_flows"] = recorder.evicted_flows
        return artifacts


def group_by_link(flows: Iterable[FlowFact]) -> Dict[str, List[FlowFact]]:
    """link key -> the ``flows`` pinned to a path crossing it.

    Each list keeps the order of ``flows``; a rerouted flow is listed
    once under every link of every path it was pinned to.
    """
    out: Dict[str, List[FlowFact]] = {}
    for flow in flows:
        if flow.path_epochs:
            keys = dict.fromkeys(
                key for _, path in flow.path_epochs for key, _ in path
            )
        else:
            keys = [key for key, _capacity in flow.path]
        for key in keys:
            series = out.get(key)
            if series is None:
                out[key] = [flow]
            else:
                series.append(flow)
    return out

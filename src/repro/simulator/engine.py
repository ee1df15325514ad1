"""The discrete-event co-simulation engine.

The engine executes one or more job DAGs against a shared network:

1. Ready compute tasks run on their devices (serialized per device).
2. Ready comm tasks inject their flows into the fluid network model.
3. Whenever state changes (task or flow completion, job arrival), the
   scheduler is re-invoked to produce a fresh rate allocation -- matching
   the paper's note that coordinator algorithms "rerun per EchelonFlow
   arrival/departure or per scheduling interval".
4. Time advances to the earlier of the next discrete event and the next
   flow completion under the current rates.

EchelonFlow bookkeeping: jobs register their EchelonFlows with the engine;
when a group's head flow starts, the group's reference time is pinned and
ideal finish times become available to the scheduler and the trace.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.echelonflow import EchelonFlow
from ..core.flow import Flow, FlowState, current_flow_id_allocator
from ..core.units import EPS
from ..scheduling.base import Scheduler, SchedulerView
from ..topology.graph import Topology
from ..topology.routing import ShortestPathRouter
from .compute import Device
from .dag import Task, TaskDag, TaskKind
from .events import EventKind, EventQueue
from .network import NetworkModel
from .trace import ComputeSpan, FlowRecord, SimulationTrace, TaskEvent

#: Events closer together than this are processed in the same round.
TIME_EPS = 1e-9

#: A run fails fast after this many consecutive rounds in which the clock
#: did not move, no event fired and no flow retired. Such a round leaves
#: the engine exactly as it found it, so one is already a livelock; the
#: margin only keeps the check off any legitimate zero-time sequence.
STALL_ROUNDS = 1000

#: When several state changes coalesce into one scheduling round, the
#: invocation is attributed to the highest-precedence cause: a network
#: fault outranks a flow arrival, which outranks a departure, a bare
#: compute completion, the interval tick, and generic timers.
_CAUSE_PRECEDENCE = ("fault", "arrival", "departure", "compute", "tick", "timer")
_CAUSE_RANK = {cause: rank for rank, cause in enumerate(_CAUSE_PRECEDENCE)}


class SimulationError(Exception):
    """Raised on deadlock or an internally inconsistent run."""


class Engine:
    """Co-simulates compute DAGs and network flows under one scheduler."""

    def __init__(
        self,
        topology: Topology,
        scheduler: Scheduler,
        router=None,
        strict_rates: bool = True,
        device_slots=1,
        scheduling_interval: Optional[float] = None,
        instrumentation=None,
        sanitizer=None,
        faults=None,
        allocation: str = "auto",
    ) -> None:
        """``device_slots`` sets per-device MIG slot counts: an int applies
        to every device, a mapping overrides per device name.

        ``scheduling_interval``: when ``None`` (default) the scheduler is
        re-invoked on every state change (per flow arrival/departure, the
        paper's first rerun policy). When set, departures no longer
        trigger rescheduling; instead the coordinator reruns on arrivals
        and on a fixed tick -- Section 5's "per scheduling interval" mode,
        which trades bandwidth left idle between ticks for far fewer
        coordinator invocations.

        ``instrumentation``: an optional
        :class:`repro.obs.instrumentation.Instrumentation` observer; the
        engine notifies it of flow/job lifecycle events and scheduler
        invocations, and installs it as the network model's observer for
        admissions, rate changes and link-utilization sampling. ``None``
        (default) records nothing and costs one attribute check per hook
        site.

        ``sanitizer``: a :class:`repro.check.Sanitizer` (or a
        ``REPRO_CHECK``-style spec string) checking runtime invariants at
        event boundaries. ``None`` (default) consults the process-wide
        default -- set by the ``REPRO_CHECK`` env var, the ``--check``
        CLI flag, or ``repro.check.configure`` -- so sanitized runs need
        no per-engine wiring; pass ``False`` to force checking off
        regardless of the process default. Uses the same zero-overhead
        hook pattern as ``instrumentation``.

        ``allocation``: the max-min kernel. ``"scalar"`` keeps the
        pure-Python kernel; ``"vector"`` runs the numpy dense kernel with
        bulk rate application (raises if numpy is missing); ``"auto"``
        (default) switches to the vector kernel above
        :data:`~repro.simulator.vector.VECTOR_AUTO_THRESHOLD` active
        flows. All three are bit-identical -- same traces, same rates at
        every invocation -- enforced by the twin oracle and the
        equivalence suites; only the cost differs.

        Every event sharing a timestamp is absorbed into one round -- one
        scheduler invocation, one ``set_rates`` -- via
        ``EventQueue.pop_batch``.

        ``faults``: an optional chaos schedule -- a
        :class:`repro.faults.FaultSchedule`, a spec string (see
        :func:`repro.faults.parse_fault_spec`), or a prepared
        :class:`repro.faults.FaultInjector`. The injector arms
        ``EventKind.FAULT`` events that mutate link capacities, block
        routes, reroute in-flight flows, and (for ``crash_scheduler``)
        poison the next scheduler invocation; each fault triggers a
        reschedule attributed to the ``fault`` cause.
        """
        self.topology = topology
        self.scheduler = scheduler
        self.network = NetworkModel(
            topology,
            router or ShortestPathRouter(topology),
            strict=strict_rates,
            allocation=allocation,
        )
        self.events = EventQueue()
        self.devices: Dict[str, Device] = {}
        self._device_slots = device_slots
        self.echelonflows: Dict[str, EchelonFlow] = {}
        self.now = 0.0
        self.trace = SimulationTrace()
        # Per-task runtime bookkeeping, namespaced by (job_id, task_id).
        self._dags: Dict[str, TaskDag] = {}
        self._pending_deps: Dict[Tuple[str, str], int] = {}
        self._comm_outstanding: Dict[Tuple[str, str], int] = {}
        self._flow_owner: Dict[int, Tuple[str, str]] = {}
        self._tasks_left: Dict[str, int] = {}
        self._completed_jobs: List[str] = []
        self._needs_reschedule = False
        #: Causes accumulated since the last scheduler invocation.
        self._pending_causes: set = set()
        #: Not-yet-fired background-arrival batches, keyed by exact
        #: timestamp (one coalesced event per distinct injection time).
        self._pending_background: Dict[float, List[Flow]] = {}
        #: Persistent SchedulerView, built on the first invocation and
        #: refreshed on every later one.
        self._view: Optional[SchedulerView] = None
        #: Flow ids injected/departed since the scheduler last ran.
        self._delta_injected: List[int] = []
        self._delta_departed: List[int] = []
        #: group id -> active states still awaiting an ideal finish time
        #: (their EchelonFlow's reference is not pinned yet). Lets a
        #: freshly-pinned reference date exactly these states instead of
        #: rescanning every active flow.
        self._undated: Dict[str, List[FlowState]] = {}
        self.obs = instrumentation
        if instrumentation is not None:
            self.network.observer = instrumentation
        if sanitizer is None:
            # Deferred import: repro.check sits on top of the simulator.
            from ..check import default_sanitizer

            sanitizer = default_sanitizer()
        elif sanitizer is False:
            sanitizer = None
        elif isinstance(sanitizer, str):
            from ..check import make_sanitizer

            sanitizer = make_sanitizer(sanitizer)
        #: Optional repro.check Sanitizer; hooks cost one attribute test
        #: per site when absent, exactly like ``obs``.
        self.check = sanitizer
        if self.check is not None:
            self.check.attach(self)
        # Give wrapper schedulers (ResilientScheduler) an engine handle
        # for obs logging and fallback bookkeeping; walk the wrapper
        # chain so profiling/memoizing layers stay transparent.
        layer = scheduler
        seen = set()
        while layer is not None and id(layer) not in seen:
            seen.add(id(layer))
            hook = getattr(layer, "on_attached", None)
            if hook is not None:
                hook(self)
            layer = getattr(layer, "inner", None)
        if faults is not None and faults is not False:
            # Deferred import: repro.faults sits on top of the simulator.
            from ..faults import FaultInjector, FaultSchedule

            if isinstance(faults, str):
                faults = FaultInjector(FaultSchedule.parse(faults))
            elif isinstance(faults, (list, dict)):
                faults = FaultInjector(FaultSchedule.from_json(faults))
            elif isinstance(faults, FaultSchedule):
                faults = FaultInjector(faults)
            faults.attach(self)
        else:
            faults = None
        #: Optional repro.faults FaultInjector bound to this run.
        self.faults = faults
        if scheduling_interval is not None and scheduling_interval <= 0:
            raise ValueError(
                f"scheduling_interval must be positive, got {scheduling_interval}"
            )
        self.scheduling_interval = scheduling_interval
        self._tick_armed = False
        self._tick_event = None
        #: Number of scheduler invocations (coordinator cost accounting).
        self.scheduler_invocations = 0
        #: Called with the job id whenever a job's last task completes --
        #: lets cluster managers release placements and admit queued jobs.
        self.job_completion_callbacks: List[Callable[[str], None]] = []
        #: Engine-scoped flow-id allocator. Defaults to the process-wide
        #: one (so independently-built workloads keep working unchanged);
        #: forks get a private clone so flows submitted to sibling forks
        #: draw identical, collision-free ids. Wrap workload factories in
        #: ``use_flow_id_allocator(engine.flow_ids)`` to target it.
        self.flow_ids = current_flow_id_allocator()
        #: Bumped per snapshot; stamped into the returned StateHandle.
        self.state_version = 0
        #: True while run() is on the stack; snapshots are only legal
        #: between run() calls.
        self._in_run = False

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------

    def register_echelonflow(self, echelonflow: EchelonFlow) -> None:
        if echelonflow.ef_id in self.echelonflows:
            raise ValueError(f"duplicate EchelonFlow id {echelonflow.ef_id!r}")
        self.echelonflows[echelonflow.ef_id] = echelonflow

    def submit(
        self,
        dag: TaskDag,
        at_time: float = 0.0,
        echelonflows: Tuple[EchelonFlow, ...] = (),
    ) -> None:
        """Queue a job DAG for execution at ``at_time``."""
        if dag.job_id in self._dags:
            raise ValueError(f"duplicate job id {dag.job_id!r}")
        if at_time < self.now - TIME_EPS:
            raise ValueError(
                f"cannot submit job {dag.job_id!r} in the past "
                f"({at_time} < {self.now})"
            )
        dag.topological_order()  # validates acyclicity
        self._dags[dag.job_id] = dag
        for echelonflow in echelonflows:
            self.register_echelonflow(echelonflow)
        for device_name in dag.devices():
            if device_name not in self.devices:
                if isinstance(self._device_slots, int):
                    slots = self._device_slots
                else:
                    slots = self._device_slots.get(device_name, 1)
                self.devices[device_name] = Device(device_name, slots=slots)
        self.events.push(at_time, EventKind.JOB_ARRIVAL, payload=dag.job_id)

    def schedule_callback(self, time: float, callback: Callable[[], None]):
        """Run an arbitrary callback at a future time (fault/traffic injection)."""
        return self.events.push(
            time, EventKind.TIMER, callback=lambda _event: callback()
        )

    def schedule_fault(self, time: float, callback: Callable[[], None]):
        """Arm a fault callback: fires as a ``FAULT`` event (before arrivals
        and timers at the same instant) and attributes the resulting
        reschedule to the ``fault`` cause."""
        return self.events.push(
            time, EventKind.FAULT, callback=lambda _event: callback()
        )

    def inject_background_flow(self, flow: Flow, at_time: float) -> None:
        """Inject a standalone flow (background traffic) at a future time.

        Same-timestamp injections coalesce into one arrival event holding
        the whole batch (in registration order), so a 100k-flow warmup
        admits through one event instead of 100k heap entries. The batch
        is keyed by exact timestamp and sealed when its event fires;
        injections scheduled for that time afterwards open a fresh batch.
        """
        batch = self._pending_background.get(at_time)
        if batch is not None:
            batch.append(flow)
            return
        batch = [flow]
        self._pending_background[at_time] = batch

        def _inject() -> None:
            self._pending_background.pop(at_time, None)
            for queued in batch:
                self._inject_flow(queued, owner=None)

        self.schedule_callback(at_time, _inject)

    # ------------------------------------------------------------------
    # internals: task lifecycle
    # ------------------------------------------------------------------

    def _request_reschedule(self, cause: str) -> None:
        """Mark the scheduler stale, remembering why (for profiling)."""
        self._needs_reschedule = True
        self._pending_causes.add(cause)

    def _start_job(self, job_id: str) -> None:
        dag = self._dags[job_id]
        if self.obs is not None:
            self.obs.on_job_arrival(job_id, self.now)
        self._tasks_left[job_id] = len(dag)
        for task in dag.tasks():
            key = (job_id, task.task_id)
            self._pending_deps[key] = len(task.deps)
        for root in dag.roots():
            self._task_ready(dag, dag.task(root))

    def _task_ready(self, dag: TaskDag, task: Task) -> None:
        if task.kind is TaskKind.COMPUTE:
            device = self.devices[task.device]
            device.enqueue(task)
            self._try_start_device(device)
        elif task.kind is TaskKind.COMM:
            key = (dag.job_id, task.task_id)
            self._comm_outstanding[key] = len(task.flows)
            # Inject in arrangement order so the head flow (index 0) pins
            # the reference time before its followers are observed.
            for flow in sorted(task.flows, key=lambda f: (f.index_in_group, f.flow_id)):
                self._flow_owner[flow.flow_id] = key
                self._inject_flow(flow, owner=key)
        else:  # barrier
            self._complete_task(dag, task)

    def _inject_flow(self, flow: Flow, owner: Optional[Tuple[str, str]]) -> None:
        state = self.network.inject(flow, self.now)
        self._delta_injected.append(flow.flow_id)
        group = self.echelonflows.get(flow.group_id) if flow.group_id else None
        if group is not None:
            group.observe_flow_start(flow, self.now)
            if group.reference_time is not None:
                state.ideal_finish_time = group.ideal_finish_time_of(flow)
                # A freshly-pinned reference also dates earlier members:
                # exactly the group's undated states, tracked per group.
                undated = self._undated.pop(flow.group_id, None)
                if undated:
                    for other in undated:
                        if other.ideal_finish_time is None:
                            other.ideal_finish_time = group.ideal_finish_time_of(
                                other.flow
                            )
            else:
                self._undated.setdefault(flow.group_id, []).append(state)
        if self.check is not None:
            self.check.on_flow_injected(state, self.now)
        self._request_reschedule("arrival")

    def _try_start_device(self, device: Device) -> None:
        # Fill every free slot (one pass suffices: start_next returns None
        # once slots or queue are exhausted).
        while True:
            started = device.start_next(self.now)
            if started is None:
                return
            task, finish_time = started
            self.events.push(finish_time, EventKind.COMPUTE_DONE, payload=task)

    def _complete_task(self, dag: TaskDag, task: Task) -> None:
        job_id = dag.job_id
        self.trace.task_events.append(
            TaskEvent(
                task_id=task.task_id,
                kind=task.kind.value,
                time=self.now,
                job_id=job_id,
            )
        )
        if self.obs is not None:
            self.obs.on_task_complete(task, self.now)
        if self.check is not None:
            self.check.on_task_complete(dag, task, self.now)
        self._tasks_left[job_id] -= 1
        if self._tasks_left[job_id] == 0:
            self._completed_jobs.append(job_id)
            if self.obs is not None:
                self.obs.on_job_completed(job_id, self.now)
            for callback in self.job_completion_callbacks:
                callback(job_id)
        for successor_id in dag.successors(task.task_id):
            key = (job_id, successor_id)
            self._pending_deps[key] -= 1
            if self._pending_deps[key] == 0:
                self._task_ready(dag, dag.task(successor_id))

    def _on_compute_done(self, task: Task) -> None:
        device = self.devices[task.device]
        device.finish_task(task.task_id, self.now, job_id=task.job_id)
        span = ComputeSpan(
            task_id=task.task_id,
            device=task.device,
            start=self.now - task.duration,
            end=self.now,
            job_id=task.job_id,
            tag=task.tag,
        )
        self.trace.compute_spans.append(span)
        if self.obs is not None:
            self.obs.on_compute_span(span)
        self._complete_task(self._dags[task.job_id], task)
        self._try_start_device(device)
        self._request_reschedule("compute")

    def _arm_tick(self) -> None:
        if self._tick_armed or self.scheduling_interval is None:
            return
        self._tick_armed = True

        def _tick(_event) -> None:
            self._tick_armed = False
            self._request_reschedule("tick")

        self._tick_event = self.events.push(
            self.now + self.scheduling_interval, EventKind.TIMER, callback=_tick
        )

    def _cancel_tick(self) -> None:
        if self._tick_armed and getattr(self, "_tick_event", None) is not None:
            self._tick_event.cancelled = True
            self._tick_event = None
            self._tick_armed = False

    def _on_flow_finished(self, state: FlowState) -> None:
        flow = state.flow
        self._delta_departed.append(flow.flow_id)
        ideal = state.ideal_finish_time
        group = self.echelonflows.get(flow.group_id) if flow.group_id else None
        if group is not None and group.reference_time is not None:
            ideal = group.ideal_finish_time_of(flow)
        if flow.group_id is not None and state.ideal_finish_time is None:
            # Retired while still awaiting its group's reference time.
            undated = self._undated.get(flow.group_id)
            if undated is not None:
                try:
                    undated.remove(state)
                except ValueError:
                    pass
                if not undated:
                    del self._undated[flow.group_id]
        record = FlowRecord(
            flow=flow,
            start=state.start_time,
            finish=state.finish_time if state.finish_time is not None else self.now,
            ideal_finish=ideal,
        )
        self.trace.flow_records.append(record)
        if self.obs is not None:
            self.obs.on_flow_finished(record, self.now)
        if self.check is not None:
            self.check.on_flow_finished(state, record, self.now)
        owner = self._flow_owner.pop(flow.flow_id, None)
        if owner is not None:
            self._comm_outstanding[owner] -= 1
            if self._comm_outstanding[owner] == 0:
                job_id, task_id = owner
                dag = self._dags[job_id]
                self._complete_task(dag, dag.task(task_id))
        if self.scheduling_interval is None:
            # Per-event policy: departures trigger an immediate rerun.
            self._request_reschedule("departure")
        # Interval policy: the freed capacity waits for the next tick
        # (already armed by the last reschedule).

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------

    def _reschedule(self) -> None:
        cause = self._primary_cause()
        if self._view is not None:
            view = self._view.refresh(
                self.now, cause, self._delta_injected, self._delta_departed
            )
        else:
            view = self._view = SchedulerView(
                now=self.now,
                network=self.network,
                echelonflows=self.echelonflows,
                trigger_cause=cause,
                injected_flows=tuple(self._delta_injected),
                departed_flows=tuple(self._delta_departed),
            )
        self._delta_injected.clear()
        self._delta_departed.clear()
        rates = self.scheduler.allocate(view)
        if self.check is not None:
            self.check.on_allocation(view, rates)
        self.network.set_rates(rates)
        self._needs_reschedule = False
        self._pending_causes.clear()
        self.scheduler_invocations += 1
        if self.obs is not None:
            self.obs.on_reschedule(self.now, cause, self.network.active_count)
        if self.check is not None:
            self.check.on_rates_applied(view)
        if self.network.active_count:
            self._arm_tick()

    def _primary_cause(self) -> str:
        """The highest-precedence pending cause (see _CAUSE_PRECEDENCE)."""
        if not self._pending_causes:
            return "unknown"
        return min(
            self._pending_causes,
            key=lambda c: _CAUSE_RANK.get(c, len(_CAUSE_PRECEDENCE)),
        )

    def run(self, until: float = float("inf"), max_rounds: int = 10_000_000) -> SimulationTrace:
        """Run to completion (or ``until``); returns the trace.

        Raises :class:`SimulationError` on deadlock: active flows exist but
        the scheduler assigns them all zero rate and no discrete event is
        pending.

        A run paused by ``until`` can be resumed by calling ``run`` again;
        end-of-run invariant checks (the sanitizer's ``on_run_end``) fire
        only when the run actually drains, so an ``until`` pause neither
        materializes lazy drain state nor perturbs the resumed run --
        pause/resume (and snapshot/fork at the pause point) is bit-exact.
        """
        self._in_run = True
        try:
            return self._run(until, max_rounds)
        finally:
            self._in_run = False

    def _run(self, until: float, max_rounds: int) -> SimulationTrace:
        rounds = 0
        stalled = 0
        paused = False
        while True:
            rounds += 1
            if rounds > max_rounds:
                raise SimulationError(f"exceeded {max_rounds} simulation rounds")

            if self._needs_reschedule and self.network.active_count:
                self._reschedule()

            next_event = self.events.peek_time()
            net_interval = self.network.earliest_finish_interval()
            next_network = self.now + net_interval
            next_time = min(next_event, next_network)

            if next_time == float("inf"):
                if self.network.active_count:
                    starving = [
                        str(s.flow) for s in self.network.active_states()
                    ]
                    raise SimulationError(
                        f"deadlock at t={self.now}: flows starving with zero "
                        f"rate and no pending events: {starving[:5]}"
                    )
                break
            if next_time > until:
                # Flows can cross their finish threshold short of their
                # projected finish; those retire at the pause instant.
                finished_flows = self.network.advance(until - self.now, self.now)
                self.now = until
                for state in finished_flows:
                    self._on_flow_finished(state)
                paused = True
                break

            # Advance the fluid model to the event time.
            finished_flows = self.network.advance(next_time - self.now, self.now)
            moved = next_time != self.now
            self.now = next_time
            for state in finished_flows:
                self._on_flow_finished(state)

            due_events = self.events.pop_batch(self.now, TIME_EPS)
            for event in due_events:
                if event.kind is EventKind.JOB_ARRIVAL:
                    self._start_job(event.payload)
                    self._request_reschedule("arrival")
                elif event.kind is EventKind.COMPUTE_DONE:
                    self._on_compute_done(event.payload)
                elif event.kind is EventKind.FAULT:
                    if event.callback is not None:
                        event.callback(event)
                    self._request_reschedule("fault")
                elif event.kind is EventKind.TIMER:
                    if event.callback is not None:
                        event.callback(event)
                    self._request_reschedule("timer")
            if self.obs is not None:
                self.obs.on_round(self.now, len(due_events), len(finished_flows))

            # An idle network does not need its tick any more; it re-arms
            # on the next injection's reschedule.
            if self.network.active_count == 0:
                self._cancel_tick()

            # Flows that finished exactly as a rate change landed. The
            # zero-length advance retires them via the finish index
            # without draining anyone.
            settled = self.network.advance(0.0, self.now)
            for state in settled:
                self._on_flow_finished(state)

            if moved or due_events or finished_flows or settled:
                stalled = 0
            else:
                stalled += 1
                if stalled >= STALL_ROUNDS:
                    raise self._stall_error(stalled, net_interval)

        self.trace.end_time = self.now
        if self.check is not None and not paused:
            self.check.on_run_end(self.trace)
        return self.trace

    def _stall_error(self, rounds: int, interval: float) -> SimulationError:
        """Diagnose a livelock: the flows nearest to finishing, whose
        projected interval no longer moves the clock."""
        stuck = sorted(
            (
                state.remaining / state.rate if state.rate > EPS else float("inf"),
                state.flow.flow_id,
                state,
            )
            for state in self.network.active_states()
        )
        details = ", ".join(
            f"flow {fid} (remaining={state.remaining!r}, rate={state.rate!r}, "
            f"projected interval={projected!r})"
            for projected, fid, state in stuck[:5]
        )
        return SimulationError(
            f"no progress at t={self.now!r}: {rounds} consecutive rounds "
            f"without the clock moving, an event firing or a flow retiring "
            f"(the next network interval, {interval!r} s, does not move "
            f"the clock); {len(stuck)} active flows, nearest to "
            f"finishing: {details}"
        )

    # ------------------------------------------------------------------
    # snapshot / fork / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> "StateHandle":
        """Capture the full run state into a versioned, reusable handle.

        Only legal between ``run()`` calls -- pause a run at the desired
        instant with ``run(until=t)`` first. The handle is pristine (no
        live engine aliases it), so it can seed any number of
        :meth:`fork`/:meth:`restore` calls. See
        :mod:`repro.simulator.state` for the exact copy-on-write and
        bit-identity rules, and for what raises
        :class:`~repro.simulator.state.SnapshotError`.
        """
        from .state import capture

        self.state_version += 1
        return capture(self, version=self.state_version)

    def fork(self, handle: Optional["StateHandle"] = None) -> "Engine":
        """An independent engine resuming from ``handle`` (default: now).

        The fork owns private copies of all mutable state, a private
        flow-id allocator positioned past every parent id, and shares
        only immutable objects -- plus, deliberately, a wrapped
        :class:`~repro.scheduling.cache.MemoizingScheduler`'s fingerprint
        cache, so sibling forks warm-start one another. Instrumentation
        and job-completion callbacks are not carried over.
        """
        from .state import materialize

        if handle is None:
            handle = self.snapshot()
        return materialize(handle)

    def restore(self, handle: "StateHandle") -> "Engine":
        """Rewind *this* engine to a previously captured handle, in place.

        Equivalent to :meth:`fork` but reuses this object's identity;
        like a fork, the restored engine drops instrumentation and
        job-completion callbacks. The handle stays pristine and can be
        restored to again.
        """
        from .state import materialize

        materialize(handle, target=self)
        return self

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def completed_jobs(self) -> List[str]:
        """Completed *workload* jobs, in completion order.

        Synthetic filler jobs (ids starting with ``_``, e.g. the
        ``_pause/...`` device-blockers from ``workloads.faults``) are
        excluded so fault experiments report clean JCT numbers; see
        :attr:`all_completed_jobs` for the unfiltered list.
        """
        return [j for j in self._completed_jobs if not j.startswith("_")]

    @property
    def all_completed_jobs(self) -> List[str]:
        """Every completed job, including synthetic ``_``-prefixed fillers."""
        return list(self._completed_jobs)

    def job_completion_time(self, job_id: str) -> float:
        """Completion time of a job: last task completion in its DAG.

        Backed by the trace's lazy per-job index, so repeated queries in
        analysis loops cost O(tasks of the job), not O(all task events).
        """
        events = self.trace.task_events_of_job(job_id)
        dag = self._dags[job_id]
        if len(events) != len(dag):
            raise SimulationError(
                f"job {job_id!r} has {len(dag) - len(events)} unfinished tasks"
            )
        return max(event.time for event in events)

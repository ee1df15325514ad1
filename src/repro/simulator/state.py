"""Snapshot/fork/restore across the engine spine.

Every piece of mutable run state an :class:`~repro.simulator.engine.Engine`
owns is captured here into an explicit, versioned :class:`EngineState`:
the fluid network (via :meth:`NetworkModel.fork`), the scheduler stack
(via the ``Scheduler.fork`` protocol), devices, EchelonFlow observation
state, the event queue, trace prefixes, per-task bookkeeping, the
sanitizer, pending fault events, and the engine-scoped flow-id allocator.

The contract, proven by ``tests/test_whatif.py``:

* **Pristine handles.** ``snapshot`` copies live state *into* the handle;
  ``fork``/``restore`` copy *out of* it. A handle is never aliased by a
  running engine, so one handle can seed any number of forks.
* **Bit-identical resumption.** A forked (or restored) engine resumed to
  completion produces the exact same trace -- float for float, tie-break
  for tie-break -- as the uninterrupted parent. The copy rules that make
  this hold: lazily-drained flows are never materialized at capture
  (raw ``remaining`` + drain anchors travel as-is), heap keys and
  residual accounting floats are copied verbatim, and the queue- and
  device-scoped tie-break counters resume from their captured values so
  copied entries keep their sequence numbers while new entries always
  draw larger ones.
* **Copy-on-write for heavy state.** Immutable objects -- ``Flow`` and
  ``Task`` descriptions, frozen trace records, retired flow states and
  their pinned paths, ``TaskDag`` structures -- are shared by reference
  across parent, handle, and every fork; only the mutable containers and
  live ``FlowState`` objects are duplicated. The per-flow Python work of
  a capture or fork is therefore proportional to the live flows; the
  retired history travels as flat container copies (see
  :meth:`NetworkModel.fork`).

What does *not* travel (documented detachment):

* ``obs`` instrumentation and ``job_completion_callbacks`` are dropped --
  their closures observe the parent run; forks re-attach their own.
* Pending ``TIMER``/``FAULT`` events with arbitrary callbacks raise
  :class:`SnapshotError`: a closure captured against the parent engine
  cannot be replayed against a fork. Two kinds of callback events *are*
  understood and re-armed cleanly: the engine's own scheduling-interval
  tick (recognized by identity, re-armed at its absolute time with its
  original sequence number) and a :class:`~repro.faults.FaultInjector`'s
  armed fault events (re-bound to a forked injector entry-for-entry).

Snapshots may only be taken between ``run()`` calls (pause a run with
``engine.run(until=t)`` first); capturing mid-run raises
:class:`SnapshotError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.flow import FlowIdAllocator
from .engine import Engine
from .events import _KIND_PRIORITY, Event, EventKind, EventQueue
from .trace import SimulationTrace


class SnapshotError(Exception):
    """The engine's state cannot be captured (or re-materialized)."""


@dataclass
class EngineState:
    """The full captured run state of one engine, at one instant.

    Built by :func:`capture`; turned back into a runnable engine by
    :func:`materialize`. Fields hold *pristine copies* (forked network,
    forked scheduler stack, list copies) that no live engine aliases.
    """

    now: float
    network: Any  # pristine NetworkModel fork
    scheduler: Any  # pristine Scheduler fork
    devices: Dict[str, Any]
    echelonflows: Dict[str, Any]
    #: (time, priority, sequence, kind, payload) per pending payload event.
    pending_events: List[Tuple[float, int, int, EventKind, Any]]
    #: The queue's tie-break counter at capture time.
    next_sequence: int
    #: (absolute time, sequence) of the armed scheduling-interval tick.
    tick: Optional[Tuple[float, int]]
    # Trace prefix (records shared; lists copied).
    compute_spans: List[Any]
    flow_records: List[Any]
    task_events: List[Any]
    trace_end_time: float
    # Per-task runtime bookkeeping.
    dags: Dict[str, Any]
    pending_deps: Dict[Tuple[str, str], int]
    comm_outstanding: Dict[Tuple[str, str], int]
    flow_owner: Dict[int, Tuple[str, str]]
    tasks_left: Dict[str, int]
    completed_jobs: List[str]
    # Scheduling-loop state.
    needs_reschedule: bool
    pending_causes: frozenset
    delta_injected: Tuple[int, ...]
    delta_departed: Tuple[int, ...]
    #: group id -> flow ids still awaiting an ideal finish time.
    undated: Dict[str, Tuple[int, ...]]
    scheduler_invocations: int
    scheduling_interval: Optional[float]
    device_slots: Any
    #: Engine-scoped flow-id allocator position at capture.
    flow_ids: FlowIdAllocator
    #: Pristine Sanitizer fork (unattached), or None.
    check: Any
    # Fault-injector state: the (immutable, shared) schedule, records of
    # already-applied events, and the not-yet-fired armed events as
    # (absolute time, sequence, FaultEvent).
    faults_schedule: Any = None
    faults_fired: List[Dict] = field(default_factory=list)
    faults_pending: List[Tuple[float, int, Any]] = field(default_factory=list)


@dataclass(frozen=True)
class StateHandle:
    """A versioned, immutable reference to one captured :class:`EngineState`.

    ``version`` is the source engine's snapshot counter at capture;
    ``time`` the simulation instant the state represents. Handles are
    reusable: every :meth:`Engine.fork`/:meth:`Engine.restore` against
    the same handle yields the same state.
    """

    version: int
    time: float
    state: EngineState

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StateHandle(version={self.version}, time={self.time:g})"


# ----------------------------------------------------------------------
# capture: live engine -> pristine EngineState
# ----------------------------------------------------------------------


def _fork_scheduler(scheduler) -> Any:
    if hasattr(scheduler, "fork"):
        return scheduler.fork()
    import copy

    return copy.deepcopy(scheduler)


def _capture_events(engine) -> Tuple[
    List[Tuple[float, int, int, EventKind, Any]],
    Optional[Tuple[float, int]],
    List[Tuple[float, int, Any]],
]:
    """Classify the queue's live events into capturable categories."""
    payload_events: List[Tuple[float, int, int, EventKind, Any]] = []
    tick: Optional[Tuple[float, int]] = None
    fault_entries: List[Tuple[float, int, Any]] = []
    tick_event = getattr(engine, "_tick_event", None)
    injector = engine.faults
    armed = getattr(injector, "_armed", None) if injector is not None else None
    for event in engine.events.live_events():
        if tick_event is not None and event is tick_event:
            tick = (event.time, event.sequence)
            continue
        if event.callback is None:
            payload_events.append(
                (event.time, event.priority, event.sequence, event.kind, event.payload)
            )
            continue
        if armed:
            entry = armed.get(id(event))
            if entry is not None and entry[0] is event:
                fault_entries.append((event.time, event.sequence, entry[1]))
                continue
        raise SnapshotError(
            f"pending {event.kind.value} event at t={event.time:g} carries an "
            f"arbitrary callback closed over the parent engine; only the "
            f"scheduling tick and FaultInjector events can cross a snapshot "
            f"(background-flow and watch-loop timers cannot)"
        )
    payload_events.sort(key=lambda entry: entry[2])
    fault_entries.sort(key=lambda entry: entry[1])
    return payload_events, tick, fault_entries


def capture(engine, version: int) -> StateHandle:
    """Snapshot a live engine into a pristine, reusable handle."""
    if getattr(engine, "_in_run", False):
        raise SnapshotError(
            "snapshot() must be called between run() calls; pause the run "
            "with engine.run(until=t) first"
        )
    payload_events, tick, fault_entries = _capture_events(engine)
    injector = engine.faults
    trace = engine.trace
    state = EngineState(
        now=engine.now,
        network=engine.network.fork(),
        scheduler=_fork_scheduler(engine.scheduler),
        devices={name: dev.fork() for name, dev in engine.devices.items()},
        echelonflows={gid: ef.fork() for gid, ef in engine.echelonflows.items()},
        pending_events=payload_events,
        next_sequence=engine.events.next_sequence,
        tick=tick,
        compute_spans=list(trace.compute_spans),
        flow_records=list(trace.flow_records),
        task_events=list(trace.task_events),
        trace_end_time=trace.end_time,
        dags=dict(engine._dags),
        pending_deps=dict(engine._pending_deps),
        comm_outstanding=dict(engine._comm_outstanding),
        flow_owner=dict(engine._flow_owner),
        tasks_left=dict(engine._tasks_left),
        completed_jobs=list(engine._completed_jobs),
        needs_reschedule=engine._needs_reschedule,
        pending_causes=frozenset(engine._pending_causes),
        delta_injected=tuple(engine._delta_injected),
        delta_departed=tuple(engine._delta_departed),
        undated={
            gid: tuple(s.flow.flow_id for s in states)
            for gid, states in engine._undated.items()
        },
        scheduler_invocations=engine.scheduler_invocations,
        scheduling_interval=engine.scheduling_interval,
        device_slots=(
            dict(engine._device_slots)
            if isinstance(engine._device_slots, dict)
            else engine._device_slots
        ),
        flow_ids=engine.flow_ids.clone(),
        check=engine.check.fork() if engine.check is not None else None,
        faults_schedule=injector.schedule if injector is not None else None,
        faults_fired=(
            [dict(record) for record in injector.fired]
            if injector is not None
            else []
        ),
        faults_pending=fault_entries,
    )
    return StateHandle(version=version, time=engine.now, state=state)


# ----------------------------------------------------------------------
# materialize: pristine EngineState -> runnable engine
# ----------------------------------------------------------------------


def _arm_restored_tick(engine, time: float, sequence: int) -> None:
    """Re-arm the scheduling-interval tick at its captured absolute time,
    preserving its original tie-break sequence number."""

    def _tick(_event) -> None:
        engine._tick_armed = False
        engine._request_reschedule("tick")

    event = Event(
        time=time,
        priority=_KIND_PRIORITY[EventKind.TIMER],
        sequence=sequence,
        kind=EventKind.TIMER,
        callback=_tick,
    )
    engine.events.push_restored(event)
    engine._tick_event = event
    engine._tick_armed = True


def _materialize_faults(state: EngineState, engine):
    """Rebuild a fault injector bound to ``engine``, with the already-fired
    history and the not-yet-fired events re-armed entry for entry."""
    if state.faults_schedule is None:
        return None
    # Deferred import: repro.faults sits on top of the simulator.
    from ..faults.injector import FaultInjector

    injector = FaultInjector.__new__(FaultInjector)
    injector.schedule = state.faults_schedule
    injector.engine = engine
    injector.fired = [dict(record) for record in state.faults_fired]
    injector._armed = {}
    for time, sequence, fault_event in state.faults_pending:
        event = Event(
            time=time,
            priority=_KIND_PRIORITY[EventKind.FAULT],
            sequence=sequence,
            kind=EventKind.FAULT,
            callback=lambda _ev, f=fault_event: injector._fire(f),
        )
        engine.events.push_restored(event)
        injector._armed[id(event)] = (event, fault_event)
    return injector


def materialize(handle: StateHandle, target: Optional[Engine] = None) -> Engine:
    """Build a runnable engine from a handle (``fork``), or rewind an
    existing one onto it in place (``restore`` passes ``target``).

    Instrumentation and job-completion callbacks do not survive: the
    materialized engine starts with ``obs=None`` and an empty callback
    list (see the module docstring).
    """
    state = handle.state
    if target is not None and getattr(target, "_in_run", False):
        raise SnapshotError("cannot restore() an engine while it is running")
    engine = target if target is not None else Engine.__new__(Engine)

    network = state.network.fork()
    engine.network = network
    engine.topology = network.topology
    engine.scheduler = _fork_scheduler(state.scheduler)
    engine.now = state.now

    engine.events = EventQueue(next_sequence=state.next_sequence)
    for time, priority, sequence, kind, payload in state.pending_events:
        engine.events.push_restored(
            Event(
                time=time,
                priority=priority,
                sequence=sequence,
                kind=kind,
                payload=payload,
            )
        )

    engine.devices = {name: dev.fork() for name, dev in state.devices.items()}
    engine._device_slots = (
        dict(state.device_slots)
        if isinstance(state.device_slots, dict)
        else state.device_slots
    )
    engine.echelonflows = {
        gid: ef.fork() for gid, ef in state.echelonflows.items()
    }

    trace = SimulationTrace(
        compute_spans=list(state.compute_spans),
        flow_records=list(state.flow_records),
        task_events=list(state.task_events),
    )
    trace.end_time = state.trace_end_time
    engine.trace = trace

    engine._dags = dict(state.dags)
    engine._pending_deps = dict(state.pending_deps)
    engine._comm_outstanding = dict(state.comm_outstanding)
    engine._flow_owner = dict(state.flow_owner)
    engine._tasks_left = dict(state.tasks_left)
    engine._completed_jobs = list(state.completed_jobs)
    engine._needs_reschedule = state.needs_reschedule
    engine._pending_causes = set(state.pending_causes)
    engine._view = None
    engine._delta_injected = list(state.delta_injected)
    engine._delta_departed = list(state.delta_departed)
    # The undated index must point at *this* engine's state objects.
    engine._undated = {
        gid: [network._active[fid] for fid in fids if fid in network._active]
        for gid, fids in state.undated.items()
    }

    engine.obs = None
    engine.check = state.check.fork() if state.check is not None else None
    if engine.check is not None:
        engine.check.attach(engine)
    layer = engine.scheduler
    seen = set()
    while layer is not None and id(layer) not in seen:
        seen.add(id(layer))
        hook = getattr(layer, "on_attached", None)
        if hook is not None:
            hook(engine)
        layer = getattr(layer, "inner", None)
    engine.faults = _materialize_faults(state, engine)

    engine.scheduling_interval = state.scheduling_interval
    engine._tick_armed = False
    engine._tick_event = None
    if state.tick is not None:
        _arm_restored_tick(engine, *state.tick)
    engine.scheduler_invocations = state.scheduler_invocations
    engine.job_completion_callbacks = []
    engine.flow_ids = state.flow_ids.clone()
    engine._in_run = False
    if target is None:
        engine.state_version = 0
    return engine

"""Scheduler interface: what the paper's Coordinator computes.

A scheduler is invoked by the engine whenever network state changes (flow
arrival/departure or any task completion) and returns a complete rate
allocation for the active flows, exactly like the Coordinator of Fig. 7
returning "bandwidth allocations" for the agents to enforce.

The :class:`SchedulerView` gives a scheduler everything the paper says the
coordinator receives: per-flow info (size/remaining, src, dst, path) plus
EchelonFlow membership and arrangement-derived ideal finish times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.echelonflow import EchelonFlow
from ..core.flow import FlowState
from ..simulator.allocation import FlowDemand
from ..simulator.network import NetworkModel


@dataclass
class SchedulerView:
    """Snapshot handed to a scheduler at decision time.

    The engine keeps one view alive for the whole run and ``refresh``-es
    it per invocation, so schedulers see engine-maintained *incremental*
    state -- the network's group buckets and cached demands -- instead of
    per-call rebuilds, plus a delta of what changed since they last ran.
    Constructing a view directly (tests, one-shot calls) works the same;
    the delta fields are simply empty.
    """

    now: float
    network: NetworkModel
    #: EchelonFlows registered with the coordinator, by group id.
    echelonflows: Mapping[str, EchelonFlow] = field(default_factory=dict)
    #: Why the coordinator is being re-invoked right now: "fault",
    #: "arrival", "departure", "compute", "tick", "timer", or ``None``
    #: when the caller did not attribute the invocation (direct calls).
    #: Profiling middleware and the Fig. 7 coordinator use this to count
    #: invocations per rerun policy; algorithms are free to ignore it.
    trigger_cause: Optional[str] = None
    #: Flow ids injected since the scheduler last ran (empty on direct
    #: construction). Incremental schedulers use these to patch warm
    #: state instead of re-deriving it from the full active set.
    injected_flows: Tuple[int, ...] = ()
    #: Flow ids retired since the scheduler last ran.
    departed_flows: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Materialize lazily-drained `remaining` values up front so every
        # read a scheduler performs sees current bytes.
        self.network.sync_active()

    def refresh(
        self,
        now: float,
        trigger_cause: Optional[str],
        injected: Sequence[int] = (),
        departed: Sequence[int] = (),
    ) -> "SchedulerView":
        """Point the persistent view at the current decision instant."""
        self.now = now
        self.trigger_cause = trigger_cause
        self.injected_flows = tuple(injected)
        self.departed_flows = tuple(departed)
        self.network.sync_active()
        return self

    def active_states(self) -> List[FlowState]:
        return self.network.active_states()

    def demand_of(self, state: FlowState, weight: float = 1.0) -> FlowDemand:
        return self.network.demand(state.flow.flow_id, weight)

    def fill_order(
        self, states: Iterable[FlowState]
    ) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(flow id, path link columns)`` per state, in the given order:
        the priority list
        :func:`~repro.simulator.allocation.greedy_priority_fill` serves."""
        columns = self.network.columns
        return [
            (state.flow.flow_id, columns(state.flow.flow_id)) for state in states
        ]

    def flow_demands(self) -> List[FlowDemand]:
        """Unit-weight demands of every active flow, cached at inject time."""
        return self.network.demands()

    def group_of(self, state: FlowState) -> Optional[EchelonFlow]:
        if state.flow.group_id is None:
            return None
        return self.echelonflows.get(state.flow.group_id)

    def group_weight_of(self, state: FlowState) -> float:
        """The flow's EchelonFlow weight (1.0 when ungrouped/unregistered)."""
        group = self.group_of(state)
        return group.weight if group is not None else 1.0

    def states_by_group(self) -> Dict[Optional[str], List[FlowState]]:
        """Active flows bucketed by EchelonFlow id (None = ungrouped)."""
        groups: Dict[Optional[str], List[FlowState]] = {}
        for state in self.active_states():
            groups.setdefault(state.flow.group_id, []).append(state)
        return groups

    def groups(self) -> List[Tuple[Optional[str], List[FlowState]]]:
        """Engine-maintained group buckets, sorted by id (``None`` last).

        Unlike :meth:`states_by_group` this does not rebuild anything:
        the network keeps the buckets current across inject/retire, so a
        call is O(groups). Buckets are fid-sorted; treat them as
        read-only.
        """
        return self.network.group_buckets()

    def ideal_finish_time(self, state: FlowState) -> Optional[float]:
        """``d_j`` of a flow, from its EchelonFlow's arrangement.

        Falls back to the state's cached value so schedulers keep working
        when flows are injected directly (without a registered group).
        """
        group = self.group_of(state)
        if group is not None and group.reference_time is not None:
            return group.ideal_finish_time_of(state.flow)
        return state.ideal_finish_time


class Scheduler:
    """Base class: allocate rates for every active flow.

    Implementations must be work-conserving where possible and must respect
    link capacities; the engine validates allocations in strict mode.
    """

    #: Human-readable name used in benchmark tables.
    name = "abstract"

    #: Declares the work-conservation contract: a True value promises that
    #: the allocation never leaves an unfinished flow with spare capacity
    #: on *every* link of its path (each active flow is bottlenecked
    #: somewhere or capped). The ``repro.check`` sanitizer enforces the
    #: promise at runtime; pacing-only algorithms (MADD without backfill)
    #: keep the default False. Wrappers delegate to their inner scheduler.
    work_conserving = False

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        """flow id -> rate for the flows in ``view``.

        Ownership contract: every call returns a mapping of its own,
        never one an earlier call returned, and never touches it again.
        Callers treat it as read-only, so holders may keep it as is:
        :class:`~repro.obs.profiling.ProfiledScheduler` diffs each
        decision against the previous one without copying it.
        ``tests/test_allocation_ownership.py`` checks every registered
        scheduler and wrapper.
        """
        raise NotImplementedError

    def fork(self) -> "Scheduler":
        """An independent copy for a forked engine (snapshot/fork/restore).

        The default is a deep copy, which is correct for every built-in
        algorithm (their state is configuration plus derived caches).
        Wrappers override it to control what is shared across forks:
        :class:`~repro.scheduling.cache.MemoizingScheduler` shares its
        fingerprint cache by reference (warm starts for sibling forks),
        and :class:`~repro.faults.ResilientScheduler` drops its engine
        handle (the engine fork re-runs the ``on_attached`` walk).
        Schedulers holding unforkable resources should override this and
        raise.
        """
        import copy

        return copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}<{self.name}>"


_SCHEDULER_REGISTRY: Dict[str, type] = {}


def register_scheduler(cls: type) -> type:
    """Class decorator: register a scheduler under its ``name``."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"scheduler {cls.__name__} needs a unique name")
    if name in _SCHEDULER_REGISTRY:
        raise ValueError(f"duplicate scheduler name {name!r}")
    _SCHEDULER_REGISTRY[name] = cls
    return cls


def scheduler_names() -> List[str]:
    return sorted(_SCHEDULER_REGISTRY)

def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    try:
        cls = _SCHEDULER_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {scheduler_names()}"
        )
    return cls(**kwargs)

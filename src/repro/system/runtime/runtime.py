"""Fault-tolerant control-plane runtime for the Fig. 7 system.

:class:`ControlPlaneRuntime` promotes the in-process Agent/Coordinator
objects of :mod:`repro.system` to a crash-safe service model. Every
Agent<->Coordinator interaction -- EchelonFlow registration, liveness
heartbeats, allocation rounds, post-failover resync -- crosses one
seeded :class:`~repro.system.runtime.rpc.RpcChannel`, so message loss,
delay, and duplication are first-class and deterministic per
``(spec, seed)``.

The runtime has two modes, resolved once per run:

* **passive** -- the channel is the identity and the fault schedule
  contains no control-plane actions. Registration lands on the
  coordinator at once and every scheduling round is one coordinator
  allocation over the merged registry, with no leases, timers or
  channel draws (the chaos suite pins the resulting SHA-256 trace
  digest).

* **active** -- anything can fail. The runtime then maintains:

  - **leases + heartbeats**: each agent heartbeats the coordinator on
    every scheduling round; an agent whose lease expires (crash,
    partition, sustained loss) has its EchelonFlows *quarantined* --
    excluded from the coordinator's merged view, so its flows degrade
    to best-effort singletons instead of stalling the cluster. A
    heartbeat from a quarantined agent re-adopts it and forces a state
    resync.
  - **write-ahead request log + checkpoints**: ``Coordinator.register``
    already appends every request to a durable log; the runtime
    checkpoints the registry (``EchelonFlow.fork()`` per group) every
    ``checkpoint_every`` commits. ``crash_coordinator`` wipes the
    in-memory registry; ``coordinator_restore`` rebuilds it from the
    last checkpoint plus a replay of the post-checkpoint log suffix,
    then bumps the epoch so agents re-sync their live group objects
    (restoring pinned reference times) over the channel.
  - **degraded-mode scheduling with hysteresis**: while the coordinator
    is unreachable, agents first keep serving the last *committed*
    allocation (projected onto the active flow set) and, after
    ``fallback_after`` consecutive failed rounds, fall back to local
    fair sharing -- the :class:`~repro.faults.ResilientScheduler`
    idiom. Switchback requires ``recover_after`` consecutive
    successful rounds, so a flapping channel cannot thrash the policy.
  - **commit latency**: a delivered allocation round with one-way
    latency ``L`` is *computed* now but *committed* (served fresh) at
    ``now + L`` via an engine timer; in between, agents serve the
    previous committed allocation. At most one round is in flight.

Active-mode scheduling rounds set ``last_allocation_was_fallback`` so
the differential twin oracle skips them (a lossy control plane is
intentionally not the reference allocation), exactly as it skips
contained scheduler crashes. Active-mode runs also arm engine timers
with arbitrary callbacks, which makes them ineligible for
snapshot/fork (:mod:`repro.simulator.state` refuses); passive runs
fork fine.

Control-plane faults arrive through the PR 5 grammar
(``crash_agent`` / ``crash_coordinator`` / ``partition_control`` /
``rpc_noise``, see :mod:`repro.faults.schedule`), dispatched by the
injector to :meth:`ControlPlaneRuntime.apply_fault`.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

from ...core.echelonflow import EchelonFlow
from ...scheduling.base import Scheduler, SchedulerView
from ...scheduling.fairshare import FairSharingScheduler
from ..agent import EchelonFlowAgent
from ..coordinator import Coordinator
from ..messages import EchelonFlowRequest
from .rpc import RpcChannel, RpcSpec, parse_rpc_spec

#: Weight multiplier for quarantined tenants: small enough that the
#: weighted-tardiness orderings rank them behind every healthy tenant
#: (Smith's rule divides positive lateness by the weight), large enough
#: to stay a valid positive EchelonFlow weight.
QUARANTINE_WEIGHT = 1e-3


class ControlPlaneRuntime:
    """The crash-safe Coordinator/Agent service around one engine run."""

    def __init__(
        self,
        coordinator: Optional[Coordinator] = None,
        rpc: Optional[object] = None,
        seed: Optional[int] = None,
        lease: float = 0.25,
        fallback_after: int = 2,
        recover_after: int = 2,
        checkpoint_every: int = 4,
        fallback: Optional[Scheduler] = None,
    ) -> None:
        if lease <= 0:
            raise ValueError(f"lease must be positive, got {lease}")
        if fallback_after < 1 or recover_after < 1:
            raise ValueError("fallback_after and recover_after must be >= 1")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.coordinator = coordinator or Coordinator()
        self.base_spec: RpcSpec = parse_rpc_spec(rpc, seed)
        self.channel = RpcChannel(self.base_spec)
        self.lease = lease
        self.fallback_after = fallback_after
        self.recover_after = recover_after
        self.checkpoint_every = checkpoint_every
        self.fallback = fallback if fallback is not None else FairSharingScheduler()
        self.engine = None
        #: Resolved lazily on first use (the injector attaches after the
        #: scheduler's on_attached hook, so the fault schedule is not
        #: known at attach time).
        self._active: Optional[bool] = None
        self._agents: Dict[str, EchelonFlowAgent] = {}
        # -- coordinator-side service state --
        self.coordinator_up = True
        self.global_partition = False
        self.epoch = 0
        #: Quarantined agents' ef_ids, excluded from the merged view.
        self.quarantined: set = set()
        #: Last checkpoint: WAL index + forked registry.
        self._checkpoint: Dict = {"wal_index": 0, "groups": {}}
        self._commits_since_checkpoint = 0
        # -- agent-side degraded-mode state --
        self.state = "coordinated"  # or "degraded"
        self.consecutive_failures = 0
        self.consecutive_successes = 0
        self.last_committed: Optional[Dict[int, float]] = None
        self._commit_pending = False
        self._retry_armed = False
        self._alloc_seq = 0
        self._hb_seq = 0
        self._resync_seq = 0
        self.counters: Dict[str, int] = {
            "registrations": 0,
            "registrations_deferred": 0,
            "duplicates_absorbed": 0,
            "heartbeats": 0,
            "heartbeats_lost": 0,
            "quarantines": 0,
            "readoptions": 0,
            "resynced_groups": 0,
            "rounds": 0,
            "round_failures": 0,
            "stale_rounds": 0,
            "degraded_rounds": 0,
            "degraded_enters": 0,
            "degraded_exits": 0,
            "commits": 0,
            "checkpoints": 0,
            "failovers": 0,
            "replayed_requests": 0,
            "recovered_groups": 0,
        }
        #: One record per control-plane state transition (the obs feed).
        self.control_log: List[Dict] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, engine) -> None:
        if self.engine is not None and self.engine is not engine:
            raise ValueError(
                "ControlPlaneRuntime is already attached; build one per engine"
            )
        self.engine = engine

    def spawn_agent(self, framework: str) -> EchelonFlowAgent:
        if framework in self._agents:
            raise ValueError(f"agent {framework!r} already spawned")
        agent = EchelonFlowAgent(framework, self)
        self._agents[framework] = agent
        return agent

    @property
    def agents(self) -> Dict[str, EchelonFlowAgent]:
        return dict(self._agents)

    @property
    def active(self) -> bool:
        """True when any control-plane failure mode is in play this run."""
        if self._active is None:
            has_control = False
            injector = getattr(self.engine, "faults", None)
            if injector is not None:
                has_control = injector.schedule.has_control_faults
            self._active = (not self.base_spec.is_noop) or has_control
        return self._active

    # -- obs -------------------------------------------------------------

    def _emit(self, kind: str, now: float, **fields) -> Dict:
        record = {"time": now, "kind": kind, **fields}
        self.control_log.append(record)
        engine = self.engine
        if engine is not None and engine.obs is not None:
            notify = getattr(engine.obs, "on_control_event", None)
            if notify is not None:
                notify(record, now)
        return record

    def _now(self) -> float:
        return self.engine.now if self.engine is not None else 0.0

    # -- registration ----------------------------------------------------

    def register(
        self,
        agent: EchelonFlowAgent,
        request: EchelonFlowRequest,
        live: EchelonFlow,
    ) -> EchelonFlow:
        """Handle one agent registration; returns the object to schedule by."""
        self.counters["registrations"] += 1
        now = self._now()
        if agent.lease_expires is None:
            agent.lease_expires = now + self.lease
        if not self.active:
            # Nothing can fail: register at once; the coordinator's
            # object carries the framework's member flows.
            registered = self.coordinator.register(request)
            for flow in live.flows:
                registered.add_flow(flow)
            return registered
        agent.records[request.ef_id] = (request, live)
        verdict = self.channel.send_with_retries(f"reg|{request.ef_id}")
        if not verdict.delivered:
            # Every attempt lost: defer to the heartbeat-driven resync.
            self.counters["registrations_deferred"] += 1
            agent.synced_epoch = -1
            self._emit("registration_deferred", now,
                       agent=agent.framework, ef_id=request.ef_id)
        elif verdict.latency > 0.0 and self.engine is not None:
            ef_id = request.ef_id
            self.engine.schedule_callback(
                now + verdict.latency,
                lambda: self._install(agent, ef_id),
            )
        else:
            self._install(agent, request.ef_id)
        return live

    def _install(self, agent: EchelonFlowAgent, ef_id: str) -> None:
        """Idempotently land one registration on the coordinator.

        Appends to the WAL on first delivery; later copies (duplicates,
        resyncs) only swap the live object back into the registry, which
        is what restores pinned reference times after a failover rebuilt
        the group from the log.
        """
        record = agent.records.get(ef_id)
        if record is None:
            return
        request, live = record
        registry = self.coordinator.echelonflows
        if ef_id in registry:
            if registry[ef_id] is live:
                self.counters["duplicates_absorbed"] += 1
                return
            registry[ef_id] = live
            self.counters["resynced_groups"] += 1
            return
        self.coordinator.register(request)
        registry[ef_id] = live

    # -- liveness pump ---------------------------------------------------

    def _pump(self, now: float) -> None:
        """Heartbeats, lease expiry, quarantine, re-adoption, resync."""
        reachable = self.coordinator_up and not self.global_partition
        for agent in self._agents.values():
            if not agent.up or agent.partitioned or not reachable:
                self._check_lease(agent, now)
                continue
            self._hb_seq += 1
            self.counters["heartbeats"] += 1
            verdict = self.channel.transmit(
                f"hb|{agent.framework}|{self._hb_seq}"
            )
            if not verdict.delivered:
                self.counters["heartbeats_lost"] += 1
                self._check_lease(agent, now)
                continue
            agent.lease_expires = now + self.lease
            if agent.quarantined:
                self._readopt(agent, now)
            if agent.synced_epoch < self.epoch:
                self._resync(agent, now)

    def _check_lease(self, agent: EchelonFlowAgent, now: float) -> None:
        if agent.quarantined or agent.lease_expires is None:
            return
        if now > agent.lease_expires:
            agent.quarantined = True
            self.quarantined.update(agent.ef_ids)
            self.counters["quarantines"] += 1
            self._emit("quarantine", now, agent=agent.framework,
                       groups=len(agent.records))

    def _readopt(self, agent: EchelonFlowAgent, now: float) -> None:
        agent.quarantined = False
        self.quarantined.difference_update(agent.ef_ids)
        agent.synced_epoch = -1  # state may have moved; force resync
        self.counters["readoptions"] += 1
        self._emit("readopt", now, agent=agent.framework)

    def _resync(self, agent: EchelonFlowAgent, now: float) -> None:
        self._resync_seq += 1
        verdict = self.channel.transmit(
            f"resync|{agent.framework}|e{self.epoch}|{self._resync_seq}"
        )
        if not verdict.delivered:
            return  # next delivered heartbeat retries
        before = self.counters["resynced_groups"]
        for ef_id in agent.records:
            self._install(agent, ef_id)
        agent.synced_epoch = self.epoch
        self._emit("resync", now, agent=agent.framework,
                   groups=self.counters["resynced_groups"] - before)

    # -- scheduling ------------------------------------------------------

    def allocate_active(self, view: SchedulerView) -> Dict[int, float]:
        now = view.now
        self.counters["rounds"] += 1
        self._pump(now)
        if self._commit_pending:
            # A round is in flight; serve the last committed allocation
            # until its commit timer lands.
            self.counters["stale_rounds"] += 1
            return self._serve_stale(view)
        if not (self.coordinator_up and not self.global_partition):
            return self._round_failure(view, "unreachable")
        self._alloc_seq += 1
        verdict = self.channel.send_with_retries(f"alloc|{self._alloc_seq}")
        if not verdict.delivered:
            return self._round_failure(view, "rpc")
        # Round succeeded: hysteresis bookkeeping, then compute.
        self.consecutive_failures = 0
        self.consecutive_successes += 1
        if (
            self.state == "degraded"
            and self.consecutive_successes >= self.recover_after
        ):
            self.state = "coordinated"
            self.counters["degraded_exits"] += 1
            self._emit("degraded_exit", now)
        rates = self._coordinated_rates(view)
        if verdict.latency > 0.0 and self.engine is not None:
            self._commit_pending = True
            self.engine.schedule_callback(
                now + verdict.latency,
                lambda: self._commit(rates),
            )
            if self.state == "degraded":
                self.counters["degraded_rounds"] += 1
                return self.fallback.allocate(view)
            return self._serve_stale(view)
        self._record_commit(rates)
        if self.state == "degraded":
            self.counters["degraded_rounds"] += 1
            return self.fallback.allocate(view)
        return rates

    def _coordinated_rates(self, view: SchedulerView) -> Dict[int, float]:
        merged = dict(view.echelonflows)
        merged.update(self.coordinator.echelonflows)
        for ef_id in self.quarantined:
            group = merged.get(ef_id)
            if group is None:
                continue
            # A quarantined tenant's deadlines can't be trusted (its
            # agent is gone), so the coordinator serves it best-effort:
            # a down-weighted fork sorts behind every healthy tenant in
            # the weighted-tardiness orderings without perturbing the
            # live group the agent re-adopts on resync.
            demoted = group.fork()
            demoted.weight = group.weight * QUARANTINE_WEIGHT
            merged[ef_id] = demoted
        coordinator_view = SchedulerView(
            now=view.now,
            network=view.network,
            echelonflows=merged,
            trigger_cause=view.trigger_cause,
            injected_flows=view.injected_flows,
            departed_flows=view.departed_flows,
        )
        return self.coordinator.allocate(coordinator_view)

    def _commit(self, rates: Dict[int, float]) -> None:
        self._commit_pending = False
        self._record_commit(rates)
        # The TIMER event triggers a reschedule, which serves these
        # fresh rates (or issues the next round).

    def _record_commit(self, rates: Dict[int, float]) -> None:
        self.last_committed = dict(rates)
        self.counters["commits"] += 1
        self._commits_since_checkpoint += 1
        if self._commits_since_checkpoint >= self.checkpoint_every:
            self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        self._commits_since_checkpoint = 0
        self._checkpoint = {
            "wal_index": len(self.coordinator.request_log),
            "groups": {
                ef_id: ef.fork()
                for ef_id, ef in self.coordinator.echelonflows.items()
            },
        }
        self.counters["checkpoints"] += 1
        self._emit("checkpoint", self._now(),
                   groups=len(self._checkpoint["groups"]),
                   wal_index=self._checkpoint["wal_index"])

    def _round_failure(self, view: SchedulerView, kind: str) -> Dict[int, float]:
        now = view.now
        self.consecutive_successes = 0
        self.consecutive_failures += 1
        self.counters["round_failures"] += 1
        if (
            self.state == "coordinated"
            and self.consecutive_failures >= self.fallback_after
        ):
            self.state = "degraded"
            self.counters["degraded_enters"] += 1
            self._emit("degraded_enter", now, cause=kind)
        if kind == "rpc" and not self._retry_armed and self.engine is not None:
            spec = self.channel.spec
            interval = max(spec.timeout + spec.backoff, 1e-3)
            self._retry_armed = True
            self.engine.schedule_callback(now + interval, self._retry_fired)
        if self.state == "degraded":
            self.counters["degraded_rounds"] += 1
            return self.fallback.allocate(view)
        return self._serve_stale(view)

    def _retry_fired(self) -> None:
        # The TIMER event's reschedule performs the actual retry.
        self._retry_armed = False

    def _serve_stale(self, view: SchedulerView) -> Dict[int, float]:
        """Last committed allocation, or fair share when it went stale.

        A committed allocation is only served when it still *covers*
        every active flow: a flow that arrived after the commit has no
        committed rate, and starving it until the next commit would
        stall pipelined jobs (sequential short flows each losing one
        commit interval compounds fast). Incomplete, infeasible, or
        absent commits degrade the round to local fair sharing instead.
        """
        committed = self.last_committed
        if committed:
            rates: Dict[int, float] = {}
            covered = True
            for state in view.active_states():
                flow_id = state.flow.flow_id
                rate = committed.get(flow_id)
                if rate is None:
                    covered = False
                    break
                rates[flow_id] = rate
            if covered and rates and view.network.validate_rates(rates):
                return rates
        return self.fallback.allocate(view)

    # -- fault dispatch --------------------------------------------------

    def apply_fault(self, event) -> None:
        """Dispatch one control-plane FaultEvent (called by the injector)."""
        now = self._now()
        action = event.action
        if action == "crash_agent":
            agent = self._agent_for(event.target)
            agent.up = False
            self._emit("agent_crash", now, agent=agent.framework)
        elif action == "agent_restore":
            agent = self._agent_for(event.target)
            agent.up = True
            agent.synced_epoch = -1
            self._emit("agent_restore", now, agent=agent.framework)
        elif action == "crash_coordinator":
            self.coordinator_up = False
            # In-memory registry dies with the process; the WAL
            # (request_log) is the durable part.
            self.coordinator.echelonflows.clear()
            self._emit("coordinator_crash", now)
        elif action == "coordinator_restore":
            self._failover(now)
        elif action == "partition_control":
            if event.target is not None:
                self._agent_for(event.target).partitioned = True
            else:
                self.global_partition = True
            self._emit("partition", now, agent=event.target)
        elif action == "partition_heal":
            if event.target is not None:
                self._agent_for(event.target).partitioned = False
            else:
                self.global_partition = False
                for agent in self._agents.values():
                    agent.partitioned = False
            self._emit("partition_heal", now, agent=event.target)
        elif action == "rpc_noise":
            seed = None if "seed" in (event.spec or "") else self.base_spec.seed
            parsed = parse_rpc_spec(event.spec, seed)
            self.channel = RpcChannel(parsed)
            self._emit("rpc_noise", now, spec=parsed.describe())
        elif action == "rpc_restore":
            self.channel = RpcChannel(self.base_spec)
            self._emit("rpc_restore", now, spec=self.base_spec.describe())
        else:  # pragma: no cover - the grammar should prevent this
            raise ValueError(f"unknown control-plane action {action!r}")

    def _agent_for(self, target: Optional[str]) -> EchelonFlowAgent:
        agent = self._agents.get(target or "")
        if agent is None:
            raise ValueError(
                f"control fault targets unknown agent {target!r}; "
                f"known agents: {sorted(self._agents)}"
            )
        return agent

    def _failover(self, now: float) -> None:
        """coordinator_restore: rebuild the registry, bump the epoch."""
        self.coordinator_up = True
        self.epoch += 1
        self.counters["failovers"] += 1
        checkpoint = self._checkpoint
        registry = self.coordinator.echelonflows
        registry.clear()
        for ef_id, forked in checkpoint["groups"].items():
            registry[ef_id] = forked.fork()
            self.counters["recovered_groups"] += 1
        replayed = 0
        for request in self.coordinator.request_log[checkpoint["wal_index"]:]:
            if request.ef_id in registry:
                continue
            # Rebuilt from the log alone: unpinned and memberless until
            # the owning agent resyncs its live object -- schedulers
            # treat such groups as deadline-less, which is safe.
            registry[request.ef_id] = EchelonFlow(
                request.ef_id,
                request.arrangement.build(),
                job_id=request.job_id,
            )
            replayed += 1
        self.counters["replayed_requests"] += replayed
        self._emit(
            "failover", now,
            recovered=len(checkpoint["groups"]),
            replayed=replayed,
            epoch=self.epoch,
        )

    # -- reporting / copying ---------------------------------------------

    def report(self) -> Dict:
        """JSON-able summary for the chaos table and obs dumps."""
        return {
            "mode": "active" if self.active else "passive",
            "state": self.state,
            "epoch": self.epoch,
            "channel": self.channel.report(),
            "quarantined": sorted(self.quarantined),
            **self.counters,
        }

    def __deepcopy__(self, memo):
        # The twin oracle deepcopies engine.scheduler; dragging the
        # engine along would copy the whole run. Copy everything else.
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            if key == "engine":
                clone.engine = None
            else:
                clone.__dict__[key] = copy.deepcopy(value, memo)
        return clone


class ControlPlaneScheduler(Scheduler):
    """Engine adapter: schedules through a :class:`ControlPlaneRuntime`.

    Passive mode asks the coordinator directly (its registry overrides
    the engine-side one, so the control plane carries all information
    scheduling needs); active mode flags every invocation as a fallback
    so the differential twin oracle skips it (lossy control-plane rounds
    are intentionally not the reference allocation).
    """

    name = "control-plane"

    def __init__(self, runtime: ControlPlaneRuntime) -> None:
        self.runtime = runtime
        self.last_allocation_was_fallback = False

    @property
    def work_conserving(self) -> bool:
        if self.runtime.active:
            # Stale commits and quarantine rounds cannot promise it.
            return False
        return getattr(
            self.runtime.coordinator.algorithm, "work_conserving", False
        )

    def on_attached(self, engine) -> None:
        engine.control_plane = self.runtime
        self.runtime.attach(engine)

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        runtime = self.runtime
        if not runtime.active:
            # Nothing is ever quarantined in passive mode.
            self.last_allocation_was_fallback = False
            return runtime._coordinated_rates(view)
        self.last_allocation_was_fallback = True
        return runtime.allocate_active(view)

    def fork(self) -> "ControlPlaneScheduler":
        clone = type(self)(copy.deepcopy(self.runtime))
        clone.last_allocation_was_fallback = self.last_allocation_was_fallback
        return clone

    def __deepcopy__(self, memo):
        clone = type(self)(copy.deepcopy(self.runtime, memo))
        clone.last_allocation_was_fallback = self.last_allocation_was_fallback
        memo[id(self)] = clone
        return clone

"""Replays a :class:`FaultSchedule` against one engine, deterministically.

The injector arms one ``EventKind.FAULT`` event per schedule entry at
attach time. When an event fires it mutates the live network -- capacity
changes flow through :meth:`NetworkModel.set_link_capacity` (which keeps
the residual accounting and finish heap consistent and rescales in-flight
flows), downed links are blocked in the router and crossing flows are
migrated to surviving paths via :meth:`NetworkModel.reroute_flows` -- and
the engine reschedules with the ``fault`` trigger cause. Restores return
links to their *nominal* capacity and unblock routes; flows migrated away
keep their new paths (per-flow path pinning, as real ECMP fabrics do),
while stranded flows simply resume.

``crash_scheduler`` events arm a poison pill on the run's
:class:`~repro.faults.ResilientScheduler`; attaching a schedule containing
crashes to an engine without one raises immediately, since nothing would
contain the crash.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .schedule import _CONTROL_ACTIONS, FaultEvent, FaultSchedule, parse_fault_spec
from .resilient import ResilientScheduler


def find_resilient(scheduler) -> Optional[ResilientScheduler]:
    """Locate a ResilientScheduler in a wrapper chain (or ``None``)."""
    layer = scheduler
    seen = set()
    while layer is not None and id(layer) not in seen:
        if isinstance(layer, ResilientScheduler):
            return layer
        seen.add(id(layer))
        layer = getattr(layer, "inner", None)
    return None


class FaultInjector:
    """Binds a fault schedule to one engine run.

    Injectors are single-use: each engine needs its own (the shared,
    immutable schedule is the reusable part). ``fired`` accumulates one
    record dict per applied event, mirroring the obs ``fault`` events.
    """

    def __init__(self, schedule) -> None:
        if isinstance(schedule, str):
            schedule = parse_fault_spec(schedule)
        if not isinstance(schedule, FaultSchedule):
            raise TypeError(
                f"expected a FaultSchedule or spec string, got {schedule!r}"
            )
        self.schedule = schedule
        self.engine = None
        self.fired: List[Dict] = []
        #: id(armed Event) -> (Event, FaultEvent). Lets snapshot/fork
        #: (repro.simulator.state) recognize which pending FAULT events
        #: are this injector's and re-arm them against a forked engine;
        #: holding the Event strongly keeps ids stable.
        self._armed: Dict[int, Tuple] = {}

    def attach(self, engine) -> None:
        """Validate the schedule against the engine and arm its events."""
        if self.engine is not None:
            raise ValueError(
                "FaultInjector is already attached; build one per engine"
            )
        for key in self.schedule.link_keys():
            engine.topology.link(*key)  # raises KeyError on unknown links
        if self.schedule.has_crashes and find_resilient(engine.scheduler) is None:
            raise ValueError(
                "crash_scheduler faults require a ResilientScheduler in the "
                "scheduler chain (wrap with repro.faults.ResilientScheduler)"
            )
        if (
            self.schedule.has_control_faults
            and getattr(engine, "control_plane", None) is None
        ):
            raise ValueError(
                "control-plane faults (crash_agent / crash_coordinator / "
                "partition_control / rpc_noise) require a ControlPlaneRuntime "
                "on the engine (schedule with repro.system.runtime, or drop "
                "the control clauses)"
            )
        self.engine = engine
        for event in self.schedule:
            armed = engine.schedule_fault(
                event.time, lambda ev=event: self._fire(ev)
            )
            if armed is not None:
                self._armed[id(armed)] = (armed, event)

    def detach(self) -> None:
        """Let go of the engine once its run is answered for: drop it and
        the armed events, whose callbacks lead back here, so neither side
        keeps the other alive. ``fired`` stays readable."""
        self.engine = None
        self._armed.clear()

    # ------------------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        engine = self.engine
        now = engine.now
        record: Dict = {
            "time": now,
            "action": event.action,
            "links": [list(key) for key in event.links],
        }
        if event.action == "crash_scheduler":
            resilient = find_resilient(engine.scheduler)
            resilient.arm_crash(reason=f"injected crash_scheduler@{event.time:g}")
        elif event.action in _CONTROL_ACTIONS:
            if event.target is not None:
                record["target"] = event.target
            if event.spec is not None:
                record["spec"] = event.spec
            engine.control_plane.apply_fault(event)
        else:
            record["capacities"] = self._apply_link_event(event, record)
        self.fired.append(record)
        if engine.obs is not None:
            notify = getattr(engine.obs, "on_fault", None)
            if notify is not None:
                notify(record, now)
        if engine.check is not None:
            audit = getattr(engine.check, "on_fault", None)
            if audit is not None:
                audit(engine, now)

    def _apply_link_event(self, event: FaultEvent, record: Dict) -> Dict:
        engine = self.engine
        network = engine.network
        router = network.router
        capacities: Dict[str, float] = {}
        for key in event.links:
            link = engine.topology.link(*key)
            if event.action == "link_down":
                target = 0.0
            elif event.action == "degrade":
                target = link.nominal_capacity * event.factor
            else:  # link_restore
                target = link.nominal_capacity
            network.set_link_capacity(key, target)
            capacities["->".join(key)] = target
        if event.action == "link_down":
            blocker = getattr(router, "block_links", None)
            if blocker is not None:
                blocker(event.links)
            migrated, stranded = network.reroute_flows(event.links)
            record["migrated"] = migrated
            record["stranded"] = stranded
        elif event.action == "link_restore":
            unblocker = getattr(router, "unblock_links", None)
            if unblocker is not None:
                unblocker(event.links)
        return capacities

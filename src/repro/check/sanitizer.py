"""The runtime sanitizer: invariant checks at engine event boundaries.

One :class:`Sanitizer` instance rides along with one
:class:`~repro.simulator.engine.Engine`, called through the same
zero-overhead hook pattern as the ``obs`` instrumentation (``if
self.check is not None: ...`` -- one attribute test per hook site when
disabled, nothing at all when the attribute is ``None``).

Strict mode raises :class:`~repro.check.violations.CheckViolation` on the
first breach; collect mode accumulates violations into a bounded
:class:`~repro.check.violations.ViolationLog`, mirrors each one into the
obs JSONL event log when the run is instrumented (so ``repro diagnose``
artifacts carry them), and surfaces everything through :meth:`report`.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, List, Optional, Tuple

from .config import CheckConfig
from .invariants import infeasible_links, scan_earliest_finish, unserved_flows
from .twin import TwinOracle
from .violations import CheckViolation, Violation, ViolationLog

#: Absolute time slack shared with the engine's event coalescing.
_TIME_EPS = 1e-9


class Sanitizer:
    """Checks the invariant catalog as one engine's run unfolds."""

    def __init__(self, config: CheckConfig, stats=None) -> None:
        if not config.enabled:
            raise ValueError("cannot build a Sanitizer from an 'off' config")
        self.config = config
        self.log = ViolationLog(capacity=config.max_violations)
        self.twin = TwinOracle(config) if config.twin_sample > 0.0 else None
        #: Deterministic twin-sampling stream, independent of global RNG.
        self._rng = random.Random(config.seed)
        #: invariant name -> number of times it was evaluated.
        self.checks: Dict[str, int] = {}
        self.engine = None
        self._event_log = None
        #: Aggregator shared across sanitizers (repro.check global stats).
        self._stats = stats
        #: (job_id, task_id) -> completion time, for dependency ordering.
        self._task_done: Dict[Tuple[str, str], float] = {}
        #: Groups whose arrangement monotonicity was already validated.
        self._validated_groups: set = set()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, engine) -> None:
        """Bind to the engine; picks up the obs event log when present.

        The engine holds its sanitizer, so the sanitizer holds the engine
        by a weak proxy: a finished run is freed by reference counting,
        not left in a cycle for the collector. (An object that cannot be
        weakly referenced, such as a namespace standing in for an engine,
        is held as is.)"""
        try:
            self.engine = weakref.proxy(engine)
        except TypeError:
            self.engine = engine
        obs = getattr(engine, "obs", None)
        self._event_log = getattr(obs, "event_log", None) if obs else None

    def fork(self) -> "Sanitizer":
        """A sanitizer for a forked engine, continuing this one's streams.

        Correctness state carries over: ``_task_done`` must travel or the
        fork would flag phantom causality violations for post-fork tasks
        whose dependencies completed pre-fork, and the twin-sampling RNG
        resumes mid-stream so a forked-and-resumed run samples exactly the
        invocations an uninterrupted run would (the bit-identical twin
        guard depends on it). The violation log starts empty (a fork's
        verdicts are its own); the cross-run stats aggregator is shared.
        The clone is unattached -- the forked engine's constructor path
        calls :meth:`attach`.
        """
        clone = Sanitizer(self.config, stats=self._stats)
        clone._rng.setstate(self._rng.getstate())
        clone.checks = dict(self.checks)
        clone._task_done = dict(self._task_done)
        clone._validated_groups = set(self._validated_groups)
        return clone

    # ------------------------------------------------------------------
    # violation dispatch
    # ------------------------------------------------------------------

    def _violate(self, violation: Violation) -> None:
        self.log.add(violation)
        if self._stats is not None:
            self._stats.record(violation)
        if self._event_log is not None:
            self._event_log.append(
                "check_violation",
                violation.time,
                invariant=violation.invariant,
                message=violation.message,
                details=violation.details,
            )
        if self.config.strict:
            raise CheckViolation(violation)

    def _violate_all(self, violations: List[Violation]) -> None:
        for violation in violations:
            self._violate(violation)

    def _count(self, invariant: str) -> bool:
        """Record one evaluation; False when the invariant is filtered."""
        if not self.config.wants(invariant):
            return False
        self.checks[invariant] = self.checks.get(invariant, 0) + 1
        return True

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------

    def on_flow_injected(self, state, now: float) -> None:
        flow = state.flow
        if self._count("arrangement") and flow.group_id is not None:
            group = self.engine.echelonflows.get(flow.group_id)
            if (
                group is not None
                and group.reference_time is not None
                and flow.group_id not in self._validated_groups
            ):
                self._validated_groups.add(flow.group_id)
                try:
                    group.arrangement.validate(group.index_count)
                except (ValueError, IndexError) as exc:
                    self._violate(
                        Violation(
                            invariant="arrangement",
                            time=now,
                            message=(
                                f"EchelonFlow {flow.group_id!r} has a "
                                f"non-monotone arrangement"
                            ),
                            details={"group": flow.group_id, "error": str(exc)},
                        )
                    )

    def on_flow_finished(self, state, record, now: float) -> None:
        flow = state.flow
        if self._count("causality") and record.finish < record.start - _TIME_EPS:
            self._violate(
                Violation(
                    invariant="causality",
                    time=now,
                    message=f"flow {flow.flow_id} finished before it started",
                    details={
                        "flow": flow.flow_id,
                        "start": record.start,
                        "finish": record.finish,
                    },
                )
            )
        if self._count("conservation"):
            leftover = state.remaining
            if leftover > flow.finish_epsilon * (1.0 + 1e-9) + _TIME_EPS:
                self._violate(
                    Violation(
                        invariant="conservation",
                        time=now,
                        message=(
                            f"flow {flow.flow_id} retired with undrained bytes"
                        ),
                        details={
                            "flow": flow.flow_id,
                            "remaining": leftover,
                            "threshold": flow.finish_epsilon,
                        },
                    )
                )
        if self._count("arrangement") and flow.group_id is not None:
            group = self.engine.echelonflows.get(flow.group_id)
            if (
                group is not None
                and group.reference_time is not None
                and state.ideal_finish_time is not None
            ):
                derived = group.ideal_finish_time_of(flow)
                if abs(state.ideal_finish_time - derived) > _TIME_EPS:
                    self._violate(
                        Violation(
                            invariant="arrangement",
                            time=now,
                            message=(
                                f"flow {flow.flow_id} carries a stale cached "
                                f"ideal finish time"
                            ),
                            details={
                                "flow": flow.flow_id,
                                "cached": state.ideal_finish_time,
                                "derived": derived,
                                "group": flow.group_id,
                            },
                        )
                    )

    def on_task_complete(self, dag, task, now: float) -> None:
        key = (dag.job_id, task.task_id)
        if self._count("causality"):
            start = now - task.duration if task.duration else now
            for dep in task.deps:
                dep_key = (dag.job_id, dep)
                dep_time = self._task_done.get(dep_key)
                if dep_time is None:
                    self._violate(
                        Violation(
                            invariant="causality",
                            time=now,
                            message=(
                                f"task {task.task_id!r} of job "
                                f"{dag.job_id!r} completed before its "
                                f"dependency {dep!r}"
                            ),
                            details={"task": task.task_id, "dependency": dep},
                        )
                    )
                elif start < dep_time - _TIME_EPS:
                    self._violate(
                        Violation(
                            invariant="causality",
                            time=now,
                            message=(
                                f"task {task.task_id!r} of job "
                                f"{dag.job_id!r} started before its "
                                f"dependency {dep!r} finished"
                            ),
                            details={
                                "task": task.task_id,
                                "dependency": dep,
                                "start": start,
                                "dependency_done": dep_time,
                            },
                        )
                    )
        self._task_done[key] = now

    def on_allocation(self, view, rates: Dict[int, float]) -> None:
        """Sanity-check the scheduler's raw output, then maybe twin it."""
        network = view.network
        if self._count("rate_sanity"):
            active = network._active
            for flow_id, rate in rates.items():
                bad: Optional[str] = None
                if rate != rate or rate in (float("inf"), float("-inf")):
                    bad = f"non-finite rate {rate!r}"
                elif rate < 0.0:
                    bad = f"negative rate {rate!r}"
                elif rate > 0.0 and flow_id not in active:
                    bad = "positive rate for a flow that is not active"
                if bad is not None:
                    self._violate(
                        Violation(
                            invariant="rate_sanity",
                            time=view.now,
                            message=f"flow {flow_id}: {bad}",
                            details={"flow": flow_id, "rate": rate},
                        )
                    )
        if (
            self.twin is not None
            and self.config.wants("twin")
            and self._rng.random() < self.config.twin_sample
            and not self._fallback_invocation()
        ):
            self._count("twin")
            self._violate_all(self.twin.compare(self.engine, view, rates))

    def _fallback_invocation(self) -> bool:
        """Did a ResilientScheduler degrade the invocation just checked?

        A contained crash (or organic inner-scheduler exception) is by
        definition not deterministically replayable -- the shadow clone
        would run the inner scheduler where the primary fell back to fair
        sharing -- so the twin oracle sits those invocations out.
        """
        layer = self.engine.scheduler
        seen = set()
        while layer is not None and id(layer) not in seen:
            if getattr(layer, "last_allocation_was_fallback", False):
                return True
            seen.add(id(layer))
            layer = getattr(layer, "inner", None)
        return False

    def on_fault(self, engine, now: float) -> None:
        """Audit the maintained state right after a fault mutated it.

        Capacity mutation and flow migration rewrite the residual
        accounting, rescale in-flight rates and re-key the finish heap
        outside the normal ``set_rates`` path; this re-runs the accounting
        audit, the finish-heap scan and the from-scratch capacity
        recompute at the mutation boundary, before the fault-caused
        reschedule gets a chance to paper over drift.
        """
        network = engine.network
        if self._count("finish_index"):
            self._check_finish_index(network, now)
        if self._count("accounting"):
            for problem in network.verify_accounting(
                self.config.accounting_tolerance
            ):
                self._violate(
                    Violation(
                        invariant="accounting",
                        time=now,
                        message=(
                            f"residual accounting drifted on link "
                            f"{problem['link']} after a fault: {problem['kind']}"
                        ),
                        details=problem,
                    )
                )
        if self._count("capacity"):
            applied = {
                state.flow.flow_id: state.rate
                for state in network.iter_active()
            }
            for problem in infeasible_links(
                network.demands(), applied, self.config.capacity_tolerance
            ):
                self._violate(
                    Violation(
                        invariant="capacity",
                        time=now,
                        message=(
                            f"link {problem['link']} oversubscribed after a "
                            f"fault: load {problem['load']:.9g} > capacity "
                            f"{problem['capacity']:.9g}"
                        ),
                        details=problem,
                    )
                )

    def on_rates_applied(self, view) -> None:
        """Audit the network's post-apply state (the rates flows drain at)."""
        network = view.network
        if self._count("capacity"):
            applied = {
                state.flow.flow_id: state.rate
                for state in network.iter_active()
            }
            problems = infeasible_links(
                network.demands(), applied, self.config.capacity_tolerance
            )
            for problem in problems:
                self._violate(
                    Violation(
                        invariant="capacity",
                        time=view.now,
                        message=(
                            f"link {problem['link']} oversubscribed: "
                            f"load {problem['load']:.9g} > capacity "
                            f"{problem['capacity']:.9g}"
                        ),
                        details=problem,
                    )
                )
        if self._count("accounting"):
            for problem in network.verify_accounting(
                self.config.accounting_tolerance
            ):
                self._violate(
                    Violation(
                        invariant="accounting",
                        time=view.now,
                        message=(
                            f"residual accounting drifted on link "
                            f"{problem['link']}: {problem['kind']}"
                        ),
                        details=problem,
                    )
                )
        if self._count("finish_index"):
            self._check_finish_index(network, view.now)
        if self._count("arrangement"):
            self._check_dated(network, view.now)
        if self._count("work_conservation") and getattr(
            self.engine.scheduler, "work_conserving", False
        ):
            network.sync_active()
            states = network.active_states()
            applied = {s.flow.flow_id: s.rate for s in states}
            remaining = {s.flow.flow_id: s.remaining for s in states}
            thresholds = {
                s.flow.flow_id: s.flow.finish_epsilon for s in states
            }
            for problem in unserved_flows(
                network.demands(),
                applied,
                remaining,
                thresholds,
                self.config.work_conservation_tolerance,
            ):
                self._violate(
                    Violation(
                        invariant="work_conservation",
                        time=view.now,
                        message=(
                            f"work-conserving scheduler "
                            f"{self.engine.scheduler.name!r} left flow "
                            f"{problem['flow']} with headroom "
                            f"{problem['headroom']:.9g} on every path link"
                        ),
                        details=problem,
                    )
                )

    def _check_finish_index(self, network, now: float) -> None:
        """The finish heap's next departure against a plain scan."""
        indexed = network.earliest_finish_interval()
        scanned = scan_earliest_finish(network)
        if indexed == scanned:
            return
        nearest = min(
            (state.flow.flow_id for state in network.iter_active()),
            key=network.time_to_finish,
        )
        self._violate(
            Violation(
                invariant="finish_index",
                time=now,
                message=(
                    f"finish heap puts the next departure {indexed!r} s "
                    f"ahead, a scan of the active flows {scanned!r} s "
                    f"(flow {nearest})"
                ),
                details={"indexed": indexed, "scanned": scanned, "flow": nearest},
            )
        )

    def _check_dated(self, network, now: float) -> None:
        """Every active member of a pinned EchelonFlow carries its date."""
        echelonflows = self.engine.echelonflows
        undated = []
        for state in network.iter_active():
            group_id = state.flow.group_id
            if group_id is None or state.ideal_finish_time is not None:
                continue
            group = echelonflows.get(group_id)
            if group is not None and group.reference_time is not None:
                undated.append((state.flow.flow_id, group_id))
        if undated:
            flow_id, group_id = undated[0]
            self._violate(
                Violation(
                    invariant="arrangement",
                    time=now,
                    message=(
                        f"flow {flow_id} of pinned EchelonFlow {group_id!r} "
                        f"has no ideal finish time ({len(undated)} such flows)"
                    ),
                    details={
                        "flows": [fid for fid, _ in undated[:10]],
                        "groups": sorted({gid for _, gid in undated}),
                        "count": len(undated),
                    },
                )
            )

    def on_run_end(self, trace) -> None:
        engine = self.engine
        network = engine.network
        if self._count("conservation"):
            network.sync_active()
            expected = sum(
                state.flow.size - state.remaining
                for state in network.completed_states
            )
            expected += sum(
                state.flow.size - state.remaining
                for state in network.active_states()
            )
            delivered = network.bytes_delivered
            scale = max(abs(expected), abs(delivered), 1.0)
            if abs(delivered - expected) > self.config.conservation_tolerance * scale:
                self._violate(
                    Violation(
                        invariant="conservation",
                        time=trace.end_time,
                        message=(
                            "delivered bytes disagree with per-flow drains"
                        ),
                        details={
                            "bytes_delivered": delivered,
                            "expected": expected,
                            "relative_error": abs(delivered - expected) / scale,
                        },
                    )
                )
        if self._count("group_tardiness"):
            self._check_group_tardiness(trace)

    def _check_group_tardiness(self, trace) -> None:
        """Eq. 2 consistency for every fully-completed EchelonFlow."""
        finishes: Dict[int, float] = {}
        starts: Dict[int, float] = {}
        for record in trace.flow_records:
            finishes[record.flow.flow_id] = record.finish
            starts[record.flow.flow_id] = record.start
        for group_id, group in sorted(self.engine.echelonflows.items()):
            if group.reference_time is None or not len(group):
                continue
            members = group.flows
            if any(flow.flow_id not in finishes for flow in members):
                continue  # group still in flight at run end
            derived = max(
                finishes[flow.flow_id] - group.ideal_finish_time_of(flow)
                for flow in members
            )
            core = group.tardiness(finishes)
            if abs(derived - core) > _TIME_EPS:
                self._violate(
                    Violation(
                        invariant="group_tardiness",
                        time=trace.end_time,
                        message=(
                            f"trace-derived Eq. 2 tardiness of "
                            f"{group_id!r} disagrees with the core"
                        ),
                        details={
                            "group": group_id,
                            "trace": derived,
                            "core": core,
                        },
                    )
                )
            # d_0 = r = s_0: when the head flow's start pinned the
            # reference, its own tardiness e_0 - d_0 = e_0 - s_0 >= 0,
            # so the Eq. 2 max is >= 0 too.
            head_pinned = any(
                flow.index_in_group == 0
                and abs(starts[flow.flow_id] - group.reference_time) <= _TIME_EPS
                for flow in members
            )
            if head_pinned and derived < -_TIME_EPS:
                self._violate(
                    Violation(
                        invariant="group_tardiness",
                        time=trace.end_time,
                        message=(
                            f"EchelonFlow {group_id!r} has negative Eq. 2 "
                            f"tardiness despite a head-pinned reference"
                        ),
                        details={"group": group_id, "tardiness": derived},
                    )
                )

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    @property
    def violation_count(self) -> int:
        return self.log.total

    def report(self) -> Dict:
        """Structured summary: config, per-invariant activity, violations."""
        twin = None
        if self.twin is not None:
            twin = {
                "sample": self.config.twin_sample,
                "comparisons": self.twin.comparisons,
                "skipped": self.twin.skipped,
            }
        return {
            "mode": self.config.mode,
            "checks": dict(sorted(self.checks.items())),
            "twin": twin,
            **self.log.to_dict(),
        }

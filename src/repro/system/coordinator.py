"""The cluster-wide Coordinator of Fig. 7.

Receives EchelonFlow requests from agents, maintains the registry of live
EchelonFlows, and computes bandwidth allocations with a pluggable heuristic
(the adapted MADD by default). "Such algorithms would rerun per
EchelonFlow arrival/departure or per scheduling interval" -- in simulation
the engine triggers exactly those reruns; the coordinator additionally
counts them so scalability benches can report scheduling-invocation costs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.echelonflow import EchelonFlow
from ..scheduling.base import Scheduler, SchedulerView
from ..scheduling.echelon_madd import EchelonMaddScheduler
from .messages import BandwidthAllocation, EchelonFlowRequest


class Coordinator:
    """Registers EchelonFlows and computes cluster-wide allocations."""

    def __init__(
        self, algorithm: Optional[Scheduler] = None, registry=None
    ) -> None:
        """``registry`` is an optional
        :class:`repro.obs.registry.MetricsRegistry`; when provided the
        coordinator publishes its invocation counts there as
        ``coordinator_invocations_total{cause=...}``."""
        self.algorithm = algorithm or EchelonMaddScheduler()
        self.echelonflows: Dict[str, EchelonFlow] = {}
        self.request_log: List[EchelonFlowRequest] = []
        self.allocation_log: List[BandwidthAllocation] = []
        self.invocations = 0
        #: Reruns per trigger cause, the Section 5 cost accounting.
        self.invocations_by_cause: Dict[str, int] = {}
        self.registry = registry

    # -- the agent-facing RPC surface ----------------------------------

    def register(self, request: EchelonFlowRequest) -> EchelonFlow:
        """Handle an EchelonFlow request: build and register the group."""
        if request.ef_id in self.echelonflows:
            raise ValueError(f"EchelonFlow {request.ef_id!r} already registered")
        echelonflow = EchelonFlow(
            request.ef_id, request.arrangement.build(), job_id=request.job_id
        )
        self.request_log.append(request)
        self.echelonflows[request.ef_id] = echelonflow
        return echelonflow

    def deregister(self, ef_id: str) -> None:
        self.echelonflows.pop(ef_id, None)

    # -- the engine-facing scheduling surface ---------------------------

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        self.invocations += 1
        cause = getattr(view, "trigger_cause", None) or "unknown"
        self.invocations_by_cause[cause] = (
            self.invocations_by_cause.get(cause, 0) + 1
        )
        if self.registry is not None:
            self.registry.counter(
                "coordinator_invocations_total", cause=cause
            ).inc()
        rates = self.algorithm.allocate(view)
        self.allocation_log.append(
            BandwidthAllocation(issued_at=view.now, rates=dict(rates))
        )
        return rates


"""The EchelonFlow Agent: a shim between frameworks and backends (Fig. 7).

Inspired by ByteScheduler, the agent sits under the DDLT framework: it
receives EchelonFlow registrations through the EchelonFlow API and
forwards them to the coordinator over the control plane
(:class:`~repro.system.runtime.ControlPlaneRuntime`); the backends
enforce the returned allocations through weighted priority queues
(:class:`~repro.system.QueueEnforcedScheduler`).

One agent serves one framework instance (one job); a cluster run has many
agents sharing one coordinator, which is how EchelonFlow coordinates
*across* jobs where prior DDLT schedulers optimized each job alone.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.echelonflow import EchelonFlow
from .messages import ArrangementDescriptor, EchelonFlowRequest, FlowInfo


class EchelonFlowAgent:
    """Per-framework agent process speaking to the coordinator over RPC.

    Built by :meth:`ControlPlaneRuntime.spawn_agent`, which owns the
    channel, the leases and the coordinator this agent reports to.
    """

    def __init__(self, framework: str, runtime) -> None:
        self.framework = framework
        self.runtime = runtime
        #: Process liveness (flipped by crash_agent / agent_restore).
        self.up = True
        #: Control-network reachability (partition_control with a target).
        self.partitioned = False
        #: True while the coordinator considers this agent dead.
        self.quarantined = False
        #: Sim-time the current liveness lease runs out (None = no lease yet).
        self.lease_expires: Optional[float] = None
        #: Coordinator epoch this agent last synced its state against;
        #: -1 forces a full resync on the next delivered heartbeat.
        self.synced_epoch = 0
        #: ef_id -> (request, live EchelonFlow), kept for resync when the
        #: control plane can fail.
        self.records: Dict[str, Tuple[EchelonFlowRequest, EchelonFlow]] = {}
        #: ef_id -> the object scheduling consults.
        self.registered: Dict[str, EchelonFlow] = {}

    # -- EchelonFlow API (called by the framework adapter) --------------

    def report_echelonflow(self, echelonflow: EchelonFlow) -> EchelonFlow:
        """Report one EchelonFlow: arrangement + per-flow size/src/dst.

        Returns the coordinator-side EchelonFlow object that scheduling
        will consult. The framework keeps emitting flows tagged with the
        group id; no further coordination calls are needed per flow.
        """
        if echelonflow.ef_id in self.registered:
            raise ValueError(
                f"agent {self.framework!r} already reported {echelonflow.ef_id!r}"
            )
        flows = tuple(
            FlowInfo(
                flow_id=flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                size=flow.size,
                index_in_group=flow.index_in_group,
            )
            for flow in echelonflow.flows
        )
        request = EchelonFlowRequest(
            ef_id=echelonflow.ef_id,
            job_id=echelonflow.job_id or self.framework,
            framework=self.framework,
            arrangement=ArrangementDescriptor.from_arrangement(
                echelonflow.arrangement, echelonflow.index_count
            ),
            flows=flows,
        )
        registered = self.runtime.register(self, request, echelonflow)
        self.registered[echelonflow.ef_id] = registered
        return registered

    @property
    def ef_ids(self) -> Tuple[str, ...]:
        return tuple(self.records)

"""The Fig. 7 system sketch: agents, coordinator, and queue enforcement."""

from .agent import EchelonFlowAgent
from .backend import QueueEnforcedScheduler, allocation_error, quantize_to_queue
from .coordinator import Coordinator
from .framework import ClusterRun, FrameworkInstance, run_cluster
from .messages import (
    ArrangementDescriptor,
    ArrangementKind,
    BandwidthAllocation,
    EchelonFlowRequest,
    FlowInfo,
    QueueAssignment,
)
from .runtime import (
    ControlPlaneRuntime,
    ControlPlaneScheduler,
    RpcChannel,
    RpcSpec,
    run_chaos_suite,
)

__all__ = [
    "EchelonFlowAgent",
    "Coordinator",
    "QueueEnforcedScheduler",
    "quantize_to_queue",
    "allocation_error",
    "FrameworkInstance",
    "ClusterRun",
    "run_cluster",
    "ArrangementDescriptor",
    "ArrangementKind",
    "EchelonFlowRequest",
    "FlowInfo",
    "BandwidthAllocation",
    "QueueAssignment",
    "ControlPlaneRuntime",
    "ControlPlaneScheduler",
    "RpcChannel",
    "RpcSpec",
    "run_chaos_suite",
]

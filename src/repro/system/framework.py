"""Framework adapters: wiring training jobs through the agent stack.

In the sketch, "for each training instance, the framework breaks down the
workflow into EchelonFlows ... based on the training paradigm used". Our
paradigm builders already produce that breakdown; the adapter here plays
the framework role: it reports every EchelonFlow through its agent (rather
than registering directly with the engine) and then launches the job.

:func:`run_cluster` is the whole Fig. 7 loop in one call: N frameworks,
N agents, one control-plane runtime with one coordinator, one shared
network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..simulator.engine import Engine
from ..simulator.trace import SimulationTrace
from ..topology.graph import Topology
from ..workloads.job import BuiltJob
from .agent import EchelonFlowAgent
from .backend import QueueEnforcedScheduler
from .coordinator import Coordinator

if TYPE_CHECKING:
    from .runtime import ControlPlaneRuntime


@dataclass
class FrameworkInstance:
    """One training framework (job) attached to an agent."""

    job: BuiltJob
    agent: EchelonFlowAgent
    arrival_time: float = 0.0

    def launch(self, engine: Engine) -> None:
        """Report EchelonFlows via the agent, then submit the DAG.

        The coordinator-side EchelonFlow objects (returned by the agent)
        are also registered with the engine: the engine plays the role of
        the framework runtime that observes head-flow starts and pins
        reference times, which is what makes the coordinator's arrangement
        deadlines live. Without this the coordinator would schedule
        against unpinned references -- i.e. no deadlines at all.
        """
        registered = [
            self.agent.report_echelonflow(echelonflow)
            for echelonflow in self.job.echelonflows
        ]
        engine.submit(
            self.job.dag, at_time=self.arrival_time, echelonflows=tuple(registered)
        )


@dataclass
class ClusterRun:
    """Results of a full system run."""

    trace: SimulationTrace
    runtime: "ControlPlaneRuntime"
    engine: Engine
    frameworks: List[FrameworkInstance]

    @property
    def coordinator(self) -> Coordinator:
        return self.runtime.coordinator

    def job_completion_times(self) -> Dict[str, float]:
        return {
            fw.job.job_id: self.engine.job_completion_time(fw.job.job_id)
            - fw.arrival_time
            for fw in self.frameworks
        }


def run_cluster(
    topology: Topology,
    jobs: Sequence[Tuple[BuiltJob, float]],
    runtime: Optional["ControlPlaneRuntime"] = None,
    faults=None,
    sanitizer=None,
    instrumentation=None,
    enforce_with_queues: bool = False,
    num_queues: int = 8,
) -> ClusterRun:
    """Run jobs through the full agent/coordinator/backend stack.

    ``jobs`` is a list of (built job, arrival time); each job gets one
    agent of ``runtime`` (a fresh identity-channel
    :class:`~repro.system.runtime.ControlPlaneRuntime` by default).
    ``faults`` may carry control-plane clauses, which the runtime
    serves. With ``enforce_with_queues`` the coordinator's allocation
    passes through the WFQ quantization of Section 5 before reaching
    the network.
    """
    # Deferred: the runtime package's chaos suite imports this module.
    from .runtime import ControlPlaneRuntime, ControlPlaneScheduler

    runtime = runtime or ControlPlaneRuntime()
    scheduler = ControlPlaneScheduler(runtime)
    if enforce_with_queues:
        scheduler = QueueEnforcedScheduler(scheduler, num_queues=num_queues)
    engine = Engine(
        topology,
        scheduler,
        faults=faults,
        sanitizer=sanitizer,
        instrumentation=instrumentation,
    )
    frameworks: List[FrameworkInstance] = []
    for job, arrival in jobs:
        instance = FrameworkInstance(
            job=job, agent=runtime.spawn_agent(job.job_id), arrival_time=arrival
        )
        instance.launch(engine)
        frameworks.append(instance)
    trace = engine.run()
    return ClusterRun(
        trace=trace, runtime=runtime, engine=engine, frameworks=frameworks
    )

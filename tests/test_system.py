"""The Fig. 7 system stack: messages, agent, coordinator, enforcement."""

import pytest

from repro.core.arrangement import (
    CoflowArrangement,
    PhasedArrangement,
    StaggeredArrangement,
    TabledArrangement,
)
from repro.core.echelonflow import EchelonFlow
from repro.core.flow import Flow
from repro.scheduling import EchelonMaddScheduler, FairSharingScheduler
from repro.system import (
    ArrangementDescriptor,
    ArrangementKind,
    ControlPlaneRuntime,
    Coordinator,
    EchelonFlowAgent,
    QueueEnforcedScheduler,
    allocation_error,
    quantize_to_queue,
    run_cluster,
)
from repro.system.messages import EchelonFlowRequest, FlowInfo
from repro.topology import big_switch, two_hosts
from repro.workloads import build_pipeline_segment, build_dp_allreduce, uniform_model


class TestArrangementDescriptor:
    @pytest.mark.parametrize(
        "arrangement",
        [
            CoflowArrangement(),
            StaggeredArrangement(2.5),
            PhasedArrangement(layers=3, forward_distance=1.0, backward_distance=2.0),
            TabledArrangement((0.0, 0.5, 2.0)),
        ],
    )
    def test_round_trip(self, arrangement):
        descriptor = ArrangementDescriptor.from_arrangement(arrangement, count=3)
        rebuilt = descriptor.build()
        for j in range(3):
            assert rebuilt.offset(j) == pytest.approx(arrangement.offset(j))

    def test_kinds(self):
        assert (
            ArrangementDescriptor.from_arrangement(CoflowArrangement(), 1).kind
            is ArrangementKind.COFLOW
        )
        assert (
            ArrangementDescriptor.from_arrangement(StaggeredArrangement(1.0), 2).kind
            is ArrangementKind.STAGGERED
        )


class TestCoordinator:
    def _request(self, ef_id="ef"):
        return EchelonFlowRequest(
            ef_id=ef_id,
            job_id="j",
            framework="fw",
            arrangement=ArrangementDescriptor(ArrangementKind.STAGGERED, (2.0,)),
            flows=(FlowInfo(flow_id=0, src="h0", dst="h1", size=1.0, index_in_group=0),),
        )

    def test_register_builds_echelonflow(self):
        coordinator = Coordinator()
        ef = coordinator.register(self._request())
        assert ef.ef_id == "ef"
        assert ef.arrangement.distance == 2.0
        assert coordinator.request_log[0].framework == "fw"

    def test_duplicate_registration_rejected(self):
        coordinator = Coordinator()
        coordinator.register(self._request())
        with pytest.raises(ValueError):
            coordinator.register(self._request())

    def test_deregister_is_idempotent(self):
        coordinator = Coordinator()
        coordinator.register(self._request())
        coordinator.deregister("ef")
        coordinator.deregister("ef")
        assert "ef" not in coordinator.echelonflows


class TestAgent:
    def test_report_echelonflow_registers_flows(self):
        coordinator = Coordinator()
        agent = ControlPlaneRuntime(coordinator=coordinator).spawn_agent("fw")
        assert isinstance(agent, EchelonFlowAgent)
        ef = EchelonFlow("ef", StaggeredArrangement(1.0), job_id="j")
        flow = Flow("h0", "h1", 5.0, group_id="ef", index_in_group=0)
        ef.add_flow(flow)
        registered = agent.report_echelonflow(ef)
        assert registered is coordinator.echelonflows["ef"]
        assert registered.cardinality == 1
        with pytest.raises(ValueError):
            agent.report_echelonflow(ef)


class TestQueueEnforcement:
    def test_quantize_bounds(self):
        assert quantize_to_queue(0.0, 8) == 0
        assert quantize_to_queue(1.0, 8) == 7
        assert quantize_to_queue(1e-9, 8) == 0
        with pytest.raises(ValueError):
            quantize_to_queue(0.5, 0)

    def test_quantize_monotone_in_share(self):
        shares = [0.001, 0.01, 0.1, 0.5, 1.0]
        queues = [quantize_to_queue(s, 8) for s in shares]
        assert queues == sorted(queues)

    def test_enforced_rates_approximate_ideal(self):
        # Two flows with very different urgency; enforcement should keep
        # the priority inversion-free ordering.
        topo = big_switch(3, 10.0)
        from repro.scheduling.base import SchedulerView
        from repro.simulator.network import NetworkModel
        from repro.topology import ShortestPathRouter

        network = NetworkModel(topo, ShortestPathRouter(topo))
        urgent = Flow("h0", "h1", 1.0)
        lazy = Flow("h0", "h2", 100.0)
        network.inject(urgent, 0.0)
        network.inject(lazy, 0.0)
        view = SchedulerView(now=0.0, network=network)

        from repro.scheduling import ShortestFlowFirstScheduler

        inner = ShortestFlowFirstScheduler()
        enforced = QueueEnforcedScheduler(inner, num_queues=8)
        ideal = inner.allocate(view)
        achieved = enforced.allocate(view)
        assert achieved[urgent.flow_id] > achieved[lazy.flow_id]
        mean_err, max_err = allocation_error(ideal, achieved)
        assert mean_err <= 1.0  # sanity: bounded distortion

    def test_allocation_error_ignores_zero_targets(self):
        assert allocation_error({1: 0.0}, {1: 5.0}) == (0.0, 0.0)
        mean_err, max_err = allocation_error({1: 10.0}, {1: 5.0})
        assert mean_err == pytest.approx(0.5)
        assert max_err == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueEnforcedScheduler(FairSharingScheduler(), num_queues=0)


class TestClusterRun:
    def test_fig2_through_the_full_stack(self):
        """Agent -> coordinator -> engine reproduces the direct result."""
        job = build_pipeline_segment(
            "j",
            "h0",
            "h1",
            release_times=[0.0, 1.0, 2.0],
            flow_sizes=[2.0, 2.0, 2.0],
            consumer_compute_times=[2.0, 2.0, 2.0],
        )
        run = run_cluster(two_hosts(1.0), [(job, 0.0)])
        assert run.trace.last_compute_end() == pytest.approx(8.0)
        assert run.coordinator.invocations > 0
        assert run.coordinator.request_log
        assert run.job_completion_times()["j"] == pytest.approx(8.0)

    def test_multi_job_cluster(self):
        model = uniform_model("m", 4, 50.0, 5.0, forward_time=0.5)
        job_a = build_dp_allreduce("a", model, ["h0", "h1"], bucket_bytes=1e9)
        job_b = build_dp_allreduce("b", model, ["h2", "h3"], bucket_bytes=1e9)
        run = run_cluster(big_switch(4, 100.0), [(job_a, 0.0), (job_b, 0.5)])
        jcts = run.job_completion_times()
        assert set(jcts) == {"a", "b"}
        assert all(t > 0 for t in jcts.values())

    def test_queue_enforcement_slows_but_completes(self):
        job = build_pipeline_segment(
            "j",
            "h0",
            "h1",
            release_times=[0.0, 1.0, 2.0],
            flow_sizes=[2.0, 2.0, 2.0],
            consumer_compute_times=[2.0, 2.0, 2.0],
        )
        run = run_cluster(two_hosts(1.0), [(job, 0.0)], enforce_with_queues=True)
        finish = run.trace.last_compute_end()
        assert finish >= 8.0 - 1e-9
        assert finish <= 12.0  # bounded distortion from quantization

"""System-stack edge cases: arrivals, JCT accounting, registries."""

import pytest

from repro.core.units import gbps, megabytes
from repro.scheduling import CoflowMaddScheduler
from repro.system import ControlPlaneRuntime, Coordinator, run_cluster
from repro.topology import big_switch
from repro.workloads import build_dp_allreduce, uniform_model

MODEL = uniform_model(
    "u4",
    4,
    param_bytes_per_layer=megabytes(10),
    activation_bytes=megabytes(5),
    forward_time=0.002,
)


def _job(name, hosts):
    return build_dp_allreduce(name, MODEL, hosts, bucket_bytes=megabytes(20))


def test_jct_is_measured_from_arrival():
    run = run_cluster(
        big_switch(4, gbps(10)),
        [(_job("late", ["h0", "h1"]), 5.0)],
    )
    jct = run.job_completion_times()["late"]
    # The job arrives at t=5; its JCT must exclude the idle prefix.
    assert jct < 1.0
    assert run.trace.end_time > 5.0


def test_custom_coordinator_algorithm_is_used():
    coordinator = Coordinator(algorithm=CoflowMaddScheduler())
    run = run_cluster(
        big_switch(4, gbps(10)),
        [(_job("j", ["h0", "h1"]), 0.0)],
        runtime=ControlPlaneRuntime(coordinator=coordinator),
    )
    assert run.coordinator is coordinator
    assert coordinator.invocations > 0


def test_agents_register_disjoint_echelonflows():
    run = run_cluster(
        big_switch(4, gbps(10)),
        [(_job("a", ["h0", "h1"]), 0.0), (_job("b", ["h2", "h3"]), 0.0)],
    )
    registered = run.coordinator.echelonflows
    a_groups = {k for k in registered if k.startswith("a/")}
    b_groups = {k for k in registered if k.startswith("b/")}
    assert a_groups and b_groups
    assert a_groups.isdisjoint(b_groups)
    # Per-agent logs carry only that framework's groups.
    for framework in run.frameworks:
        for ef_id in framework.agent.registered:
            assert ef_id.startswith(framework.job.job_id + "/")


def test_coordinator_allocation_log_is_chronological():
    run = run_cluster(
        big_switch(4, gbps(10)),
        [(_job("j", ["h0", "h1"]), 0.0)],
    )
    times = [a.issued_at for a in run.coordinator.allocation_log]
    assert times == sorted(times)


def test_reference_times_pinned_through_the_stack():
    run = run_cluster(
        big_switch(4, gbps(10)),
        [(_job("j", ["h0", "h1"]), 0.25)],
    )
    for ef in run.coordinator.echelonflows.values():
        assert ef.reference_time is not None
        assert ef.reference_time >= 0.25

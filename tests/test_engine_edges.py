"""Engine edge cases: deadlock detection, round limits, ECMP routing."""

import random
import re

import pytest

from repro import Engine, big_switch, leaf_spine, two_hosts
from repro.core.flow import Flow
from repro.scheduling import FairSharingScheduler
from repro.scheduling.base import Scheduler
from repro.simulator import SimulationError, TaskDag
from repro.topology import EcmpRouter


class _StarvingScheduler(Scheduler):
    """Pathological: assigns zero rate to everything."""

    name = "starving-test"

    def allocate(self, view):
        return {s.flow.flow_id: 0.0 for s in view.active_states()}


class _OversubscribingScheduler(Scheduler):
    """Pathological: assigns full link rate to every flow."""

    name = "oversubscribing-test"

    def allocate(self, view):
        return {s.flow.flow_id: 1e12 for s in view.active_states()}


def test_starving_scheduler_raises_deadlock():
    engine = Engine(two_hosts(1.0), _StarvingScheduler())
    dag = TaskDag("j")
    dag.add_comm("x", [Flow("h0", "h1", 1.0, job_id="j")])
    engine.submit(dag)
    with pytest.raises(SimulationError, match="deadlock"):
        engine.run()


def test_oversubscription_raises_in_strict_mode():
    from repro.simulator.network import CapacityViolation
    from repro.topology import big_switch

    engine = Engine(big_switch(3, 1.0), _OversubscribingScheduler())
    dag = TaskDag("j")
    dag.add_comm(
        "x",
        [Flow("h0", "h1", 1.0, job_id="j"), Flow("h0", "h2", 1.0, job_id="j")],
    )
    engine.submit(dag)
    with pytest.raises(CapacityViolation):
        engine.run()


def test_lenient_mode_scales_oversubscription():
    from repro.topology import big_switch

    engine = Engine(
        big_switch(3, 1.0), _OversubscribingScheduler(), strict_rates=False
    )
    dag = TaskDag("j")
    dag.add_comm(
        "x",
        [Flow("h0", "h1", 1.0, job_id="j"), Flow("h0", "h2", 1.0, job_id="j")],
    )
    engine.submit(dag)
    trace = engine.run()
    # Scaled to fair share of the shared egress: both finish at 2.
    assert trace.end_time == pytest.approx(2.0)


def test_max_rounds_guard():
    engine = Engine(two_hosts(1.0), FairSharingScheduler())
    dag = TaskDag("j")
    for index in range(5):
        deps = [f"c{index - 1}"] if index else []
        dag.add_compute(f"c{index}", device="h0", duration=1.0, deps=deps)
    engine.submit(dag)
    with pytest.raises(SimulationError, match="rounds"):
        engine.run(max_rounds=2)


@pytest.mark.parametrize("interval", [None, 0.05])
def test_stalled_clock_fails_fast_with_diagnosis(interval):
    """At t0 = 1e7 s one float ULP of the clock (~2e-9 s) swallows the
    next finish interval: every round leaves the engine unchanged. The
    run must stop with a diagnosis long before the round cap."""
    rng = random.Random(0)
    topo = big_switch(8, 25.0)
    engine = Engine(
        topo, FairSharingScheduler(), scheduling_interval=interval
    )
    hosts = topo.hosts
    for _ in range(200):
        src, dst = rng.sample(hosts, 2)
        engine.inject_background_flow(Flow(src, dst, rng.uniform(1.0, 2.0)), 1e7)
    with pytest.raises(SimulationError, match="no progress") as excinfo:
        engine.run(max_rounds=100_000)
    message = str(excinfo.value)
    assert "t=1000000" in message
    assert re.search(r"flow \d+ \(remaining=\S+, rate=\S+, projected interval=", message)


def test_engine_with_ecmp_router():
    topo = leaf_spine(2, 2, 10.0, n_spines=2)
    engine = Engine(topo, FairSharingScheduler(), router=EcmpRouter(topo))
    dag = TaskDag("j")
    # Several cross-leaf flows spread over both spines.
    flows = [Flow("h0", "h2", 5.0, job_id="j") for _ in range(4)]
    dag.add_comm("x", flows)
    engine.submit(dag)
    trace = engine.run()
    assert len(trace.flow_records) == 4
    paths = {
        tuple(l.key for l in engine.network.path(f.flow_id)) for f in flows
    }
    assert len(paths) >= 2  # hashing used more than one spine


def test_trace_task_completion_lookup():
    engine = Engine(two_hosts(1.0), FairSharingScheduler())
    dag = TaskDag("j")
    dag.add_compute("c", device="h0", duration=1.0)
    engine.submit(dag)
    trace = engine.run()
    assert trace.task_completion("c") == pytest.approx(1.0)
    with pytest.raises(KeyError):
        trace.task_completion("ghost")


class _NanScheduler(FairSharingScheduler):
    """Fair sharing that hands one flow a NaN rate."""

    name = "nan-test"

    def allocate(self, view):
        rates = dict(super().allocate(view))
        rates[min(rates)] = float("nan")
        return rates


def _nan_engine(scheduler):
    engine = Engine(big_switch(4, 10.0), scheduler, sanitizer=False)
    for i in range(4):
        engine.inject_background_flow(
            Flow(f"h{i}", f"h{(i + 1) % 4}", 100.0 * (i + 1)), at_time=0.0
        )
    return engine


def test_nan_rate_fails_the_run_even_without_the_sanitizer():
    with pytest.raises(ValueError, match="non-finite rate"):
        _nan_engine(_NanScheduler()).run()


def test_resilient_scheduler_replaces_a_nan_allocation():
    from repro.faults import ResilientScheduler

    resilient = ResilientScheduler(_NanScheduler())
    trace = _nan_engine(resilient).run()
    assert resilient.fallback_invocations > 0
    assert {r["kind"] for r in resilient.fallback_records} == {"infeasible"}
    fair = _nan_engine(FairSharingScheduler()).run()
    assert trace.end_time == fair.end_time


def test_pause_records_flows_that_reach_their_threshold_at_until():
    # 1e9 B at 1e9 B/s projects a finish at 1.0, but the remaining half
    # byte at the pause is already under the flow's 1 B threshold.
    engine = Engine(big_switch(2, 1e9), FairSharingScheduler(), sanitizer="strict")
    flow = Flow("h0", "h1", 1e9)
    engine.inject_background_flow(flow, at_time=0.0)
    until = 1 - 0.5e-9
    engine.run(until=until)
    [record] = engine.trace.flow_records
    assert record.flow.flow_id == flow.flow_id
    assert record.finish == until
    trace = engine.run()
    assert len(trace.flow_records) == 1
    assert engine.network.active_count == 0

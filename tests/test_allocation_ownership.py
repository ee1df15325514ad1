"""Every scheduler hands out a fresh allocation and never touches it again.

``Scheduler.allocate`` promises a mapping of its own per call, never
one an earlier call returned and never mutated after it is returned.
``ProfiledScheduler`` relies on that: it diffs each decision against the
previous mapping itself, without a copy. Each case below patches one
scheduler class so every ``allocate`` call (forks included) is kept with
a copy taken at return time, runs a workload that exercises it, and
then checks that no two calls returned the same object and that every
returned mapping still equals its copy after the run: neither the
scheduler nor anything downstream of it (the engine, the network, the
sanitizer, other wrappers) wrote to it.

Covered: every registered scheduler, on Table-1 jobs per event and on a
ticked 320-flow burst (fair share's array allocations), plus each
wrapper: ``ProfiledScheduler``, ``MemoizingScheduler`` replaying cached
decisions in what-if forks, ``ResilientScheduler`` falling back,
``ControlPlaneScheduler`` asking the coordinator on a fault-free
``run_cluster``, serving stale allocations under RPC noise and falling
back while its coordinator is down.
"""

import random

import pytest

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.flow import Flow
from repro.core.units import gbps
from repro.faults import ResilientScheduler
from repro.obs import ProfiledScheduler
from repro.scheduling import (
    FairSharingScheduler,
    MemoizingScheduler,
    Scheduler,
    make_scheduler,
    scheduler_names,
)
from repro.simulator import Engine
from repro.simulator.vector import VectorAllocation
from repro.system import run_cluster
from repro.system.runtime import ControlPlaneScheduler
from repro.system.runtime.chaos import (
    _baseline_jcts,
    _jobs,
    _run_scenario,
    _topology,
    build_chaos_scenarios,
)
from repro.topology import big_switch, fat_tree
from repro.topology.routing import EcmpRouter
from repro.whatif import WhatIfService
from repro.whatif.workload import build_paradigm_job


def _watch(monkeypatch, cls):
    """Keep (mapping, copy at return, was a memo hit) for every call."""
    ledger = []
    original = cls.allocate

    def allocate(self, view):
        hits = getattr(self, "hits", 0)
        rates = original(self, view)
        ledger.append((rates, dict(rates), getattr(self, "hits", 0) > hits))
        return rates

    monkeypatch.setattr(cls, "allocate", allocate)
    return ledger


def _assert_owned(ledger, minimum=10):
    assert len(ledger) >= minimum
    # The ledger holds every mapping, so equal ids mean one object.
    assert len({id(rates) for rates, _, _ in ledger}) == len(ledger)
    for rates, copy, _ in ledger:
        assert dict(rates) == copy


def _table1(scheduler):
    with use_flow_id_allocator(FlowIdAllocator()):
        topology = fat_tree(4, gbps(10))
        engine = Engine(
            topology, scheduler, router=EcmpRouter(topology), sanitizer=False
        )
        placements = (
            ("dp", ["h0", "h5", "h10", "h15"], 0.0),
            ("fsdp", ["h1", "h4", "h9", "h12"], 0.002),
            ("pp", ["h2", "h7", "h8", "h13"], 0.004),
            ("tp", ["h3", "h6", "h11", "h14"], 0.006),
        )
        for paradigm, workers, at in placements:
            job = build_paradigm_job(paradigm, f"{paradigm}-job", workers, layers=4)
            job.submit_to(engine, at_time=at)
        engine.run()
    return engine


def _burst(scheduler, flows=320, hosts=16):
    rng = random.Random(3)
    engine = Engine(
        big_switch(hosts, flows / hosts),
        scheduler,
        scheduling_interval=0.2,
        sanitizer=False,
    )
    with use_flow_id_allocator(FlowIdAllocator()):
        for i in range(flows):
            src = i % hosts
            dst = (src + 1 + (i // hosts) % (hosts - 1)) % hosts
            engine.inject_background_flow(
                Flow(
                    f"h{src}",
                    f"h{dst}",
                    1.0 + rng.random(),
                    group_id=f"job{i % 4}/g{i // 64}",
                    index_in_group=(i // 4) % 16,
                    job_id=f"job{i % 4}",
                ),
                0.0,
            )
        engine.run()
    return engine


@pytest.mark.parametrize("name", scheduler_names())
@pytest.mark.parametrize("workload", [_table1, _burst])
def test_registered_schedulers_own_their_allocations(monkeypatch, name, workload):
    scheduler = make_scheduler(name)
    ledger = _watch(monkeypatch, type(scheduler))
    workload(scheduler)
    _assert_owned(ledger, minimum=5)


def test_fair_share_array_allocations_are_owned(monkeypatch):
    ledger = _watch(monkeypatch, FairSharingScheduler)
    _burst(FairSharingScheduler())
    _assert_owned(ledger, minimum=5)
    assert any(isinstance(rates, VectorAllocation) for rates, _, _ in ledger)


def test_profiled_scheduler(monkeypatch):
    ledger = _watch(monkeypatch, ProfiledScheduler)
    profiled = ProfiledScheduler(make_scheduler("echelon"))
    _table1(profiled)
    _assert_owned(ledger)
    assert profiled.invocations == len(ledger)


def test_memoizing_scheduler_replays_fresh_mappings(monkeypatch):
    ledger = _watch(monkeypatch, MemoizingScheduler)
    service = WhatIfService.build(hosts=8, jobs=4, iterations=1, sanitizer=False)
    queries = ["degrade_link:h1-core@40%+20%,factor=0.5", "submit_job:dp@50%"]
    service.run_batch(queries, detail="deltas")
    service.run_batch(queries, detail="deltas")
    _assert_owned(ledger)
    assert any(hit for _, _, hit in ledger)


class _Flaky(Scheduler):
    """Echelon, except that every third call raises."""

    name = "flaky"

    def __init__(self):
        self.inner = make_scheduler("echelon")
        self.calls = 0

    def allocate(self, view):
        self.calls += 1
        if self.calls % 3 == 0:
            raise RuntimeError("flaky")
        return self.inner.allocate(view)


def test_resilient_scheduler(monkeypatch):
    ledger = _watch(monkeypatch, ResilientScheduler)
    resilient = ResilientScheduler(_Flaky())
    _table1(resilient)
    _assert_owned(ledger)
    assert resilient.fallback_invocations > 0


def test_passive_control_plane_scheduler(monkeypatch):
    ledger = _watch(monkeypatch, ControlPlaneScheduler)
    with use_flow_id_allocator(FlowIdAllocator()):
        run = run_cluster(_topology(), _jobs())
    _assert_owned(ledger)
    assert ledger and run.runtime.report()["mode"] == "passive"


@pytest.mark.parametrize(
    "scenario, counter",
    [("rpc_noise", "stale_rounds"), ("crash_coordinator", "degraded_rounds")],
)
def test_control_plane_scheduler(monkeypatch, scenario, counter):
    jcts = _baseline_jcts()
    makespan = max(jcts.values())
    (chaos,) = build_chaos_scenarios(makespan, [scenario])
    ledger = _watch(monkeypatch, ControlPlaneScheduler)
    run = _run_scenario(chaos, 0, makespan)
    _assert_owned(ledger)
    assert run.runtime.counters[counter] > 0

"""The profiler's churn count against a diff over copied allocations.

``ProfiledScheduler`` counts how many entries of each allocation differ
from the previous one, holding the previous mapping itself rather than a
copy (allocations are never mutated once returned; see
``Scheduler.allocate``). The oracle keeps a ``dict`` copy of every
allocation the moment it is returned and counts with
``rate_vector_churn`` against that copy. Both must agree on every
decision of the Fig. 2 pipeline, of Table-1 jobs on a fat tree with
``link_down`` and ``degrade`` faults, and of a what-if batch whose
forks replay memoized decisions (a fork carries its parent's previous
allocation over).
"""

import copy

import pytest

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps
from repro.obs import Instrumentation, ProfiledScheduler, rate_vector_churn
from repro.scheduling import MemoizingScheduler, make_scheduler
from repro.simulator import Engine
from repro.topology import fat_tree, two_hosts
from repro.topology.routing import EcmpRouter
from repro.whatif import WhatIfService
from repro.whatif.workload import build_paradigm_job, cluster_engine_factory
from repro.workloads import build_pipeline_segment

_FAULTS = (
    "link_down:p0e0-p0a0@0.1+0.05;"
    "degrade:p0a1-core2@0.12+0.1,factor=0.25;"
    "link_down:p1a0-core0@0.2+0.05"
)


@pytest.fixture
def checked(monkeypatch):
    """Compare every profiled decision's count with the oracle's."""
    allocate = ProfiledScheduler.allocate
    fork = ProfiledScheduler.fork
    #: profiler (forks and deep copies included) -> copy of its previous
    #: allocation.
    copies = {}
    #: Deep copies the sanitizer's twin oracle replays a decision on;
    #: their decisions are checked but not counted as the engine's.
    shadows = set()
    seen = {"decisions": 0, "changed": 0, "forks": 0}

    def checked_allocate(self, view):
        previous = copies.get(self, {})
        rates = allocate(self, view)
        record = self.records[-1]
        expected = rate_vector_churn(previous, rates)
        assert record.rates_changed == expected
        assert record.churn == expected / max(1, len(rates))
        copies[self] = dict(rates)
        if self not in shadows:
            seen["decisions"] += 1
            seen["changed"] += expected
        return rates

    def checked_fork(self):
        twin = fork(self)
        copies[twin] = dict(copies.get(self, {}))
        seen["forks"] += 1
        return twin

    def checked_deepcopy(self, memo):
        # Under REPRO_CHECK=strict the twin oracle deep-copies the
        # scheduler; like a fork, the copy starts from the original's
        # previous allocation.
        twin = memo[id(self)] = object.__new__(type(self))
        twin.__dict__.update(copy.deepcopy(vars(self), memo))
        copies[twin] = dict(copies.get(self, {}))
        shadows.add(twin)
        return twin

    monkeypatch.setattr(ProfiledScheduler, "allocate", checked_allocate)
    monkeypatch.setattr(ProfiledScheduler, "fork", checked_fork)
    monkeypatch.setattr(
        ProfiledScheduler, "__deepcopy__", checked_deepcopy, raising=False
    )
    return seen


def test_fig2(checked):
    with use_flow_id_allocator(FlowIdAllocator()):
        engine = Engine(two_hosts(1.0), ProfiledScheduler(make_scheduler("echelon")))
        build_pipeline_segment(
            "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
        ).submit_to(engine)
        engine.run()
    assert checked["decisions"] == engine.scheduler_invocations > 0


@pytest.mark.parametrize("scheduler", ["echelon", "fair", "sincronia"])
def test_table1_with_faults(checked, scheduler):
    obs = Instrumentation()
    with use_flow_id_allocator(FlowIdAllocator()):
        topology = fat_tree(4, gbps(10))
        engine = Engine(
            topology,
            ProfiledScheduler(make_scheduler(scheduler)),
            router=EcmpRouter(topology),
            instrumentation=obs,
            faults=_FAULTS,
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
    assert checked["decisions"] == engine.scheduler_invocations > 100
    assert checked["changed"] > 0
    assert len(obs.fault_events) == 6 and obs.reroutes


def test_whatif_batch_replaying_memoized_decisions(checked, monkeypatch):
    replays = []
    memo_allocate = MemoizingScheduler.allocate

    def counting(self, view):
        hits = self.hits
        rates = memo_allocate(self, view)
        replays.append(self.hits > hits)
        return rates

    monkeypatch.setattr(MemoizingScheduler, "allocate", counting)

    def factory():
        engine, arrivals = cluster_engine_factory(
            hosts=16, jobs=6, iterations=2, sanitizer=False
        )
        assert isinstance(engine.scheduler, MemoizingScheduler)
        engine.scheduler = ProfiledScheduler(engine.scheduler)
        return engine, arrivals

    service = WhatIfService(factory)
    arrivals = service.arrivals
    last = max(arrivals, key=lambda job: (arrivals[job], job))
    batch = [
        "degrade_link:h1-core@50%+8%,factor=0.5",
        "kill_link:h2-core@60%+5%",
        "submit_job:dp@70%",
        "add_tenant:fsdp@80%,jobs=2",
        f"remove_job:{last}@{0.5 * arrivals[last]:.6f}",
    ]
    baseline = checked["decisions"]
    del replays[:]
    service.run_batch(batch, detail="deltas")
    service.run_batch(batch, detail="deltas")
    assert checked["forks"] >= 2 * len(batch)
    assert checked["decisions"] - baseline == len(replays) > baseline
    assert sum(replays) > len(replays) // 4

"""Moved-link utilization timeline == the per-sample full-scan oracle.

``LinkTimeline`` runs its per-link rule only on the links whose load or
capacity the network's ``LinkAccounting`` recorded as moved, extends
every other open segment implicitly and writes the shared segment end
lazily, when ``segments`` is read. The oracle below is the rule the
timeline used to apply to every busy link on every sample, fed
``NetworkModel.link_usage()`` beside the production timeline on the
same runs. Segments, capacities and the key order of both dicts must
agree bit for bit, in both allocation modes, across:

* capacity changes that move no rate (a direct ``set_link_capacity``
  between pauses, and degrade faults);
* ``link_down`` faults with migrated and stranded flows, and restores;
* a reroute that changes no capacity;
* ``run(until=)`` pauses, compared at every pause;
* idle gaps between bursts (non-contiguous samples);
* samples shorter than the 1e-9 s contiguity tolerance;
* a switch to an accounting that records nothing (a clone).

The same runs check that the per-path payloads shared by the rate
recorder and the event log carry the capacities of the moment.
"""

import random

import pytest

from repro.core import Flow, FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps
from repro.obs import Instrumentation, JsonlEventLog
from repro.obs.instrumentation import LinkNames, LinkTimeline
from repro.scheduling import make_scheduler
from repro.simulator import Engine
from repro.simulator.allocation import LinkAccounting
from repro.simulator.vector import HAVE_NUMPY
from repro.topology import big_switch, fat_tree, leaf_spine
from repro.topology.graph import Link
from repro.topology.routing import EcmpRouter
from repro.whatif.workload import build_paradigm_job

_RATE_TOL = 1e-9

ALLOCATIONS = ["scalar", "vector"] if HAVE_NUMPY else ["scalar"]


class OracleTimeline:
    """The full-scan timeline: the per-link rule on every busy link."""

    def __init__(self) -> None:
        self.segments = {}
        self.capacities = {}
        self.names = LinkNames()

    def record(self, now, dt, usage) -> None:
        if dt <= 0:
            return
        end = now + dt
        for link, rate in usage.items():
            if rate < 0.0:
                rate = 0.0
            name = self.names[link.key]
            series = self.segments.setdefault(name, [])
            self.capacities[name] = link.capacity
            if series:
                last = series[-1]
                if -_RATE_TOL <= last[1] - now <= _RATE_TOL:
                    tol = _RATE_TOL * rate if rate > 1.0 else _RATE_TOL
                    if -tol <= last[2] - rate <= tol:
                        last[1] = end
                        continue
            series.append([now, end, rate])


class CheckedInstrumentation(Instrumentation):
    """Feeds the oracle ``link_usage()`` next to the production timeline."""

    def __init__(self) -> None:
        super().__init__(event_log=JsonlEventLog())
        self.oracle = OracleTimeline()
        self.network = None
        self.samples = 0
        self.min_dt = float("inf")

    def on_network_advance(self, now, dt, accounting) -> None:
        self.samples += 1
        self.min_dt = min(self.min_dt, dt)
        self.oracle.record(now, dt, self.network.link_usage())
        super().on_network_advance(now, dt, accounting)

    # The shared per-path payloads must carry the capacities of the
    # moment, as if built afresh for every flow.

    def _fresh(self, path):
        return tuple((self.link_names[link.key], link.capacity) for link in path)

    def on_flow_injected(self, flow, path, now) -> None:
        super().on_flow_injected(flow, path, now)
        assert self.rate_recorder.paths[flow.flow_id] == self._fresh(path)
        key_path = self.rate_recorder.paths[flow.flow_id]
        assert self.event_log.events[-1]["path"] == [list(hop) for hop in key_path]

    def on_flow_rerouted(self, flow_id, old_path, new_path, now) -> None:
        super().on_flow_rerouted(flow_id, old_path, new_path, now)
        fresh = self._fresh(new_path)
        assert self.rate_recorder.paths[flow_id] == fresh
        assert self.event_log.events[-1]["path"] == [list(hop) for hop in fresh]


def _engine(topology, scheduler, allocation, router=None, faults=None):
    obs = CheckedInstrumentation()
    engine = Engine(
        topology,
        make_scheduler(scheduler),
        router=router,
        instrumentation=obs,
        allocation=allocation,
        faults=faults,
        sanitizer=False,
    )
    obs.network = engine.network
    return engine, obs


def assert_same_timeline(obs) -> None:
    timeline = obs.link_timeline
    oracle = obs.oracle
    assert list(timeline.segments.items()) == list(oracle.segments.items())
    assert list(timeline.capacities.items()) == list(oracle.capacities.items())


def _run_with_pauses(engine, obs, pauses, on_pause=None):
    for index, until in enumerate(pauses):
        engine.run(until=until)
        assert_same_timeline(obs)
        if on_pause is not None:
            on_pause(index)
    trace = engine.run()
    assert_same_timeline(obs)
    return trace


def _bursts(rng, hosts, bursts, gap):
    """Flow bursts ``gap`` apart, with sub-nanosecond arrival jitter."""
    flows = []
    for burst in range(bursts):
        base = burst * gap
        for _ in range(rng.randint(3, 12)):
            src, dst = rng.sample(hosts, 2)
            at = base + rng.choice((0.0, 3e-10, 7e-10, 2e-9, rng.random() * 0.05))
            flows.append((Flow(src, dst, rng.choice((0.2, 0.5, 1.0, 1.7))), at))
    return flows


@pytest.mark.parametrize("allocation", ALLOCATIONS)
@pytest.mark.parametrize("seed", range(10))
def test_fuzz_bursts_with_faults_and_pauses(seed, allocation):
    rng = random.Random(seed)
    with use_flow_id_allocator(FlowIdAllocator()):
        topology = leaf_spine(
            n_leaves=rng.choice((2, 3)),
            hosts_per_leaf=rng.choice((2, 3)),
            host_bandwidth=10.0,
            oversubscription=rng.choice((1.0, 2.0)),
        )
        hosts = sorted(topology.hosts)
        faults = (
            "degrade:leaf0-spine0@0.3,factor=0.5; "
            "link_down:leaf0-spine1@0.6+0.5; "
            "link_down:h0-leaf0@0.65+0.3"
        )
        engine, obs = _engine(
            topology,
            rng.choice(("fair", "echelon")),
            allocation,
            router=EcmpRouter(topology),
            faults=faults,
        )
        # Long flows out of leaf0 keep both spines and h0's uplink busy
        # when the faults fire, so the link_downs migrate and strand.
        for src in ("h0", "h1"):
            for dst in hosts[-2:]:
                engine.inject_background_flow(Flow(src, dst, 8.0), 0.0)
        # Gaps longer than a burst drains leave the network idle.
        for flow, at in _bursts(rng, hosts, bursts=4, gap=rng.choice((0.4, 3.0))):
            engine.inject_background_flow(flow, at)

        def reroute_off_spine0():
            # A migration with no capacity change: the flows leave their
            # old path at their current, nonzero rate.
            network = engine.network
            keys = [("leaf0", "spine0"), ("spine0", "leaf1")]
            network.router.block_links(keys)
            network.reroute_flows(keys)
            network.router.unblock_links(keys)

        engine.schedule_callback(0.2, reroute_off_spine0)

        def nudge_capacity(_index):
            # A capacity change that moves no rate: grow a busy link.
            usage = engine.network.link_usage()
            if usage:
                link = sorted(usage, key=lambda link: link.key)[0]
                engine.network.set_link_capacity(link.key, link.capacity * 1.25)

        pauses = sorted(rng.uniform(0.0, 3.0) for _ in range(4))
        _run_with_pauses(engine, obs, pauses, on_pause=nudge_capacity)
    fired = engine.faults.fired
    assert any(record.get("migrated") for record in fired)
    assert any(record.get("stranded") for record in fired)


@pytest.mark.parametrize("allocation", ALLOCATIONS)
def test_table1_jobs_with_degrade_and_link_down(allocation):
    with use_flow_id_allocator(FlowIdAllocator()):
        topology = fat_tree(4, gbps(10))
        engine, obs = _engine(
            topology,
            "echelon",
            allocation,
            router=EcmpRouter(topology),
            faults="degrade:p0e0-p0a0@0.004,factor=0.5; "
            "link_down:p0a0-core0@0.006+0.01",
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
        _run_with_pauses(engine, obs, (0.003, 0.005, 0.0065, 0.02))
    assert obs.samples > 100
    assert [r["action"] for r in engine.faults.fired][:2] == ["degrade", "link_down"]


@pytest.mark.parametrize("allocation", ALLOCATIONS)
def test_samples_below_the_contiguity_tolerance(allocation):
    with use_flow_id_allocator(FlowIdAllocator()):
        engine, obs = _engine(big_switch(4, 10.0), "fair", allocation)
        # h0->h1 alone drains at 10/s and finishes at 0.1; arrivals on
        # other links land a fraction of a nanosecond around it.
        engine.inject_background_flow(Flow("h0", "h1", 1.0), 0.0)
        engine.inject_background_flow(Flow("h2", "h3", 5.0), 0.0)
        engine.inject_background_flow(Flow("h3", "h2", 0.5), 0.1 - 5e-10)
        engine.inject_background_flow(Flow("h1", "h0", 0.5), 0.1 + 4e-10)
        engine.inject_background_flow(Flow("h0", "h1", 0.5), 0.1 + 9e-10)
        _run_with_pauses(engine, obs, (0.1 - 2e-10, 0.1 + 6e-10))
    assert obs.min_dt < 1e-9


def test_non_contiguous_sample_closes_open_segments():
    # Driven directly: in an engine run every open link has moved by the
    # time a gap opens (its flows finished), so only a bare timeline can
    # meet a gap with busy links that did not move.
    link = Link("a", "b", 10.0)
    accounting = LinkAccounting()
    accounting.watch(1, (link,))
    accounting.apply((link,), 0.0, 4.0)
    timeline, oracle = LinkTimeline(), OracleTimeline()
    steps = ((0.0, 1.0), (1.0, 0.5), (5.0, 1.0), (6.0, 5e-10), (6.0 + 5e-10, 1.0))
    for now, dt in steps:
        timeline.sample(now, dt, accounting)
        oracle.record(now, dt, accounting.usage())
    assert timeline.segments == oracle.segments == {
        "a->b": [[0.0, 1.5, 4.0], [5.0, 7.0 + 5e-10, 4.0]]
    }


def test_accounting_records_what_moved_only_when_asked():
    a, b, c = Link("a", "b", 10.0), Link("b", "c", 10.0), Link("c", "d", 10.0)
    accounting = LinkAccounting()
    accounting.watch(1, (a, b))
    accounting.apply((a, b), 0.0, 2.0)
    assert accounting.moved is None
    accounting.moved = set()
    accounting.watch(2, (c,))
    assert accounting.moved == set()  # a rate-0 flow moves no load
    accounting.apply((c,), 0.0, 1.0)
    assert accounting.moved == {c.key}
    accounting.moved.clear()
    accounting.set_capacity(b.key, 5.0)
    assert accounting.moved == {b.key}
    accounting.moved.clear()
    accounting.unwatch(1, (a, b), 2.0)
    assert accounting.moved == {a.key, b.key}
    accounting.moved.clear()
    accounting.apply_bulk({c.key: 0.5}, {})
    assert accounting.moved == {c.key}
    assert accounting.clone().moved is None


def test_an_accounting_that_records_nothing_gets_a_full_scan():
    # A clone records nothing until a sample switches it on, so a
    # timeline handed one must scan. Engine forks and restores drop
    # their instrumentation, so only a bare timeline meets this.
    links = [Link(f"s{i}", f"d{i}", 10.0) for i in range(3)]
    accounting = LinkAccounting()
    for fid, link in enumerate(links):
        accounting.watch(fid, (link,))
        accounting.apply((link,), 0.0, 1.0 + fid)
    timeline, oracle = LinkTimeline(), OracleTimeline()
    timeline.sample(0.0, 1.0, accounting)
    oracle.record(0.0, 1.0, accounting.usage())
    twin = accounting.clone()
    twin.apply((links[1],), 2.0, 4.0)
    twin.apply((links[2],), 3.0, 0.0)
    for now, source in ((1.0, twin), (2.0, twin)):
        timeline.sample(now, 1.0, source)
        oracle.record(now, 1.0, source.usage())
    assert list(timeline.segments.items()) == list(oracle.segments.items())
    assert timeline.segments["s1->d1"] == [[0.0, 1.0, 2.0], [1.0, 3.0, 4.0]]

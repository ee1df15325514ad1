"""Randomized property tests for the residual link accounting.

The :class:`~repro.simulator.allocation.LinkAccounting` residuals are the
simulation core's load-bearing state: every feasibility gate and lenient
scaling decision reads them instead of re-aggregating active flows. These
tests drive a :class:`~repro.simulator.network.NetworkModel` through long
random inject / set_rates / advance sequences and, after every single
operation, audit the residuals against a from-scratch recompute via
``verify_accounting`` -- the same audit the runtime sanitizer samples --
and the finish heap against the ``finish_index`` scan.
"""

import random

import pytest

from repro.check import infeasible_links, scan_earliest_finish, unserved_flows
from repro.core.flow import Flow
from repro.simulator.allocation import DemandSet, FlowDemand, feasible, max_min_fair
from repro.simulator.network import NetworkModel
import repro.simulator.vector as vector_mod
from repro.simulator.vector import HAVE_NUMPY, DenseIncidence, max_min_fair_vector
from repro.topology import ShortestPathRouter, big_switch, leaf_spine
from repro.topology.graph import Link


def _network(topology, vector=False):
    return NetworkModel(
        topology,
        ShortestPathRouter(topology),
        strict=False,
        allocation="vector" if vector and HAVE_NUMPY else "scalar",
    )


def _random_walk(network, rng, hosts, steps):
    """Random flow lifecycle churn; audits accounting after every step."""
    now = 0.0
    next_tag = 0
    for _ in range(steps):
        op = rng.random()
        if op < 0.35 or network.active_count == 0:
            src, dst = rng.sample(hosts, 2)
            network.inject(
                Flow(src=src, dst=dst, size=0.2 + rng.random() * 3.0,
                     tag=f"p{next_tag}"),
                now,
            )
            next_tag += 1
        elif op < 0.75:
            rates = {}
            for state in network.active_states():
                roll = rng.random()
                if roll < 0.2:
                    continue  # unlisted flows idle at rate 0
                rates[state.flow.flow_id] = (
                    0.0 if roll < 0.4 else rng.random() * 2.5
                )
            network.set_rates(rates)
        else:
            dt = rng.random() * 0.4
            network.advance(dt, now)
            now += dt
        problems = network.verify_accounting()
        assert problems == [], problems
        assert network.earliest_finish_interval() == scan_earliest_finish(network)
        # The applied (possibly capacity-scaled) rates are always feasible.
        applied = {s.flow.flow_id: s.rate for s in network.iter_active()}
        assert infeasible_links(network.demands(), applied) == []
    return now


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("vector", [True, False])
def test_accounting_matches_recompute_big_switch(seed, vector):
    topology = big_switch(6, host_bandwidth=2.0)
    network = _network(topology, vector)
    rng = random.Random(seed)
    _random_walk(network, rng, [f"h{i}" for i in range(6)], steps=150)


@pytest.mark.parametrize("seed", [11, 12])
def test_accounting_matches_recompute_leaf_spine(seed):
    topology = leaf_spine(
        n_leaves=2, hosts_per_leaf=3, host_bandwidth=2.0, oversubscription=2.0
    )
    network = _network(topology)
    rng = random.Random(seed)
    _random_walk(network, rng, [f"h{i}" for i in range(6)], steps=120)


def test_drain_to_completion_keeps_accounting_clean():
    topology = big_switch(4, host_bandwidth=2.0)
    network = _network(topology)
    rng = random.Random(99)
    hosts = [f"h{i}" for i in range(4)]
    now = _random_walk(network, rng, hosts, steps=60)
    # Saturate every flow and drain the network dry; each retirement must
    # unwind its link registrations exactly.
    while network.active_count:
        network.set_rates(
            {s.flow.flow_id: 2.0 for s in network.active_states()}
        )
        dt = max(network.earliest_finish_interval(), 1e-3)
        network.advance(dt, now)
        now += dt
        assert network.verify_accounting() == []
    assert network.verify_accounting() == []


def test_verify_accounting_detects_tampering():
    topology = big_switch(3, host_bandwidth=2.0)
    network = _network(topology)
    network.inject(Flow(src="h0", dst="h1", size=5.0), 0.0)
    state = network.active_states()[0]
    network.set_rates({state.flow.flow_id: 1.0})
    assert network.verify_accounting() == []
    # Corrupt each facet of the residual state; the audit must name it.
    key = next(iter(network.accounting.loads))
    network.accounting.loads[key] += 0.5
    kinds = {p["kind"] for p in network.verify_accounting()}
    assert "load" in kinds
    network.accounting.loads[key] -= 0.5
    network.accounting.nonzero[key] += 1
    kinds = {p["kind"] for p in network.verify_accounting()}
    assert kinds == {"nonzero_count"}
    network.accounting.nonzero[key] -= 1
    network.accounting.flows_on[key].add(10**9)
    kinds = {p["kind"] for p in network.verify_accounting()}
    assert kinds == {"membership"}


# ---------------------------------------------------------------------------
# the pure helpers shared with the sanitizer
# ---------------------------------------------------------------------------


def _demands(network):
    return network.demands()


def test_max_min_fair_is_work_conserving_on_random_instances():
    # Whatever the random demand set, the fair allocation never leaves a
    # flow with headroom on every link of its path -- the exact property
    # the sanitizer asserts for schedulers declaring work_conserving.
    for seed in range(6):
        rng = random.Random(seed)
        topology = big_switch(5, host_bandwidth=1.0 + rng.random() * 3.0)
        network = _network(topology)
        hosts = [f"h{i}" for i in range(5)]
        for _ in range(rng.randrange(1, 12)):
            src, dst = rng.sample(hosts, 2)
            network.inject(Flow(src=src, dst=dst, size=1.0), 0.0)
        demands = _demands(network)
        rates = max_min_fair(demands)
        assert infeasible_links(demands, rates) == []
        remaining = {d.flow_id: 1.0 for d in demands}
        thresholds = {d.flow_id: 0.0 for d in demands}
        assert unserved_flows(demands, rates, remaining, thresholds) == []


def test_unserved_flows_flags_idle_capacity():
    topology = big_switch(3, host_bandwidth=2.0)
    network = _network(topology)
    network.inject(Flow(src="h0", dst="h1", size=5.0), 0.0)
    demands = _demands(network)
    flow_id = demands[0].flow_id
    starved = unserved_flows(
        demands, {flow_id: 0.5}, {flow_id: 5.0}, {flow_id: 0.0}
    )
    assert [p["flow"] for p in starved] == [flow_id]
    assert starved[0]["headroom"] == pytest.approx(1.5)
    # A finished flow (remaining below threshold) is never flagged.
    assert (
        unserved_flows(demands, {flow_id: 0.5}, {flow_id: 0.0}, {flow_id: 0.1})
        == []
    )
    # Nor is a flow pinned at its demand cap.
    capped = [
        FlowDemand(flow_id=d.flow_id, path=d.path, cap=0.5) for d in demands
    ]
    assert (
        unserved_flows(capped, {flow_id: 0.5}, {flow_id: 5.0}, {flow_id: 0.0})
        == []
    )


def test_infeasible_links_reports_the_overload():
    topology = big_switch(3, host_bandwidth=1.0)
    network = _network(topology)
    network.inject(Flow(src="h0", dst="h2", size=5.0), 0.0)
    network.inject(Flow(src="h1", dst="h2", size=5.0), 0.0)
    demands = _demands(network)
    rates = {d.flow_id: 0.8 for d in demands}  # 1.6 into h2's 1.0 ingress
    problems = infeasible_links(demands, rates)
    assert problems
    worst = max(problems, key=lambda p: p["excess"])
    assert worst["load"] == pytest.approx(1.6)
    assert worst["capacity"] == pytest.approx(1.0)
    assert sorted(worst["flows"]) == sorted(d.flow_id for d in demands)
    assert infeasible_links(demands, {d.flow_id: 0.5 for d in demands}) == []


# ---------------------------------------------------------------------------
# scalar vs vector kernel: seeded random differential battery
# ---------------------------------------------------------------------------
#
# The vector kernel's bit-identity contract (see repro.simulator.vector) is
# attacked here with adversarial instances that topology-derived demand sets
# never produce: duplicate links on a path, mixed weights, zero caps, and
# dead links expressed through the ``available`` residual map. Every seed
# demands *exact* dict equality -- no tolerance -- plus the classic max-min
# certificate on the shared result.

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy unavailable")


def _random_kernel_instance(rng):
    """One random waterfilling instance: links, demands, maybe ``available``."""
    links = [
        Link(f"s{i}", f"t{i}", 0.5 + rng.random() * 4.0)
        for i in range(rng.randrange(2, 13))
    ]
    demands = []
    for fid in range(rng.randrange(1, 41)):
        path = [rng.choice(links) for _ in range(rng.randrange(1, 5))]
        if rng.random() < 0.1:
            path.append(path[0])  # one link crossed twice by the same flow
        roll = rng.random()
        cap = None if roll < 0.7 else 0.0 if roll < 0.75 else rng.random() * 2.0
        demands.append(
            FlowDemand(
                flow_id=1000 + fid,
                path=tuple(path),
                weight=rng.choice((1.0, 1.0, 0.5, 2.0, 0.25 + rng.random() * 3.0)),
                cap=cap,
            )
        )
    available = None
    if rng.random() < 0.3:
        # A residual-capacity view, as mid-round schedulers pass: every
        # entry is at most the link's capacity, some links fully spent.
        available = {}
        for link in links:
            roll = rng.random()
            if roll < 0.25:
                available[link.key] = link.capacity * rng.random()
            elif roll < 0.3:
                available[link.key] = 0.0  # dead link: rates pin at zero
    return demands, available


def _audit_max_min(demands, rates, available):
    """Feasibility, work conservation, and the max-min certificate.

    Every flow is either pinned at its own cap or has a *bottleneck*: a
    saturated path link on which its weight-normalized rate is maximal,
    so raising it would require lowering a flow that is no better off.
    The certificate subsumes work conservation -- a flow with headroom
    on every path link has no saturated link at all.
    """
    caps = dict(available) if available else {}
    loads = {}
    by_link = {}
    for demand in demands:
        rate = rates[demand.flow_id]
        for link in demand.path:
            key = link.key
            caps.setdefault(key, link.capacity)
            loads[key] = loads.get(key, 0.0) + rate
            by_link.setdefault(key, []).append(demand)
    for key, load in loads.items():
        assert load <= caps[key] + 1e-6 * max(1.0, caps[key]), key
    for demand in demands:
        rate = rates[demand.flow_id]
        assert rate >= 0.0
        if demand.cap is not None:
            assert rate <= demand.cap + 1e-9
            if rate >= demand.cap - 1e-9:
                continue  # pinned by its own cap: no link bottleneck needed
        norm = rate / demand.weight
        certified = False
        for link in demand.path:
            key = link.key
            if loads[key] < caps[key] - 1e-6 * max(1.0, caps[key]):
                continue  # unsaturated: cannot be the bottleneck
            best = max(rates[o.flow_id] / o.weight for o in by_link[key])
            if norm >= best - 1e-6:
                certified = True
                break
        assert certified, f"flow {demand.flow_id} has no max-min bottleneck"


@needs_numpy
def test_vector_kernel_matches_scalar_on_random_instances():
    for seed in range(80):
        rng = random.Random(seed)
        demands, available = _random_kernel_instance(rng)
        scalar = max_min_fair(list(demands), available)
        vec = max_min_fair(DemandSet(demands, use_vector=True), available)
        # Bit-identity: the same keys mapped to the very same floats.
        assert dict(vec.items()) == scalar, f"seed {seed} diverged"
        assert feasible(list(demands), scalar)
        assert feasible(DemandSet(demands, use_vector=True), vec)
        _audit_max_min(demands, scalar, available)


@needs_numpy
def test_vector_kernel_degenerate_dead_link_and_zero_cap():
    link = Link("a", "b", 1.0)
    other = Link("b", "c", 2.0)
    demands = [
        FlowDemand(flow_id=1, path=(link,), cap=0.0),  # pinned at zero
        FlowDemand(flow_id=2, path=(link, other)),  # dead first hop
        FlowDemand(flow_id=3, path=(other,)),  # unaffected
    ]
    available = {link.key: 0.0}
    scalar = max_min_fair(list(demands), available)
    vec = max_min_fair(DemandSet(demands, use_vector=True), available)
    assert dict(vec.items()) == scalar
    assert scalar[1] == 0.0 and scalar[2] == 0.0
    # The survivor still gets the whole healthy link: dead links starve
    # their own flows without dragging the rest of the allocation down.
    assert scalar[3] == 2.0
    _audit_max_min(demands, scalar, available)


@needs_numpy
def test_vector_kernel_all_flows_capped_at_zero():
    link = Link("a", "b", 1.0)
    demands = [FlowDemand(flow_id=i + 1, path=(link,), cap=0.0) for i in range(3)]
    scalar = max_min_fair(list(demands))
    vec = max_min_fair(DemandSet(demands, use_vector=True))
    assert dict(vec.items()) == scalar == {1: 0.0, 2: 0.0, 3: 0.0}


@needs_numpy
def test_vector_allocation_passes_the_sanitizer_helpers():
    # The sanitizer's pure helpers accept a VectorAllocation as-is: the
    # mapping duck-typing means the work-conservation and feasibility
    # audits run unchanged over the dense kernel's output.
    for seed in (21, 22):
        rng = random.Random(seed)
        topology = big_switch(6, host_bandwidth=1.0 + rng.random() * 3.0)
        network = _network(topology)
        hosts = [f"h{i}" for i in range(6)]
        for _ in range(rng.randrange(4, 16)):
            src, dst = rng.sample(hosts, 2)
            network.inject(Flow(src=src, dst=dst, size=1.0), 0.0)
        demands = network.demands()
        rates = max_min_fair(DemandSet(demands, use_vector=True))
        assert infeasible_links(demands, rates) == []
        remaining = {d.flow_id: 1.0 for d in demands}
        thresholds = {d.flow_id: 0.0 for d in demands}
        assert unserved_flows(demands, rates, remaining, thresholds) == []
        assert dict(rates.items()) == max_min_fair(list(demands))


@needs_numpy
def test_vector_kernel_matches_scalar_over_many_rounds():
    # Deep water-filling: 1,200 flows over 150 links of spread-out
    # capacities, so links saturate one by one and the kernel keeps
    # dropping flows from its active set for dozens of rounds. Mixed
    # weights, caps and one downed link on top.
    rng = random.Random(2024)
    links = [Link(f"u{i}", f"v{i}", 0.5 + rng.random() * 60.0) for i in range(150)]
    links[17].capacity = 0.0  # downed at run time, as set_link_capacity does
    demands = []
    for fid in range(1200):
        path = tuple(rng.sample(links, rng.randrange(1, 4)))
        roll = rng.random()
        demands.append(
            FlowDemand(
                flow_id=5000 + fid,
                path=path,
                weight=rng.choice((1.0, 1.0, 0.5, 2.0, 0.3 + rng.random() * 2.0)),
                cap=None if roll < 0.8 else rng.random() * 3.0,
            )
        )
    scalar = max_min_fair(list(demands))
    vec = max_min_fair(DemandSet(demands, use_vector=True))
    assert dict(vec.items()) == scalar
    # Unit-weight flows frozen in one round share their rate bit for bit
    # (the same sum of rises), so distinct rates bound the round count.
    levels = {scalar[d.flow_id] for d in demands if d.weight == 1.0}
    assert len(levels) >= 50
    assert any(scalar[d.flow_id] == 0.0 for d in demands if links[17] in d.path)
    _audit_max_min(demands, scalar, None)


def _entries_by_link(incidence):
    """link key -> [(flow id, entry index)] in entry order."""
    by_link = {}
    fids = incidence.fids.tolist()
    for entry, (row, col) in enumerate(
        zip(incidence.rows.tolist(), incidence.cols.tolist())
    ):
        by_link.setdefault(incidence.links[col].key, []).append((fids[row], entry))
    return by_link


@needs_numpy
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_patched_incidence_matches_fresh_build(seed, monkeypatch):
    outcomes = []
    real_patch = DenseIncidence._patch

    def spy(self, base, demands):
        outcomes.append(real_patch(self, base, demands))
        return outcomes[-1]

    monkeypatch.setattr(DenseIncidence, "_patch", spy)
    topology = leaf_spine(
        n_leaves=3, hosts_per_leaf=3, host_bandwidth=2.0, n_spines=3
    )
    router = ShortestPathRouter(topology)
    network = NetworkModel(topology, router, strict=False, allocation="vector")
    hosts = [f"h{i}" for i in range(9)]
    uplinks = [key for key in topology._links if key[1].startswith("spine")]
    rng = random.Random(seed)
    now = 0.0
    for _ in range(60):
        op = rng.random()
        if op < 0.4 or network.active_count < 3:
            for _ in range(rng.randrange(1, 6)):
                src, dst = rng.sample(hosts, 2)
                network.inject(Flow(src=src, dst=dst, size=0.2 + rng.random()), now)
        elif op < 0.85:
            network.set_rates(max_min_fair(network.demands()))
            dt = network.earliest_finish_interval()
            network.advance(dt, now)
            now += dt
        else:
            key = rng.choice(uplinks)
            router.block_links([key])
            network.reroute_flows([key])
            router.unblock_links([key])
        demands = network.demands()
        if not demands:
            continue
        patched = demands.incidence()
        fresh = DenseIncidence(list(demands))
        assert patched.fids.tolist() == fresh.fids.tolist()
        assert _entries_by_link(patched) == _entries_by_link(fresh)
        for name in ("rows", "cols", "weights", "caps", "capped_rows"):
            assert getattr(patched, name).tolist() == getattr(fresh, name).tolist()
        assert [link.key for link in patched.links] == [
            link.key for link in fresh.links
        ]
        assert patched.row_of == fresh.row_of
        rates = max_min_fair(demands)
        assert rates.array.tobytes() == max_min_fair_vector(fresh).array.tobytes()
        assert dict(rates.items()) == max_min_fair(list(demands))
    # Both branches ran: patched steps, and reroutes that built fresh.
    assert True in outcomes and False in outcomes


@needs_numpy
def test_capacity_change_between_decisions_forces_a_fresh_solve(monkeypatch):
    fills = []
    real_fill = vector_mod._water_fill

    def spy(incidence, remaining):
        fills.append(remaining.tolist())
        return real_fill(incidence, remaining)

    monkeypatch.setattr(vector_mod, "_water_fill", spy)
    topology = big_switch(4, host_bandwidth=3.0)
    network = NetworkModel(topology, ShortestPathRouter(topology), allocation="vector")
    for src, dst in (("h0", "h1"), ("h0", "h2"), ("h3", "h1"), ("h2", "h1")):
        network.inject(Flow(src=src, dst=dst, size=10.0), 0.0)
    demands = network.demands()
    first = max_min_fair(demands)
    again = max_min_fair(network.demands())
    assert len(fills) == 1  # same flows, same capacities: reused
    assert again.array.tobytes() == first.array.tobytes()
    assert again.array is not first.array

    network.set_link_capacity(("h0", "core"), 1.0)
    assert network.demands() is demands  # no structural change
    shrunk = max_min_fair(network.demands())
    assert len(fills) == 2
    assert dict(shrunk.items()) == max_min_fair(list(demands))
    assert dict(shrunk.items()) != dict(first.items())

    network.set_link_capacity(("h0", "core"), 3.0)
    restored = max_min_fair(network.demands())
    assert len(fills) == 3
    assert restored.array.tobytes() == first.array.tobytes()

"""The dense-array allocation kernels and their dispatch plumbing.

The bit-identity battery lives in ``test_check_allocation_properties.py``;
this module covers the machinery around the kernels: incidence interning,
the Mapping facade, demand-set dispatch, the ``allocation`` choices, the
bulk ``set_rates`` fast path and its guard rails, and the graceful
scalar fallback when numpy is absent.
"""

import pytest

np = pytest.importorskip("numpy")

import repro.simulator.vector as vector_mod
from repro.core.flow import Flow
from repro.simulator.allocation import (
    DemandSet,
    FlowDemand,
    feasible,
    max_min_fair,
)
from repro.scheduling import FairSharingScheduler
from repro.simulator import Engine
from repro.simulator.network import CapacityViolation, NetworkModel
from repro.simulator.vector import (
    DenseIncidence,
    VectorAllocation,
    max_min_fair_vector,
)
from repro.topology import ShortestPathRouter, big_switch
from repro.topology.graph import Link


def _demand(fid, links, weight=1.0, cap=None):
    return FlowDemand(flow_id=fid, path=tuple(links), weight=weight, cap=cap)


def _links(n, capacity=10.0):
    return [Link(f"a{i}", f"b{i}", capacity) for i in range(n)]


def _network(n_hosts=4, bw=10.0, strict=True, allocation="scalar"):
    topo = big_switch(n_hosts, bw)
    return NetworkModel(
        topo, ShortestPathRouter(topo), strict=strict, allocation=allocation
    )


# ---------------------------------------------------------------- interning


def test_incidence_interns_rows_and_cols_in_first_occurrence_order():
    la, lb, lc = _links(3)
    demands = [
        _demand(7, [la, lb], weight=2.0),
        _demand(3, [lb, lc], cap=1.5),
        _demand(9, [la]),
    ]
    inc = DenseIncidence(demands)
    assert inc.row_of == {7: 0, 3: 1, 9: 2}
    assert inc.fids.tolist() == [7, 3, 9]
    assert [l.key for l in inc.links] == [la.key, lb.key, lc.key]
    assert inc.rows.tolist() == [0, 0, 1, 1, 2]
    assert inc.cols.tolist() == [0, 1, 1, 2, 0]
    assert inc.weights.tolist() == [2.0, 1.0, 1.0]
    assert inc.caps.tolist() == [float("inf"), 1.5, float("inf")]
    assert inc.capped_rows.tolist() == [1]


def test_incidence_dedupe_keeps_first_row_last_content():
    la, lb = _links(2)
    demands = [
        _demand(1, [la], weight=1.0),
        _demand(2, [lb]),
        _demand(1, [lb], weight=3.0),  # same fid again: content wins, row stays
    ]
    inc = DenseIncidence(demands)
    assert inc.row_of == {1: 0, 2: 1}
    assert inc.n_flows == 2
    assert inc.weights.tolist() == [3.0, 1.0]
    # Row 0 (fid 1) now rides lb, matching the scalar dict dedupe.
    assert inc.cols.tolist()[:1] == [0]
    assert [l.key for l in inc.links][inc.cols.tolist()[0]] == lb.key


def test_incidence_rereads_live_capacities_and_applies_overrides():
    la, lb = _links(2, capacity=10.0)
    inc = DenseIncidence([_demand(1, [la, lb])])
    assert inc.link_capacities_array().tolist() == [10.0, 10.0]
    la.capacity = 4.0  # runtime mutation (fault injection path)
    assert inc.link_capacities_array().tolist() == [4.0, 10.0]
    caps = inc.link_capacities_array({lb.key: 0.0, ("x", "y"): 99.0})
    assert caps.tolist() == [4.0, 0.0]


# ------------------------------------------------------- allocation facade


def test_vector_allocation_quacks_like_a_dict():
    la = _links(1)[0]
    inc = DenseIncidence([_demand(5, [la]), _demand(2, [la])])
    alloc = VectorAllocation(inc, np.array([3.0, 7.0]))
    assert alloc[5] == 3.0 and alloc[2] == 7.0
    assert isinstance(alloc[5], float) and not isinstance(alloc[5], np.floating)
    assert alloc.get(2) == 7.0
    assert alloc.get(404) is None
    assert alloc.get(404, 0.0) == 0.0
    assert set(alloc) == {5, 2}
    assert len(alloc) == 2
    assert 5 in alloc and 404 not in alloc
    assert dict(alloc.items()) == {5: 3.0, 2: 7.0}
    assert alloc.copy() == {5: 3.0, 2: 7.0}
    assert sorted(alloc.values()) == [3.0, 7.0]
    with pytest.raises(KeyError):
        alloc[404]


def test_demand_set_dispatches_only_when_asked():
    la = _links(1, capacity=6.0)[0]
    demands = [_demand(1, [la]), _demand(2, [la])]
    scalar = max_min_fair(list(demands))
    assert isinstance(scalar, dict)
    hinted = DemandSet(demands, use_vector=True)
    vec = max_min_fair(hinted)
    assert isinstance(vec, VectorAllocation)
    assert dict(vec.items()) == scalar
    # The interning is built once and cached on the set.
    assert hinted.incidence() is hinted.incidence()
    unhinted = DemandSet(demands, use_vector=False)
    assert isinstance(max_min_fair(unhinted), dict)


def test_feasible_dispatch_agrees_with_scalar():
    la, lb = _links(2, capacity=5.0)
    demands = [_demand(1, [la, lb], cap=2.0), _demand(2, [lb])]
    hinted = DemandSet(demands, use_vector=True)
    for rates in (
        {1: 1.0, 2: 4.0},
        {1: 1.0, 2: 4.5},  # lb oversubscribed
        {1: 3.0, 2: 0.0},  # cap violated
        {1: -1.0, 2: 0.0},  # negative
        {},
    ):
        assert feasible(hinted, rates) == feasible(list(demands), rates), rates
    # A VectorAllocation aligned to the incidence takes the array path.
    alloc = max_min_fair(hinted)
    assert feasible(hinted, alloc) is True


def test_kernel_rejects_unconstrained_problem():
    la = _links(1)[0]
    inc = DenseIncidence([_demand(1, [la])])
    with pytest.raises(RuntimeError):
        max_min_fair_vector(inc, {la.key: float("inf")})


# ------------------------------------------------- numpy-absent fallbacks


def test_dispatch_falls_back_to_scalar_without_numpy(monkeypatch):
    monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
    la = _links(1, capacity=6.0)[0]
    hinted = DemandSet([_demand(1, [la]), _demand(2, [la])], use_vector=True)
    result = max_min_fair(hinted)
    assert isinstance(result, dict)
    assert result == {1: 3.0, 2: 3.0}
    assert feasible(hinted, result) is True


def test_vector_on_requires_numpy(monkeypatch):
    monkeypatch.setattr(vector_mod, "HAVE_NUMPY", False)
    with pytest.raises(RuntimeError, match="numpy"):
        _network(allocation="vector")
    with pytest.raises(RuntimeError, match="numpy"):
        Engine(big_switch(2, 1.0), FairSharingScheduler(), allocation="vector")
    # auto mode degrades silently instead of raising.
    net = _network(allocation="auto")
    assert net.demands().use_vector is False


def test_invalid_allocation_rejected():
    # One vocabulary: no aliases for the retired mode spellings.
    retired = ("reference", "incremental", "on", "off", None, True, False)
    for allocation in ("sideways",) + retired:
        with pytest.raises(ValueError, match="allocation"):
            _network(allocation=allocation)
        with pytest.raises(ValueError, match="allocation"):
            Engine(big_switch(2, 1.0), FairSharingScheduler(), allocation=allocation)


# ------------------------------------------------ network allocation choices


def test_network_allocation_controls_demand_hint():
    assert _network(allocation="scalar").demands().use_vector is False
    assert _network(allocation="vector").demands().use_vector is True
    # "auto" is the default on both the network and the engine.
    topo = big_switch(4, 10.0)
    assert NetworkModel(topo, ShortestPathRouter(topo)).allocation == "auto"
    engine = Engine(topo, FairSharingScheduler())
    assert engine.network.allocation == "auto"
    # Forks keep the choice.
    assert _network(allocation="vector").fork().allocation == "vector"


@pytest.mark.parametrize("allocation", ["auto", "scalar", "vector"])
def test_engine_runs_under_every_allocation(allocation):
    engine = Engine(
        big_switch(4, 10.0), FairSharingScheduler(), allocation=allocation
    )
    for i in range(6):
        engine.inject_background_flow(
            Flow(f"h{i % 4}", f"h{(i + 1) % 4}", 5.0 + i), at_time=0.0
        )
    trace = engine.run()
    assert engine.network.allocation == allocation
    assert len(trace.flow_records) == 6


def test_auto_mode_switches_at_threshold(monkeypatch):
    monkeypatch.setattr(vector_mod, "VECTOR_AUTO_THRESHOLD", 3)
    net = _network(allocation="auto", bw=100.0)
    flows = [Flow("h0", "h1", 10.0) for _ in range(3)]
    net.inject(flows[0], 0.0)
    net.inject(flows[1], 0.0)
    assert net.demands().use_vector is False  # 2 < 3
    net.inject(flows[2], 0.0)
    assert net.demands().use_vector is True  # 3 >= 3


def test_demand_cache_invalidated_by_structural_changes():
    net = _network(allocation="vector", bw=100.0)
    f1, f2 = Flow("h0", "h1", 10.0), Flow("h0", "h2", 10.0)
    net.inject(f1, 0.0)
    first = net.demands()
    assert net.demands() is first  # revision-keyed cache hit
    net.inject(f2, 0.0)
    second = net.demands()
    assert second is not first
    assert {d.flow_id for d in second} == {f1.flow_id, f2.flow_id}


# ----------------------------------------------------- bulk set_rates path


def _vector_net_with_flows(n=3, bw=9.0, strict=True):
    net = _network(bw=bw, strict=strict, allocation="vector")
    flows = [Flow("h0", f"h{1 + i % 3}", 100.0) for i in range(n)]
    for f in flows:
        net.inject(f, 0.0)
    return net, flows


def test_bulk_set_rates_applies_vector_allocation():
    net, flows = _vector_net_with_flows()
    demands = net.demands()
    alloc = max_min_fair(demands)
    assert isinstance(alloc, VectorAllocation)
    net.set_rates(alloc)
    for f in flows:
        rate = net.state(f.flow_id).rate
        assert isinstance(rate, float) and not isinstance(rate, np.floating)
        assert rate == alloc[f.flow_id]


def test_bulk_set_rates_rejects_negative_rates():
    net, flows = _vector_net_with_flows()
    alloc = max_min_fair(net.demands())
    alloc.array[0] = -1.0
    with pytest.raises(ValueError, match="negative rate"):
        net.set_rates(alloc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_bulk_set_rates_rejects_non_finite_rates(bad):
    net, flows = _vector_net_with_flows()
    alloc = max_min_fair(net.demands())
    alloc.array[1] = bad
    with pytest.raises(ValueError, match="rate for flow"):
        net._set_rates_bulk(alloc)  # rejected on the array path itself
    for f in flows:
        assert net.state(f.flow_id).rate == 0.0
    assert all(load == 0.0 for load in net.accounting.loads.values())


def test_reused_solve_on_the_applied_incidence_touches_nothing():
    net, flows = _vector_net_with_flows()
    first = max_min_fair(net.demands())
    net.set_rates(first)
    net.advance(1.0, 0.0)  # drains lazily: no retirement, same incidence
    heap = net._finish_heap
    entries = list(heap)
    tokens = dict(net._heap_token)
    anchors = dict(net._anchor)
    again = max_min_fair(net.demands())
    assert again.incidence is first.incidence
    assert again.array is not first.array  # a reused solve is a fresh copy
    net.set_rates(again)
    assert net._finish_heap is heap and heap == entries
    assert net._heap_token == tokens
    assert net._anchor == anchors


def test_rates_stored_off_the_bulk_path_are_read_back():
    net, flows = _vector_net_with_flows()
    alloc = max_min_fair(net.demands())
    net.set_rates(alloc)
    net.set_rates({f.flow_id: 1.0 for f in flows})  # a plain dict: scalar path
    net.set_rates(max_min_fair(net.demands()))  # the same solve, in bulk
    for f in flows:
        assert net.state(f.flow_id).rate == alloc[f.flow_id]
    assert net.verify_accounting() == []


def test_bulk_set_rates_strict_capacity_violation():
    net, flows = _vector_net_with_flows(bw=3.0)
    alloc = max_min_fair(net.demands())
    alloc.array[:] = 100.0
    with pytest.raises(CapacityViolation):
        net.set_rates(alloc)


def test_bulk_set_rates_lenient_falls_back_to_rescale():
    net, flows = _vector_net_with_flows(bw=3.0, strict=False)
    alloc = max_min_fair(net.demands())
    alloc.array[:] = 100.0  # infeasible: lenient mode rescales via scalar path
    net.set_rates(alloc)
    assert feasible(net.demands(), {f.flow_id: net.state(f.flow_id).rate for f in flows})


def test_stale_incidence_falls_back_to_scalar_path():
    net, flows = _vector_net_with_flows(bw=9.0)
    alloc = max_min_fair(net.demands())
    extra = Flow("h0", "h1", 50.0)
    net.inject(extra, 0.0)  # bumps the structural revision
    net.set_rates(alloc)  # stale VectorAllocation: scalar path, still applied
    for f in flows:
        assert net.state(f.flow_id).rate == alloc[f.flow_id]
    assert net.state(extra.flow_id).rate == 0.0

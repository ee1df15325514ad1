"""What a fork costs: proportional to the live flows, not the run's history.

A retired flow is finished business -- its state is immutable and shared,
and nothing a fork does afterwards can touch it. So
:meth:`NetworkModel.fork` must re-translate and re-wrap only the live
flows, retirement must drop what only live flows need, and a retired
flow's path must still resolve on the fork's *own* links.
"""

import pytest

from repro.core.flow import Flow
from repro.scheduling import FairSharingScheduler
from repro.simulator import Engine, TaskDag
from repro.simulator.network import NetworkModel
from repro.topology import ShortestPathRouter, big_switch
from repro.topology.graph import Topology


def _model_with_history(n_retired: int, n_live: int):
    """A model whose first ``n_retired`` flows have drained and whose
    last ``n_live`` are still running, on disjoint host pairs."""
    topo = big_switch(4, 10.0)
    network = NetworkModel(topo, ShortestPathRouter(topo))
    short = [Flow("h0", "h1", 1.0) for _ in range(n_retired)]
    long = [Flow("h2", "h3", 1000.0) for _ in range(n_live)]
    for flow in short + long:
        network.inject(flow, 0.0)
    rates = {flow.flow_id: 10.0 / n_retired for flow in short}
    rates.update({flow.flow_id: 10.0 / n_live for flow in long})
    network.set_rates(rates)
    finished = network.advance(n_retired / 10.0 + 1.0, 0.0)
    assert len(finished) == n_retired
    assert network.active_count == n_live
    return network, short, long


def _count_link_lookups(monkeypatch, fn):
    calls = []
    original = Topology.link

    def counting(self, src, dst):
        calls.append((src, dst))
        return original(self, src, dst)

    monkeypatch.setattr(Topology, "link", counting)
    result = fn()
    monkeypatch.undo()
    return len(calls), result


def test_fork_translates_only_live_hops(monkeypatch):
    network, _short, long = _model_with_history(n_retired=60, n_live=3)
    live_hops = sum(len(network.path(flow.flow_id)) for flow in long)
    cached_route_hops = sum(len(path) for path in network.router._cache.values())
    accounted_links = len(network.accounting.links)
    lookups, _twin = _count_link_lookups(monkeypatch, network.fork)
    assert lookups == live_hops + accounted_links + cached_route_hops


def test_fork_lookups_do_not_grow_with_retired_flows(monkeypatch):
    small, _, _ = _model_with_history(n_retired=5, n_live=3)
    large, _, _ = _model_with_history(n_retired=500, n_live=3)
    small_lookups, _ = _count_link_lookups(monkeypatch, small.fork)
    large_lookups, _ = _count_link_lookups(monkeypatch, large.fork)
    assert small_lookups == large_lookups


def _paused_engine():
    """Two waves on disjoint host pairs: the first has retired by the
    pause point, the second is still draining."""
    topo = big_switch(4, 10.0)
    engine = Engine(topo, FairSharingScheduler())
    dag = TaskDag("j")
    first = [Flow("h0", "h1", 2.0, job_id="j") for _ in range(3)]
    second = [Flow("h2", "h3", 50.0, job_id="j") for _ in range(2)]
    dag.add_comm("first", first)
    dag.add_comm("second", second)
    engine.submit(dag)
    engine.run(until=2.0)
    retired = [flow.flow_id for flow in first]
    assert all(fid in engine.network._completed for fid in retired)
    assert engine.network.active_count == len(second)
    return engine, retired


def test_retired_path_resolves_on_the_forks_own_links():
    parent, retired = _paused_engine()
    fork = parent.fork()
    for fid in retired:
        parent_path = parent.network.path(fid)
        fork_path = fork.network.path(fid)
        assert [l.key for l in fork_path] == [l.key for l in parent_path]
        for link in fork_path:
            assert link is fork.network.topology.link(*link.key)
            assert link is not parent.network.topology.link(*link.key)
        # Stable: the re-keyed tuple is stored, not rebuilt per read.
        assert fork.network.path(fid) is fork_path

    # A fork of the fork re-keys again, onto its own clone.
    grandchild = fork.fork()
    path = grandchild.network.path(retired[0])
    assert all(
        link is grandchild.network.topology.link(*link.key) for link in path
    )


def test_degrading_a_retired_flows_link_on_the_fork_spares_the_parent():
    parent, retired = _paused_engine()
    before = [link.capacity for link in parent.network.path(retired[0])]
    fork = parent.fork()
    key = fork.network.path(retired[0])[0].key
    fork.network.set_link_capacity(key, 1.0)
    assert fork.network.path(retired[0])[0].capacity == 1.0
    assert [link.capacity for link in parent.network.path(retired[0])] == before
    fork.run()
    assert [link.capacity for link in parent.network.path(retired[0])] == before


def test_unknown_flow_has_no_path():
    parent, _retired = _paused_engine()
    with pytest.raises(KeyError):
        parent.fork().network.path(10**9)


def test_retirement_drops_live_only_state():
    parent, _retired = _paused_engine()
    fork = parent.fork()
    for engine in (parent, fork):
        engine.run()
        network = engine.network
        assert network.active_count == 0
        assert len(network._completed) == 5
        assert network._demands == {}
        assert network._heap_token == {}
        assert network._columns == {}
        assert network._anchor == {}
        for fid in network._completed:
            assert len(network.path(fid)) == 2

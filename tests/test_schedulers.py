"""Scheduler behaviour at the allocation level (no full simulation)."""

import pytest

from repro.core.arrangement import CoflowArrangement, StaggeredArrangement
from repro.core.echelonflow import EchelonFlow, make_coflow
from repro.core.flow import Flow
from repro.scheduling import (
    CoflowMaddScheduler,
    EchelonMaddScheduler,
    FairSharingScheduler,
    FifoFlowScheduler,
    ShortestFlowFirstScheduler,
    make_scheduler,
    scheduler_names,
)
from repro.scheduling.base import SchedulerView
from repro.scheduling.coflow_madd import link_load, madd_rates, remaining_gamma
from repro.simulator.network import NetworkModel
from repro.topology import ShortestPathRouter, big_switch, two_hosts


def _view(topology, flows, now=0.0, echelonflows=()):
    network = NetworkModel(topology, ShortestPathRouter(topology))
    for flow in flows:
        state = network.inject(flow, now=now)
        group = {ef.ef_id: ef for ef in echelonflows}.get(flow.group_id)
        if group is not None:
            group.observe_flow_start(flow, now)
            if group.reference_time is not None:
                state.ideal_finish_time = group.ideal_finish_time_of(flow)
    return SchedulerView(
        now=now,
        network=network,
        echelonflows={ef.ef_id: ef for ef in echelonflows},
    )


class TestFairSharing:
    def test_equal_split(self):
        topo = big_switch(3, 10.0)
        f1 = Flow("h0", "h1", 100.0)
        f2 = Flow("h0", "h2", 100.0)
        view = _view(topo, [f1, f2])
        rates = FairSharingScheduler().allocate(view)
        assert rates[f1.flow_id] == pytest.approx(5.0)
        assert rates[f2.flow_id] == pytest.approx(5.0)

    def test_job_weights(self):
        topo = big_switch(3, 12.0)
        f1 = Flow("h0", "h1", 100.0, job_id="a")
        f2 = Flow("h0", "h2", 100.0, job_id="b")
        view = _view(topo, [f1, f2])
        rates = FairSharingScheduler(weight_by_job={"a": 2.0}).allocate(view)
        assert rates[f1.flow_id] == pytest.approx(8.0)
        assert rates[f2.flow_id] == pytest.approx(4.0)


class TestSizeBased:
    def test_sjf_prioritizes_small(self):
        topo = big_switch(3, 10.0)
        small = Flow("h0", "h1", 1.0)
        large = Flow("h0", "h2", 100.0)
        view = _view(topo, [large, small])
        rates = ShortestFlowFirstScheduler().allocate(view)
        assert rates[small.flow_id] == pytest.approx(10.0)
        assert rates[large.flow_id] == pytest.approx(0.0)

    def test_fifo_prioritizes_earlier_start(self):
        topo = big_switch(3, 10.0)
        network = NetworkModel(topo, ShortestPathRouter(topo))
        first = Flow("h0", "h1", 100.0)
        second = Flow("h0", "h2", 1.0)
        network.inject(first, now=0.0)
        network.inject(second, now=1.0)
        view = SchedulerView(now=1.0, network=network)
        rates = FifoFlowScheduler().allocate(view)
        assert rates[first.flow_id] == pytest.approx(10.0)
        assert rates[second.flow_id] == pytest.approx(0.0)


class TestCoflowMadd:
    def test_gamma_and_madd_on_big_switch(self):
        topo = big_switch(4, 2.0)
        flows = [
            Flow("h0", "h1", 12.0, group_id="c"),
            Flow("h0", "h2", 4.0, group_id="c"),
            Flow("h3", "h1", 6.0, group_id="c"),
        ]
        view = _view(topo, flows, echelonflows=[make_coflow("c", flows)])
        network = view.network
        states = network.active_states()
        caps = network.column_capacities()
        load = link_load(
            [state.remaining for state in states],
            [network.columns(state.flow.flow_id) for state in states],
        )
        gamma = remaining_gamma(load, caps)
        # Ingress of h1 carries 18 bytes at cap 2 -> Gamma = 9.
        assert gamma == pytest.approx(9.0)
        rates = madd_rates(states, load, caps)
        for state in states:
            assert rates[state.flow.flow_id] == pytest.approx(state.remaining / 9.0)

    def test_all_flows_finish_together(self):
        topo = big_switch(4, 2.0)
        flows = [
            Flow("h0", "h1", 12.0, group_id="c"),
            Flow("h0", "h2", 4.0, group_id="c"),
        ]
        view = _view(topo, flows, echelonflows=[make_coflow("c", flows)])
        rates = CoflowMaddScheduler(backfill=False).allocate(view)
        finish = {f.flow_id: f.size / rates[f.flow_id] for f in flows}
        values = list(finish.values())
        assert values[0] == pytest.approx(values[1])

    def test_sebf_prioritizes_small_coflow(self):
        topo = big_switch(3, 10.0)
        small = Flow("h0", "h1", 5.0, group_id="small")
        large = Flow("h0", "h2", 100.0, group_id="large")
        view = _view(
            topo,
            [small, large],
            echelonflows=[make_coflow("small", [small]), make_coflow("large", [large])],
        )
        rates = CoflowMaddScheduler().allocate(view)
        # Small coflow paced to its own Gamma = 0.5 -> full rate; large
        # backfills the rest.
        assert rates[small.flow_id] == pytest.approx(10.0)
        assert rates[large.flow_id] == pytest.approx(0.0)

    def test_backfill_uses_leftover(self):
        topo = big_switch(4, 10.0)
        a = Flow("h0", "h1", 10.0, group_id="a")
        b = Flow("h2", "h3", 100.0, group_id="b")
        view = _view(
            topo,
            [a, b],
            echelonflows=[make_coflow("a", [a]), make_coflow("b", [b])],
        )
        rates = CoflowMaddScheduler(backfill=True).allocate(view)
        # Disjoint paths: both run at line rate.
        assert rates[a.flow_id] == pytest.approx(10.0)
        assert rates[b.flow_id] == pytest.approx(10.0)

    def test_ungrouped_flows_are_singletons(self):
        topo = big_switch(3, 10.0)
        f1 = Flow("h0", "h1", 5.0)
        f2 = Flow("h0", "h2", 50.0)
        view = _view(topo, [f1, f2])
        rates = CoflowMaddScheduler().allocate(view)
        assert rates[f1.flow_id] == pytest.approx(10.0)


class TestEchelonMadd:
    def test_coflow_arrangement_reduces_to_madd(self):
        """Property 2 executable: Eq.-5 EF gets exactly MADD rates."""
        topo = big_switch(4, 2.0)
        flows = [
            Flow("h0", "h1", 12.0, group_id="c", index_in_group=0),
            Flow("h0", "h2", 4.0, group_id="c", index_in_group=0),
            Flow("h3", "h1", 6.0, group_id="c", index_in_group=0),
        ]
        ef = EchelonFlow("c", CoflowArrangement())
        for f in flows:
            ef.add_flow(f)
        view = _view(topo, flows, echelonflows=[ef])
        echelon = EchelonMaddScheduler(backfill=False).allocate(view)
        varys = CoflowMaddScheduler(backfill=False).allocate(view)
        for flow in flows:
            assert echelon[flow.flow_id] == pytest.approx(varys[flow.flow_id])

    def test_staggered_deadlines_prioritize_head(self):
        topo = two_hosts(1.0)
        ef = EchelonFlow("ef", StaggeredArrangement(distance=2.0))
        f0 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=0)
        f1 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=1)
        ef.add_flow(f0)
        ef.add_flow(f1)
        view = _view(topo, [f0, f1], echelonflows=[ef])
        rates = EchelonMaddScheduler().allocate(view)
        # Head flow is already due (d0 = r = 0): full rate; f1 waits.
        assert rates[f0.flow_id] == pytest.approx(1.0)
        assert rates[f1.flow_id] == pytest.approx(0.0)

    def test_future_deadline_is_paced_without_backfill(self):
        # Disjoint paths so pacing is observable: f0 (due now) runs at line
        # rate, f1 (due at t=10) is paced to land exactly on its deadline.
        topo = big_switch(4, 10.0)
        ef = EchelonFlow("ef", StaggeredArrangement(distance=10.0))
        f0 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=0)
        f1 = Flow("h2", "h3", 2.0, group_id="ef", index_in_group=1)
        ef.add_flow(f0)
        ef.add_flow(f1)
        view = _view(topo, [f0, f1], echelonflows=[ef])
        rates = EchelonMaddScheduler(backfill=False).allocate(view)
        assert rates[f0.flow_id] == pytest.approx(10.0)
        assert rates[f1.flow_id] == pytest.approx(0.2)

    def test_late_stage_starved_by_urgent_head_on_shared_link(self):
        # On one shared link the due-now head flow takes everything; the
        # later stage waits (EDF), exactly the Fig. 2c staggered service.
        topo = two_hosts(10.0)
        ef = EchelonFlow("ef", StaggeredArrangement(distance=10.0))
        f0 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=0)
        f1 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=1)
        ef.add_flow(f0)
        ef.add_flow(f1)
        view = _view(topo, [f0, f1], echelonflows=[ef])
        rates = EchelonMaddScheduler(backfill=False).allocate(view)
        assert rates[f0.flow_id] == pytest.approx(10.0)
        assert rates[f1.flow_id] == pytest.approx(0.0)

    def test_backfill_makes_work_conserving(self):
        topo = two_hosts(10.0)
        ef = EchelonFlow("ef", StaggeredArrangement(distance=10.0))
        f0 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=0)
        ef.add_flow(f0)
        view = _view(topo, [f0], echelonflows=[ef])
        rates = EchelonMaddScheduler(backfill=True).allocate(view)
        assert rates[f0.flow_id] == pytest.approx(10.0)

    def test_flow_start_anchor_ignores_arrangement(self):
        topo = two_hosts(1.0)
        ef = EchelonFlow("ef", StaggeredArrangement(distance=5.0))
        f0 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=0)
        f1 = Flow("h0", "h1", 2.0, group_id="ef", index_in_group=1)
        ef.add_flow(f0)
        ef.add_flow(f1)
        view = _view(topo, [f0, f1], echelonflows=[ef])
        rates = EchelonMaddScheduler(anchor="flow_start", backfill=False).allocate(view)
        # Both anchored at start=now: both urgent; EDF tie -> stage order by
        # deadline collapses; both flows form one stage paced by Gamma.
        total = rates[f0.flow_id] + rates[f1.flow_id]
        assert total == pytest.approx(1.0)

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            EchelonMaddScheduler(ordering="bogus")
        with pytest.raises(ValueError):
            EchelonMaddScheduler(anchor="bogus")


class TestRegistry:
    def test_names_registered(self):
        names = scheduler_names()
        for expected in ("fair", "sjf", "fifo", "coflow", "echelon"):
            assert expected in names

    def test_make_scheduler(self):
        scheduler = make_scheduler("echelon", ordering="sebf")
        assert isinstance(scheduler, EchelonMaddScheduler)
        assert scheduler.ordering == "sebf"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_scheduler("nope")


@pytest.mark.parametrize("name", ["echelon", "coflow"])
def test_sub_nanosecond_stage_is_paced_without_backfill(name):
    """A flow whose Gamma is finite but under 1 ns still gets a rate.

    Without backfill nothing else serves it, so a rate of 0 would stall
    the run (the engine reports a deadlock).
    """
    from repro.simulator import Engine

    topo = big_switch(4, host_bandwidth=1.25e9)
    tiny = Flow("h0", "h1", 0.5)
    bulk = Flow("h2", "h3", 1e6)
    view = _view(topo, [tiny, bulk])
    rates = make_scheduler(name, backfill=False).allocate(view)
    assert rates[tiny.flow_id] == pytest.approx(1.25e9)
    assert rates[bulk.flow_id] == pytest.approx(1.25e9)

    engine = Engine(topo, make_scheduler(name, backfill=False))
    for flow in (Flow("h0", "h1", 0.5), Flow("h2", "h3", 1e6)):
        engine.inject_background_flow(flow, at_time=0.0)
    finish = sorted(record.finish for record in engine.run().flow_records)
    assert finish == pytest.approx([0.5 / 1.25e9, 1e6 / 1.25e9])

"""Direct unit tests of every inter-EchelonFlow ordering policy."""

import pytest

from repro.core.arrangement import CoflowArrangement, StaggeredArrangement
from repro.core.echelonflow import EchelonFlow
from repro.core.flow import Flow
from repro.scheduling import ORDERINGS, EchelonMaddScheduler
from repro.scheduling.base import SchedulerView
from repro.simulator.network import NetworkModel
from repro.topology import ShortestPathRouter, big_switch


def _view(flows, echelonflows, now=0.0, n_hosts=8, bw=10.0, starts=None):
    topo = big_switch(n_hosts, bw)
    network = NetworkModel(topo, ShortestPathRouter(topo))
    groups = {ef.ef_id: ef for ef in echelonflows}
    for i, flow in enumerate(flows):
        start = starts[i] if starts else 0.0
        state = network.inject(flow, start)
        group = groups.get(flow.group_id)
        if group is not None:
            group.observe_flow_start(flow, start)
            if group.reference_time is not None:
                state.ideal_finish_time = group.ideal_finish_time_of(flow)
    return SchedulerView(now=now, network=network, echelonflows=groups)


def _order(scheduler, view):
    full_caps = view.network.column_capacities()
    return [template.group_id for template, _value, _stages in scheduler._rank(view, full_caps)]


def _coflow(ef_id, src, dst, size, job_id=None, weight=1.0):
    ef = EchelonFlow(ef_id, CoflowArrangement(), job_id=job_id or ef_id, weight=weight)
    flow = Flow(src, dst, size, group_id=ef_id, job_id=job_id or ef_id)
    ef.add_flow(flow)
    return ef, flow


def test_orderings_constant_lists_every_policy():
    assert set(ORDERINGS) == {
        "hybrid",
        "tardiness",
        "projected",
        "tardiness-asc",
        "sebf",
        "fifo",
    }


def test_fifo_orders_by_group_id():
    ef_b, fb = _coflow("b", "h0", "h1", 5.0)
    ef_a, fa = _coflow("a", "h2", "h3", 50.0)
    view = _view([fb, fa], [ef_a, ef_b])
    order = _order(EchelonMaddScheduler(ordering="fifo"), view)
    assert order == ["a", "b"]


def test_sebf_orders_by_bottleneck():
    ef_small, fs = _coflow("zz-small", "h0", "h1", 5.0)
    ef_large, fl = _coflow("aa-large", "h2", "h3", 50.0)
    view = _view([fs, fl], [ef_small, ef_large])
    order = _order(EchelonMaddScheduler(ordering="sebf"), view)
    assert order == ["zz-small", "aa-large"]


def test_current_tardiness_orders_by_deadline_age():
    # Same sizes; group "old" started (reference) earlier -> more behind.
    ef_old, fo = _coflow("old", "h0", "h1", 10.0)
    ef_new, fn = _coflow("new", "h2", "h3", 10.0)
    view = _view([fo, fn], [ef_old, ef_new], now=5.0, starts=[0.0, 4.0])
    order = _order(EchelonMaddScheduler(ordering="tardiness"), view)
    assert order == ["old", "new"]


def test_current_tardiness_ignores_size():
    """Unlike projected: a big fresh group must not outrank a small late one."""
    ef_late, fl = _coflow("late-small", "h0", "h1", 1.0)
    ef_big, fb = _coflow("fresh-big", "h2", "h3", 1000.0)
    view = _view([fl, fb], [ef_late, ef_big], now=3.0, starts=[0.0, 3.0])
    current = _order(EchelonMaddScheduler(ordering="tardiness"), view)
    projected = _order(EchelonMaddScheduler(ordering="projected"), view)
    assert current == ["late-small", "fresh-big"]
    # Projected inflates the big group's lateness by its Gamma (100s).
    assert projected == ["fresh-big", "late-small"]


def test_tardiness_asc_is_the_reverse_of_projected():
    ef_a, fa = _coflow("a", "h0", "h1", 5.0)
    ef_b, fb = _coflow("b", "h2", "h3", 50.0)
    view = _view([fa, fb], [ef_a, ef_b])
    asc = _order(EchelonMaddScheduler(ordering="tardiness-asc"), view)
    desc = _order(EchelonMaddScheduler(ordering="projected"), view)
    assert asc == list(reversed(desc))


class TestHybrid:
    def test_jobs_rank_by_least_lateness(self):
        # Job X: small nearly-done group; job Y: big group. X first.
        ef_x, fx = _coflow("x", "h0", "h1", 1.0, job_id="jobX")
        ef_y, fy = _coflow("y", "h2", "h3", 100.0, job_id="jobY")
        view = _view([fx, fy], [ef_x, ef_y])
        order = _order(EchelonMaddScheduler(ordering="hybrid"), view)
        assert order == ["x", "y"]

    def test_within_job_most_currently_behind_first(self):
        staggered = EchelonFlow(
            "behind", StaggeredArrangement(0.1), job_id="job"
        )
        f_behind = Flow("h0", "h1", 5.0, group_id="behind", job_id="job")
        staggered.add_flow(f_behind)
        fresh = EchelonFlow("fresh", CoflowArrangement(), job_id="job")
        f_fresh = Flow("h2", "h3", 5.0, group_id="fresh", job_id="job")
        fresh.add_flow(f_fresh)
        view = _view(
            [f_behind, f_fresh], [staggered, fresh], now=4.0, starts=[0.0, 3.9]
        )
        order = _order(EchelonMaddScheduler(ordering="hybrid"), view)
        assert order == ["behind", "fresh"]

    def test_registered_outranks_unregistered(self):
        ef, registered_flow = _coflow("tenant", "h0", "h1", 100.0, job_id="job")
        background = Flow("h2", "h3", 1.0)  # no group: best-effort
        view = _view([registered_flow, background], [ef])
        order = _order(EchelonMaddScheduler(ordering="hybrid"), view)
        assert order[0] == "tenant"
        assert order[1].startswith("_flow")

    def test_weight_uses_smiths_rule(self):
        # Equal sizes; the heavier job sorts first under ascending keys.
        ef_light, fl = _coflow("light", "h0", "h1", 10.0, weight=1.0)
        ef_heavy, fh = _coflow("heavy", "h2", "h3", 10.0, weight=5.0)
        view = _view([fl, fh], [ef_light, ef_heavy])
        order = _order(EchelonMaddScheduler(ordering="hybrid"), view)
        assert order == ["heavy", "light"]

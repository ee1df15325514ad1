"""Unit tests for the simulation core's hot-path primitives.

Covers the pieces individually -- residual link accounting, the lazy
drain, the finish-time heap (fuzzed against the ``repro.check`` scans),
engine-maintained group buckets, the scheduler-view delta, the per-group
undated index, and the trace's per-job task index -- complementing the
end-to-end run equivalence in ``test_incremental_equivalence.py``.
Network-level tests run on both max-min kernels (``vector`` True/False).
"""

import random

import pytest

from repro.core.arrangement import CoflowArrangement
from repro.core.echelonflow import EchelonFlow
from repro.check import scan_earliest_finish, scan_finishing
from repro.core.flow import Flow
from repro.scheduling import FairSharingScheduler
from repro.scheduling.base import Scheduler, SchedulerView
from repro.simulator import Engine
from repro.simulator.allocation import LinkAccounting, max_min_fair
from repro.simulator.network import CapacityViolation, NetworkModel
from repro.simulator.trace import SimulationTrace, TaskEvent
from repro.topology import big_switch, two_hosts
from repro.topology.routing import ShortestPathRouter


def _network(topology, vector=False, strict=True):
    return NetworkModel(
        topology,
        ShortestPathRouter(topology),
        strict=strict,
        allocation="vector" if vector else "scalar",
    )


def _flow(src, dst, size, **kwargs):
    return Flow(src=src, dst=dst, size=size, **kwargs)


# ---------------------------------------------------------------------------
# LinkAccounting
# ---------------------------------------------------------------------------


class TestLinkAccounting:
    def _links_of(self, network, flow_id):
        return network.path(flow_id)

    def test_watch_apply_unwatch_roundtrip(self):
        topo = big_switch(2, 10.0)
        net = _network(topo)
        flow = _flow("h0", "h1", 100.0)
        net.inject(flow, 0.0)
        acc = net.accounting
        path = net.path(flow.flow_id)
        keys = [link.key for link in path]

        # Registered at rate 0: member of every link, no load anywhere.
        for key in keys:
            assert flow.flow_id in acc.flows_on[key]
            assert acc.loads[key] == 0.0
            assert acc.nonzero[key] == 0
        assert net.link_usage() == {}

        net.set_rates({flow.flow_id: 4.0})
        for key in keys:
            assert acc.loads[key] == 4.0
            assert acc.nonzero[key] == 1
        assert net.link_usage() == {link: 4.0 for link in path}

        # Retiring releases the load and hard-resets the idle links.
        net.advance(100.0 / 4.0, 0.0)
        for key in keys:
            assert flow.flow_id not in acc.flows_on[key]
            assert acc.loads[key] == 0.0
            assert acc.nonzero[key] == 0
        assert net.link_usage() == {}

    def test_feasible_with_deltas_matches_capacity_rule(self):
        acc = LinkAccounting()
        link = big_switch(2, 10.0).link("h0", "core")
        acc.watch(1, [link])
        acc.apply([link], 0.0, 6.0)
        assert acc.feasible_with_deltas({link.key: 3.9})
        assert not acc.feasible_with_deltas({link.key: 4.1})
        # The same lenient boundary as allocation.feasible().
        assert acc.feasible_with_deltas({link.key: 4.0 + 9.0e-6})
        assert not acc.feasible_with_deltas({link.key: 4.0 + 2.0e-5})

    def test_usage_filters_by_exact_counters(self):
        acc = LinkAccounting()
        link = big_switch(2, 10.0).link("h0", "core")
        acc.watch(1, [link])
        acc.watch(2, [link])
        acc.apply([link], 0.0, 2.0)
        acc.apply([link], 0.0, 3.0)
        assert acc.usage() == {link: 5.0}
        acc.apply([link], 2.0, 0.0)
        acc.apply([link], 3.0, 0.0)
        # Loads may hold float dust, but zero *counted* flows means absent.
        assert acc.usage() == {}


# ---------------------------------------------------------------------------
# lazy drain + state access
# ---------------------------------------------------------------------------


class TestLazyDrain:
    @pytest.mark.parametrize("vector", [True, False])
    def test_state_read_materializes_drain(self, vector):
        net = _network(two_hosts(1.0), vector)
        flow = _flow("h0", "h1", 10.0)
        net.inject(flow, 0.0)
        net.set_rates({flow.flow_id: 1.0})
        assert net.advance(4.0, 0.0) == []
        # No sync happened for the surviving flow, yet reads see the drain.
        assert net.state(flow.flow_id).remaining == pytest.approx(6.0)
        assert net.bytes_delivered == pytest.approx(4.0)

    @pytest.mark.parametrize("vector", [True, False])
    def test_active_states_syncs_everyone(self, vector):
        net = _network(big_switch(4, 10.0), vector)
        flows = [_flow(f"h{i}", f"h{(i + 1) % 4}", 10.0) for i in range(4)]
        for flow in flows:
            net.inject(flow, 0.0)
        net.set_rates({flow.flow_id: 2.0 for flow in flows})
        net.advance(1.0, 0.0)
        states = net.active_states()
        assert [s.flow.flow_id for s in states] == sorted(f.flow_id for f in flows)
        for state in states:
            assert state.remaining == pytest.approx(8.0)

    @pytest.mark.parametrize("vector", [True, False])
    def test_zero_rate_flows_never_drift(self, vector):
        net = _network(two_hosts(1.0), vector)
        flow = _flow("h0", "h1", 10.0)
        net.inject(flow, 0.0)
        net.advance(5.0, 0.0)
        assert net.state(flow.flow_id).remaining == 10.0
        assert net.earliest_finish_interval() == float("inf")


# ---------------------------------------------------------------------------
# set_rates: dirty set, strictness, scaling
# ---------------------------------------------------------------------------


class TestSetRates:
    @pytest.mark.parametrize("vector", [True, False])
    def test_negative_rate_rejected(self, vector):
        net = _network(two_hosts(1.0), vector)
        flow = _flow("h0", "h1", 10.0)
        net.inject(flow, 0.0)
        with pytest.raises(ValueError):
            net.set_rates({flow.flow_id: -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_rejected(self, bad):
        net = _network(big_switch(4, 10.0), strict=True)
        flows = [_flow(f"h{i}", f"h{(i + 1) % 4}", 10.0) for i in range(4)]
        for flow in flows:
            net.inject(flow, 0.0)
        rates = {flow.flow_id: 1.0 for flow in flows}
        rates[flows[2].flow_id] = bad
        assert net.validate_rates(rates) is False
        with pytest.raises(ValueError, match="rate for flow"):
            net.set_rates(rates)
        assert all(state.rate == 0.0 for state in net.iter_active())
        assert all(load == 0.0 for load in net.accounting.loads.values())

    @pytest.mark.parametrize("vector", [True, False])
    def test_strict_violation_mutates_nothing(self, vector):
        net = _network(two_hosts(1.0), vector, strict=True)
        a, b = _flow("h0", "h1", 10.0), _flow("h0", "h1", 10.0)
        net.inject(a, 0.0)
        net.inject(b, 0.0)
        net.set_rates({a.flow_id: 0.5, b.flow_id: 0.25})
        with pytest.raises(CapacityViolation):
            net.set_rates({a.flow_id: 0.9, b.flow_id: 0.9})
        # The pre-violation allocation survives untouched.
        assert net.state(a.flow_id).rate == 0.5
        assert net.state(b.flow_id).rate == 0.25
        assert net.earliest_finish_interval() == pytest.approx(20.0)

    def test_finish_query_sees_a_candidate_below_the_second_child(self):
        # Keys are threshold crossings and the threshold has an absolute
        # floor, so a small flow can key first yet finish last. Here the
        # heap is [small, slow, fast]: the answer sits under the second
        # child, past a first child keyed beyond the bound.
        net = _network(big_switch(6, 10.0))
        small = _flow("h0", "h1", 1e-3)
        slow = _flow("h2", "h3", 5.0)
        fast = _flow("h4", "h5", 1.0)
        for flow in (small, slow, fast):
            net.inject(flow, 0.0)
        net.set_rates(
            {small.flow_id: 1e-3, slow.flow_id: 1.0, fast.flow_id: 1.0 / (1 - 5e-7)}
        )
        assert [entry[1] for entry in net._finish_heap] == [
            small.flow_id,
            slow.flow_id,
            fast.flow_id,
        ]
        assert net.time_to_finish(small.flow_id) > net.time_to_finish(fast.flow_id)
        assert net.earliest_finish_interval() == net.time_to_finish(fast.flow_id)

    def test_unchanged_rates_do_not_grow_the_heap(self):
        net = _network(two_hosts(1.0))
        a, b = _flow("h0", "h1", 10.0), _flow("h0", "h1", 10.0)
        net.inject(a, 0.0)
        net.inject(b, 0.0)
        net.set_rates({a.flow_id: 0.5, b.flow_id: 0.25})
        before = len(net._finish_heap)
        for _ in range(50):
            net.set_rates({a.flow_id: 0.5, b.flow_id: 0.25})
        assert len(net._finish_heap) == before

    def test_heap_stays_compact_under_repacing(self):
        net = _network(two_hosts(1.0))
        flows = [_flow("h0", "h1", 1000.0) for _ in range(8)]
        for flow in flows:
            net.inject(flow, 0.0)
        rng = random.Random(3)
        for _ in range(200):
            shares = [rng.random() for _ in flows]
            total = sum(shares) * 1.25
            net.set_rates(
                {f.flow_id: s / total for f, s in zip(flows, shares)}
            )
        assert len(net._finish_heap) <= max(64, 4 * net.active_count)


# ---------------------------------------------------------------------------
# finish-heap fuzz: heap answers vs. the repro.check scans
# ---------------------------------------------------------------------------


class TestTwinNetworkFuzz:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_op_sequences_agree_exactly(self, seed):
        net = _network(big_switch(4, 10.0), strict=False)
        rng = random.Random(seed)
        now = 0.0
        retired = 0

        for step in range(300):
            op = rng.random()
            if op < 0.25 or not net.active_count:
                src = rng.randrange(4)
                dst = (src + rng.randrange(1, 4)) % 4
                flow = _flow(
                    f"h{src}",
                    f"h{dst}",
                    0.5 + rng.random() * 5.0,
                    group_id=f"g{rng.randrange(3)}" if rng.random() < 0.7 else None,
                )
                net.inject(flow, now)
            elif op < 0.6:
                rates = {
                    s.flow.flow_id: rng.random() * 4.0
                    for s in net.iter_active()
                    if rng.random() < 0.8
                }
                net.set_rates(rates)
            else:
                horizon = net.earliest_finish_interval()
                if horizon == float("inf"):
                    dt = rng.random()
                else:
                    dt = horizon * rng.choice([0.5, 1.0, 1.0])
                expected = scan_finishing(net, now + dt)
                done = net.advance(dt, now)
                now += dt
                assert [s.flow.flow_id for s in done] == expected
                assert all(s.finish_time == now for s in done)
                retired += len(done)

            # The heap's answer equals the scan's after every operation,
            # and the maintained accounting and buckets equal recomputes.
            assert net.earliest_finish_interval() == scan_earliest_finish(net)
            assert net.verify_accounting() == []
            states = net.active_states()
            expected_buckets = {}
            for state in states:
                expected_buckets.setdefault(state.flow.group_id, []).append(
                    state.flow.flow_id
                )
            assert [
                (gid, [s.flow.flow_id for s in bucket])
                for gid, bucket in net.group_buckets()
            ] == sorted(
                expected_buckets.items(), key=lambda kv: (kv[0] is None, kv[0] or "")
            )
        assert retired > 0


def _live_entries(net):
    tokens = net._heap_token
    return sorted(
        entry for entry in net._finish_heap if tokens.get(entry[1]) == entry[2]
    )


class TestBulkRatesFuzz:
    """Vector allocations applied through the bulk path, against a scalar
    twin that receives the same rates as plain dicts."""

    @pytest.mark.parametrize("seed", [2, 5, 11])
    def test_bulk_applications_match_a_scalar_twin(self, seed, monkeypatch):
        np = pytest.importorskip("numpy")
        from repro.simulator.vector import VectorAllocation

        took_bulk = []
        bulk = NetworkModel._set_rates_bulk

        def spy(self, rates):
            took = bulk(self, rates)
            took_bulk.append(took)
            return took

        monkeypatch.setattr(NetworkModel, "_set_rates_bulk", spy)
        net = _network(big_switch(4, 10.0), vector=True)
        twin = _network(big_switch(4, 10.0))
        rng = random.Random(seed)
        # At most 40 live flows at 0.25 each never overload a 10.0 link,
        # so any mix of old and fresh rates is feasible.
        limit, share = 40, 0.25
        now = 0.0
        kinds = {"full": 0, "partial": 0, "reuse": 0}
        retired = 0
        last = None

        for step in range(300):
            if step == 150:
                net, twin = net.fork(), twin.fork()
            op = rng.random()
            if (op < 0.25 and net.active_count < limit) or not net.active_count:
                src = rng.randrange(4)
                dst = (src + rng.randrange(1, 4)) % 4
                flow = _flow(
                    f"h{src}",
                    f"h{dst}",
                    0.5 + rng.random() * 5.0,
                    group_id=f"g{rng.randrange(3)}" if rng.random() < 0.5 else None,
                )
                net.inject(flow, now)
                twin.inject(flow, now)
            elif op < 0.65:
                incidence = net.demands().incidence()
                fids = incidence.fids.tolist()
                current = np.array([net._active[fid].rate for fid in fids])
                fresh = np.array([rng.random() * share for _ in fids])
                kind = rng.choice(list(kinds))
                if kind == "full":
                    array = fresh
                elif kind == "partial":
                    mask = np.array([rng.random() < 0.3 for _ in fids])
                    array = np.where(mask, fresh, current)
                elif last is not None and last.incidence is incidence:
                    array = last.array.copy()
                else:
                    array = current
                last = VectorAllocation(incidence, array)
                took_bulk.clear()
                net.set_rates(last)
                assert took_bulk == [True]
                kinds[kind] += 1
                twin.set_rates(dict(zip(fids, array.tolist())))
                if kind == "full" and (array != current).all():
                    # A rekey of every live flow leaves no stale entry.
                    tokens = net._heap_token
                    assert all(
                        tokens.get(fid) == token
                        for _key, fid, token in net._finish_heap
                    )
            elif op < 0.7:
                # A rate stored off the bulk path, on both models.
                rates = {
                    s.flow.flow_id: rng.random() * share
                    for s in net.iter_active()
                    if rng.random() < 0.5
                }
                net.set_rates(rates)
                twin.set_rates(rates)
            else:
                horizon = net.earliest_finish_interval()
                dt = rng.random() if horizon == float("inf") else horizon * rng.choice(
                    [0.5, 1.0, 1.0]
                )
                expected = scan_finishing(net, now + dt)
                done = net.advance(dt, now)
                twin_done = twin.advance(dt, now)
                now += dt
                assert [s.flow.flow_id for s in done] == expected
                assert [s.flow.flow_id for s in twin_done] == expected
                retired += len(done)

            interval = net.earliest_finish_interval()
            assert interval == scan_earliest_finish(net)
            assert interval == twin.earliest_finish_interval()
            # Bulk keys are the scalar keys, bit for bit.
            assert _live_entries(net) == _live_entries(twin)
            assert net.verify_accounting() == []
            if rng.random() < 0.5:
                # Materializing reads on some steps only, so the bulk path
                # also meets flows whose drain is still pending.
                states = net.active_states()
                twin_states = twin.active_states()
                fids = [s.flow.flow_id for s in states]
                assert fids == sorted(fids)
                assert fids == [s.flow.flow_id for s in twin_states]
                assert [(s.remaining, s.rate) for s in states] == [
                    (s.remaining, s.rate) for s in twin_states
                ]
                assert net.bytes_delivered == twin.bytes_delivered
        assert retired > 0
        assert all(kinds.values()), kinds


# ---------------------------------------------------------------------------
# group buckets
# ---------------------------------------------------------------------------


class TestGroupBuckets:
    @pytest.mark.parametrize("vector", [True, False])
    def test_sorted_by_group_none_last_fids_ascending(self, vector):
        net = _network(big_switch(4, 10.0), vector)
        flows = [
            _flow("h0", "h1", 5.0, group_id="b"),
            _flow("h1", "h2", 5.0, group_id="a"),
            _flow("h2", "h3", 5.0),
            _flow("h3", "h0", 5.0, group_id="a"),
        ]
        for flow in flows:
            net.inject(flow, 0.0)
        buckets = net.group_buckets()
        assert [gid for gid, _ in buckets] == ["a", "b", None]
        a_bucket = dict((gid, states) for gid, states in buckets)["a"]
        assert [s.flow.flow_id for s in a_bucket] == sorted(
            [flows[1].flow_id, flows[3].flow_id]
        )

    @pytest.mark.parametrize("vector", [True, False])
    def test_retirement_empties_buckets(self, vector):
        net = _network(two_hosts(1.0), vector)
        flow = _flow("h0", "h1", 1.0, group_id="g")
        net.inject(flow, 0.0)
        net.set_rates({flow.flow_id: 1.0})
        net.advance(1.0, 0.0)
        assert net.group_buckets() == []


# ---------------------------------------------------------------------------
# scheduler-view delta + persistence
# ---------------------------------------------------------------------------


class _ViewProbe(Scheduler):
    name = "view-probe"

    def __init__(self):
        self.views = []
        self.deltas = []

    def allocate(self, view):
        self.views.append(view)
        self.deltas.append((view.injected_flows, view.departed_flows))
        demands = view.flow_demands()
        if not demands:
            return {}
        return max_min_fair(demands)


class TestViewDelta:
    def test_incremental_engine_reuses_one_view_with_deltas(self):
        engine = Engine(big_switch(4, 4.0), _ViewProbe())
        flows = [_flow(f"h{i}", f"h{(i + 1) % 4}", float(i + 1)) for i in range(3)]
        for i, flow in enumerate(flows):
            engine.inject_background_flow(flow, at_time=0.1 * i)
        engine.run()
        probe = engine.scheduler
        assert len(set(map(id, probe.views))) == 1  # persistent view
        injected_seen = [fid for inj, _ in probe.deltas for fid in inj]
        departed_seen = [fid for _, dep in probe.deltas for fid in dep]
        assert sorted(injected_seen) == sorted(f.flow_id for f in flows)
        # Departure deltas surface on the invocations after each finish
        # (the final departures happen after the last reschedule).
        assert set(departed_seen) <= {f.flow_id for f in flows}
        first_injected = probe.deltas[0][0]
        assert flows[0].flow_id in first_injected

    def test_direct_view_construction_has_empty_delta(self):
        net = _network(two_hosts(1.0))
        view = SchedulerView(now=0.0, network=net)
        assert view.injected_flows == ()
        assert view.departed_flows == ()


# ---------------------------------------------------------------------------
# per-group undated index (Engine._inject_flow)
# ---------------------------------------------------------------------------


class TestUndatedIndex:
    def test_late_head_dates_earlier_members(self):
        engine = Engine(big_switch(4, 10.0), FairSharingScheduler())
        group = EchelonFlow("ef", CoflowArrangement())
        engine.register_echelonflow(group)
        followers = [
            _flow("h0", "h1", 5.0, group_id="ef", index_in_group=1),
            _flow("h1", "h2", 5.0, group_id="ef", index_in_group=2),
        ]
        head = _flow("h2", "h3", 5.0, group_id="ef", index_in_group=0)

        engine._inject_flow(followers[0], owner=None)
        engine._inject_flow(followers[1], owner=None)
        undated = [
            s
            for s in engine.network.active_states()
            if s.ideal_finish_time is None
        ]
        assert len(undated) == 2
        assert [s.flow.flow_id for s in engine._undated["ef"]] == [
            f.flow_id for f in followers
        ]

        # The head pins the reference; everyone gets dated, index drained.
        engine._inject_flow(head, owner=None)
        for state in engine.network.active_states():
            assert state.ideal_finish_time == group.ideal_finish_time_of(state.flow)
        assert "ef" not in engine._undated

    def test_undated_flow_that_finishes_leaves_the_index(self):
        engine = Engine(big_switch(4, 10.0), FairSharingScheduler())
        engine.register_echelonflow(EchelonFlow("ef", CoflowArrangement()))
        follower = _flow("h0", "h1", 1.0, group_id="ef", index_in_group=1)
        engine.inject_background_flow(follower, at_time=0.0)
        engine.run()
        assert engine._undated == {}


# ---------------------------------------------------------------------------
# trace per-job task index + job_completion_time
# ---------------------------------------------------------------------------


class TestTraceJobIndex:
    def test_task_events_of_job_matches_linear_filter(self):
        trace = SimulationTrace()
        for i in range(20):
            trace.task_events.append(
                TaskEvent(
                    task_id=f"t{i}",
                    kind="compute",
                    time=float(i),
                    job_id=f"job{i % 3}",
                )
            )
        for job in ("job0", "job1", "job2", "missing"):
            expected = [e for e in trace.task_events if e.job_id == job]
            assert trace.task_events_of_job(job) == expected

    def test_index_absorbs_appends_incrementally(self):
        trace = SimulationTrace()
        trace.task_events.append(TaskEvent("a", "compute", 1.0, "j"))
        assert [e.task_id for e in trace.task_events_of_job("j")] == ["a"]
        trace.task_events.append(TaskEvent("b", "comm", 2.0, "j"))
        assert [e.task_id for e in trace.task_events_of_job("j")] == ["a", "b"]


# ---------------------------------------------------------------------------
# fair-share fast path
# ---------------------------------------------------------------------------


class TestFairshareFastPath:
    def test_unweighted_fast_path_matches_weighted_route(self):
        net = _network(big_switch(4, 10.0))
        for i in range(6):
            net.inject(_flow(f"h{i % 4}", f"h{(i + 1) % 4}", 10.0, job_id="j"), 0.0)
        view = SchedulerView(now=0.0, network=net)
        fast = FairSharingScheduler().allocate(view)
        slow = FairSharingScheduler(weight_by_job={"other": 2.0}).allocate(view)
        assert fast == slow

    def test_cached_demands_are_reused(self):
        net = _network(two_hosts(1.0))
        flow = _flow("h0", "h1", 10.0)
        net.inject(flow, 0.0)
        assert net.demand(flow.flow_id) is net.demand(flow.flow_id)
        assert net.demands()[0] is net.demand(flow.flow_id)

"""Decision reuse across iterations (MemoizingScheduler)."""

import math

import pytest

from repro import Engine, big_switch, linear_chain
from repro.core.units import gbps, megabytes
from repro.scheduling import EchelonMaddScheduler, MemoizingScheduler
from repro.workloads import build_dp_allreduce, build_pp_gpipe, uniform_model

MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(40),
    activation_bytes=megabytes(20),
    forward_time=0.004,
)
HOSTS = ["h0", "h1", "h2", "h3"]


def _run_pp(scheduler, iterations):
    job = build_pp_gpipe(
        "j", MODEL, HOSTS, num_micro_batches=4, iterations=iterations
    )
    engine = Engine(linear_chain(4, gbps(3)), scheduler)
    job.submit_to(engine)
    return engine.run()


def test_identical_schedule_to_inner():
    cached = MemoizingScheduler(EchelonMaddScheduler())
    trace_cached = _run_pp(cached, 5)
    trace_plain = _run_pp(EchelonMaddScheduler(), 5)
    assert trace_cached.end_time == pytest.approx(trace_plain.end_time, abs=1e-12)
    cached_finishes = sorted(r.finish for r in trace_cached.flow_records)
    plain_finishes = sorted(r.finish for r in trace_plain.flow_records)
    assert cached_finishes == pytest.approx(plain_finishes)


def test_hit_rate_grows_with_iterations():
    """Iterative structure: hit rate approaches (k-1)/k over k iterations."""
    one = MemoizingScheduler(EchelonMaddScheduler())
    _run_pp(one, 1)
    many = MemoizingScheduler(EchelonMaddScheduler())
    _run_pp(many, 10)
    assert one.hit_rate == 0.0
    assert many.hit_rate > 0.85


def test_works_for_dp_too():
    scheduler = MemoizingScheduler(EchelonMaddScheduler())
    job = build_dp_allreduce(
        "j", MODEL, HOSTS, bucket_bytes=megabytes(80), iterations=6
    )
    engine = Engine(big_switch(4, gbps(10)), scheduler)
    job.submit_to(engine)
    engine.run()
    assert scheduler.hit_rate > 0.7


def test_lru_eviction_bounds_memory():
    scheduler = MemoizingScheduler(EchelonMaddScheduler(), max_entries=4)
    _run_pp(scheduler, 3)
    assert len(scheduler._cache) <= 4


def test_clear_resets_counters():
    scheduler = MemoizingScheduler(EchelonMaddScheduler())
    _run_pp(scheduler, 2)
    scheduler.clear()
    assert scheduler.hits == 0 and scheduler.misses == 0
    assert scheduler.hit_rate == 0.0


def test_validation():
    with pytest.raises(ValueError):
        MemoizingScheduler(EchelonMaddScheduler(), max_entries=0)


def test_different_situations_do_not_collide():
    """Same topology, different flow sizes: distinct fingerprints."""
    scheduler = MemoizingScheduler(EchelonMaddScheduler())
    small = build_dp_allreduce("a", MODEL, HOSTS, bucket_bytes=megabytes(80))
    engine = Engine(big_switch(4, gbps(10)), scheduler)
    small.submit_to(engine)
    engine.run()
    misses_after_first = scheduler.misses

    big_model = MODEL.scaled(size_scale=2.0)
    engine2 = Engine(big_switch(4, gbps(10)), scheduler)
    build_dp_allreduce("b", big_model, HOSTS, bucket_bytes=megabytes(160)).submit_to(
        engine2
    )
    engine2.run()
    # The second job's flows are twice the size: all fresh situations.
    assert scheduler.misses > misses_after_first


def test_ecmp_paths_key_the_fingerprint():
    """Equal endpoints on different ECMP paths are different situations.

    On ``fat_tree(4)`` the flow id picks the path: with ids 1 and 2 the
    two flows take disjoint paths and each gets the full 10.0; with ids 1
    and 4 they share a link, so replaying the first allocation would
    overload it.
    """
    from repro.core.flow import Flow
    from repro.scheduling.base import SchedulerView
    from repro.simulator.network import NetworkModel
    from repro.topology import fat_tree
    from repro.topology.routing import EcmpRouter

    def decide(scheduler, flow_ids):
        topology = fat_tree(4, 10.0)
        network = NetworkModel(topology, EcmpRouter(topology))
        hosts = topology.hosts
        pairs = [(hosts[0], hosts[-1]), (hosts[1], hosts[-2])]
        for flow_id, (src, dst) in zip(flow_ids, pairs):
            network.inject(Flow(src, dst, 5.0, flow_id=flow_id), 0.0)
        rates = scheduler.allocate(SchedulerView(now=0.0, network=network))
        network.set_rates(rates)  # strict: raises on an overloaded link
        return rates

    memo = MemoizingScheduler(EchelonMaddScheduler())
    assert decide(memo, (1, 2)) == {1: 10.0, 2: 10.0}
    shared = decide(memo, (1, 4))
    assert shared == decide(EchelonMaddScheduler(), (1, 4))
    assert shared == {1: 10.0, 4: 0.0}
    assert memo.hits == 0


# ---------------------------------------------------------------------------
# The fingerprint against its oracle: the per-flow form it replaced
# ---------------------------------------------------------------------------


def _quantize(value: float) -> float:
    """Collapse float fuzz so recurring situations fingerprint equally."""
    return float(f"{value:.9g}")


def _oracle_fingerprint(view):
    """``MemoizingScheduler._fingerprint`` as it was before values were
    deduplicated per call: every value quantized per flow, every deadline
    resolved per flow through the view. Kept verbatim as the oracle."""
    states = view.active_states()  # sorted by flow id = injection order
    group_tokens = {}
    # Runtime capacity mutations (fault injection) change the
    # optimization problem without changing any per-flow field; the
    # network's capacity *lineage* keys them into the fingerprint so
    # a pre-fault decision is never replayed post-fault. The lineage
    # (globally-unique token per mutation) rather than the bare epoch
    # counter is what makes the cache safe to share across forks: a
    # fork that mutated a link and a parent that mutated a different
    # one both sit at epoch N+1, but their lineages differ, so
    # neither can replay the other's allocation.
    entries = [
        ("epoch", getattr(view.network, "capacity_lineage", None)
         or view.network.capacity_epoch)
    ]
    flow_ids = []
    link_keys = view.network.link_keys
    for state in states:
        flow = state.flow
        group_id = flow.group_id
        if group_id not in group_tokens:
            group_tokens[group_id] = len(group_tokens)
        weight = view.group_weight_of(state)
        deadline = view.ideal_finish_time(state)
        slack = (
            _quantize(deadline - view.now)
            if deadline is not None
            else _quantize(view.now - state.start_time)
        )
        entries.append(
            (
                # The path by link names (forks share them), which
                # also names the endpoints: with ECMP, equal
                # endpoints do not imply equal paths.
                link_keys(flow.flow_id),
                group_tokens[group_id],
                flow.index_in_group,
                _quantize(state.remaining),
                slack,
                _quantize(weight),
            )
        )
        flow_ids.append(flow.flow_id)
    return tuple(entries), flow_ids


def _distinct_values(view):
    """The floats a decision's fingerprint quantizes, each once."""
    values = set()
    for state in view.active_states():
        deadline = view.ideal_finish_time(state)
        values.add(state.remaining)
        values.add(
            deadline - view.now if deadline is not None
            else view.now - state.start_time
        )
        values.add(view.group_weight_of(state))
    return values


@pytest.fixture
def checked(monkeypatch):
    """Check every fingerprint any MemoizingScheduler takes (forks too)
    against the oracle, and count one quantization per distinct value.

    Returns the list of ``(scheduler, key, flow_ids, hit)`` per decision.
    """
    from repro.scheduling import cache

    calls = []
    quantized = []

    def counting_quantize(value):
        quantized.append(value)
        return _quantize(value)

    production = MemoizingScheduler._fingerprint

    def fingerprint(self, view):
        expected, expected_ids = _oracle_fingerprint(view)
        distinct = len(_distinct_values(view))
        del quantized[:]
        key, flow_ids = production(self, view)
        assert key == expected
        assert flow_ids == expected_ids
        assert len(quantized) == distinct
        calls.append((self, key, flow_ids, key in self._cache))
        return key, flow_ids

    monkeypatch.setattr(cache, "_quantize", counting_quantize)
    monkeypatch.setattr(MemoizingScheduler, "_fingerprint", fingerprint)
    return calls


def test_fingerprint_equals_oracle_over_a_whatif_batch(checked):
    """Every decision of a warm batch over all five query kinds: the
    baseline, its forks sharing the cache, and a capacity fault."""
    from repro.whatif import WhatIfService

    service = WhatIfService.build(hosts=8, jobs=4, iterations=2, sanitizer=False)
    baseline = service.engine.scheduler
    baseline_calls = len(checked)
    service.run_batch(
        [
            "degrade_link:h1-core@25%+40%,factor=0.3",
            "kill_link:h2-core@35%+20%",
            "submit_job:dp@40%",
            "add_tenant:fsdp@50%,jobs=2",
            "remove_job:dp3@0",
            "degrade_link:h1-core@60%+10%,factor=0.5",
        ],
        mode="warm",
        detail="deltas",
    )
    forked = checked[baseline_calls:]
    assert baseline_calls > 100 and len(forked) > 100
    # Forks are separate schedulers over the baseline's one cache, and
    # they replay decisions the baseline or a sibling stored.
    assert all(scheduler is not baseline for scheduler, *_ in forked)
    assert all(scheduler._cache is baseline._cache for scheduler, *_ in forked)
    assert any(hit for *_, hit in forked)
    # The capacity faults key the lineage into the fingerprint.
    assert any(isinstance(key[0][1], tuple) for _, key, _, _ in forked)
    # Several arrangement indices of one group in one decision: their
    # deadlines are resolved per (group, index), not per group.
    assert any(
        len({entry[1:3] for entry in key[1:]}) > len({entry[1] for entry in key[1:]})
        for _, key, _, _ in checked
    )


def _view(network, now=0.0, echelonflows=None):
    from repro.scheduling.base import SchedulerView

    return SchedulerView(now=now, network=network, echelonflows=echelonflows or {})


def _network(hosts=4):
    from repro.simulator.network import NetworkModel
    from repro.topology.routing import ShortestPathRouter

    topology = big_switch(hosts, 10.0)
    return NetworkModel(topology, ShortestPathRouter(topology))


def _staggered(ef_id, flows, distance=0.25, weight=1.0):
    from repro.core.arrangement import StaggeredArrangement
    from repro.core.echelonflow import EchelonFlow

    return EchelonFlow(ef_id, StaggeredArrangement(distance), flows, weight=weight)


def _flow(src, dst, size, flow_id, group_id=None, index=0):
    from repro.core.flow import Flow

    return Flow(src, dst, size, group_id=group_id, index_in_group=index,
                flow_id=flow_id)


def _assert_matches_oracle(view):
    key, flow_ids = MemoizingScheduler(EchelonMaddScheduler())._fingerprint(view)
    expected, expected_ids = _oracle_fingerprint(view)
    assert key == expected
    assert hash(key) == hash(expected)
    assert flow_ids == expected_ids
    return key


def test_fingerprint_follows_a_reference_time_set_between_decisions():
    network = _network()
    flows = [_flow("h0", "h1", 3.0, 1, "g", 0), _flow("h2", "h3", 3.0, 2, "g", 1)]
    group = _staggered("g", flows)
    for flow in flows:
        network.inject(flow, 0.0)
    view = _view(network, now=0.5, echelonflows={"g": group})
    undated = _assert_matches_oracle(view)
    group.set_reference_time(0.1)
    dated = _assert_matches_oracle(view)
    # Undated, both slacks are time since start; dated, each index has
    # its own deadline relative to now.
    assert [entry[4] for entry in undated[1:]] == [0.5, 0.5]
    assert [entry[4] for entry in dated[1:]] == [-0.4, -0.15]


def test_fingerprint_follows_a_flow_rerouted_by_link_down(checked):
    from repro.core.flow import Flow
    from repro.scheduling import make_scheduler
    from repro.topology import leaf_spine
    from repro.topology.routing import EcmpRouter

    topology = leaf_spine(n_leaves=2, hosts_per_leaf=2, host_bandwidth=10.0)
    engine = Engine(
        topology,
        MemoizingScheduler(make_scheduler("echelon")),
        router=EcmpRouter(topology),
        faults="link_down:leaf0-spine1@0.3+0.5",
        sanitizer=False,
    )
    for src in ("h0", "h1"):
        for dst in ("h2", "h3"):
            engine.inject_background_flow(Flow(src, dst, 8.0), 0.0)
    engine.inject_background_flow(Flow("h0", "h1", 0.5), 0.2)
    engine.run()
    migrated = [fid for record in engine.faults.fired
                for fid in record.get("migrated", ())]
    assert migrated
    for flow_id in migrated:
        paths = {
            key[1 + flow_ids.index(flow_id)][0]
            for _, key, flow_ids, _ in checked
            if flow_id in flow_ids
        }
        assert len(paths) == 2  # the key moved with the path


def test_fingerprint_of_weighted_echelonflows():
    network = _network()
    heavy = [_flow("h0", "h1", 2.0, 1, "heavy", 0), _flow("h0", "h2", 2.0, 2, "heavy", 1)]
    light = [_flow("h1", "h3", 2.0, 3, "light", 0)]
    groups = {
        "heavy": _staggered("heavy", heavy, weight=2.5),
        "light": _staggered("light", light, weight=1.0 / 3.0),
    }
    groups["heavy"].set_reference_time(0.0)
    for flow in heavy + light:
        network.inject(flow, 0.0)
    key = _assert_matches_oracle(_view(network, now=0.2, echelonflows=groups))
    assert [entry[5] for entry in key[1:]] == [2.5, 2.5, 0.333333333]


def test_fingerprint_interleaves_ungrouped_and_grouped_flows():
    network = _network()
    grouped = [_flow("h0", "h1", 1.0, fid, "g", index)
               for index, fid in enumerate((2, 4, 6))]
    ungrouped = [_flow("h2", "h3", 1.5, fid) for fid in (1, 3, 5)]
    group = _staggered("g", grouped)
    group.set_reference_time(0.0)
    for flow in sorted(grouped + ungrouped, key=lambda flow: flow.flow_id):
        network.inject(flow, 0.0)
    key = _assert_matches_oracle(_view(network, now=0.1, echelonflows={"g": group}))
    # Tokens by order of appearance: ungrouped first (fid 1), then g.
    assert [entry[1] for entry in key[1:]] == [0, 1, 0, 1, 0, 1]


def test_fingerprint_shares_one_value_as_remaining_and_slack():
    network = _network()
    value = 0.1 + 0.2  # 0.30000000000000004: the quantum drops its fuzz
    network.inject(_flow("h0", "h1", value, 1), 0.0)
    key = _assert_matches_oracle(_view(network, now=value))
    assert key[1][3] == key[1][4] == 0.3


def test_fingerprint_merges_signed_zeros_harmlessly():
    network = _network()
    network.inject(_flow("h0", "h1", 1.0, 1), 0.0)
    network.inject(_flow("h2", "h3", 1.0, 2), 0.0).ideal_finish_time = -0.0
    view = _view(network, now=0.0)
    expected, _ = _oracle_fingerprint(view)
    assert math.copysign(1.0, expected[2][4]) == -1.0  # the oracle keeps -0.0
    # The value table maps -0.0 to the 0.0 seen first; tuples compare
    # and hash the two zeros alike, so the cache cannot tell.
    key = _assert_matches_oracle(view)
    assert key[1][4] == key[2][4] == 0.0

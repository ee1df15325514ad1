"""Decision reuse across iterations (MemoizingScheduler)."""

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

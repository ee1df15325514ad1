"""Snapshot / fork / restore across the engine spine, end to end.

The tentpole contract under test: an engine forked from a
:class:`~repro.simulator.StateHandle` and resumed must be **bit
identical** to the uninterrupted run -- same flow records, same
task/compute events, same end time -- at *any* snapshot point. The
suite forks each scenario at ten seeded-random timestamps across the
Fig. 2 two-host pipeline and three Table-1 paradigms (DP, FSDP, PP),
then pins down the supporting machinery: ``restore()``, the
:class:`SnapshotError` taxonomy, capacity-lineage fingerprints that
keep the shared :class:`~repro.scheduling.MemoizingScheduler` cache
safe across diverging forks, the engine-scoped flow-id allocator, and
the :class:`~repro.whatif.WhatIfService` built on all of it (warm
fork-based answers must equal cold from-scratch rebuilds exactly).

Flow ids are compared structurally (src, dst, size, group, index, job,
tag) so the assertions hold even if allocators number two builds
differently.
"""

import gc
import random
import weakref

import pytest

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps, megabytes
from repro.faults import FaultInjector, parse_fault_spec
from repro.scheduling import EchelonMaddScheduler, MemoizingScheduler
from repro.simulator import Engine, SnapshotError
from repro.topology import big_switch, two_hosts
from repro.whatif import (
    WhatIfError,
    WhatIfQueryError,
    WhatIfService,
    parse_batch,
    parse_query,
)
from repro.workloads import (
    build_dp_allreduce,
    build_fsdp,
    build_pipeline_segment,
    build_pp_gpipe,
    uniform_model,
)

# ---------------------------------------------------------------------------
# comparison machinery (structural keys, as in test_incremental_equivalence)
# ---------------------------------------------------------------------------


def _flow_key(flow):
    return (
        flow.src,
        flow.dst,
        flow.size,
        flow.group_id or "",
        flow.index_in_group,
        flow.job_id or "",
        flow.tag,
    )


def _trace_key(trace):
    return (
        sorted(
            _flow_key(r.flow)
            + (r.start, r.finish, r.ideal_finish is None, r.ideal_finish or 0.0)
            for r in trace.flow_records
        ),
        [(e.task_id, e.kind, e.time, e.job_id) for e in trace.task_events],
        [
            (s.task_id, s.device, s.start, s.end, s.job_id, s.tag)
            for s in trace.compute_spans
        ],
        trace.end_time,
    )


# ---------------------------------------------------------------------------
# scenarios: Fig. 2 pipeline + three Table-1 paradigms
# ---------------------------------------------------------------------------

_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(30),
    activation_bytes=megabytes(15),
    forward_time=0.004,
)

_HOSTS4 = ["h0", "h1", "h2", "h3"]


def _fig2_engine():
    engine = Engine(two_hosts(1.0), EchelonMaddScheduler())
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0]
    )
    job.submit_to(engine)
    return engine


def _dp_engine():
    engine = Engine(big_switch(4, gbps(10)), EchelonMaddScheduler())
    build_dp_allreduce(
        "dp", _MODEL, _HOSTS4, bucket_bytes=megabytes(8)
    ).submit_to(engine)
    return engine


def _fsdp_engine():
    engine = Engine(big_switch(4, gbps(10)), EchelonMaddScheduler())
    build_fsdp("fsdp", _MODEL, _HOSTS4).submit_to(engine)
    return engine


def _pp_engine():
    engine = Engine(big_switch(4, gbps(10)), EchelonMaddScheduler())
    build_pp_gpipe("pp", _MODEL, _HOSTS4, num_micro_batches=4).submit_to(engine)
    return engine


_SCENARIOS = {
    "fig2": _fig2_engine,
    "dp": _dp_engine,
    "fsdp": _fsdp_engine,
    "pp": _pp_engine,
}


def _build(name):
    """A fresh engine under a private allocator: every build of the same
    scenario is the same experiment, flow ids included."""
    with use_flow_id_allocator(FlowIdAllocator()):
        return _SCENARIOS[name]()


# ---------------------------------------------------------------------------
# tentpole: fork-and-resume == uninterrupted, at 10 random timestamps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_fork_resume_bit_identical(name):
    reference = _build(name)
    ref_key = _trace_key(reference.run())
    end_time = ref_key[-1]
    assert end_time > 0

    rng = random.Random(f"whatif-{name}")
    times = sorted(rng.uniform(0.05, 0.95) * end_time for _ in range(10))

    # One walker engine pauses at each timestamp and snapshots; the
    # paused-and-resumed walker itself must also match the reference.
    walker = _build(name)
    handles = []
    for when in times:
        walker.run(until=when)
        handles.append(walker.snapshot())
    assert _trace_key(walker.run()) == ref_key

    for handle in handles:
        fork = walker.fork(handle)
        assert _trace_key(fork.run()) == ref_key


def test_restore_rewinds_in_place():
    engine = _build("dp")
    engine.run(until=0.05)
    handle = engine.snapshot()
    first_key = _trace_key(engine.run())
    engine.restore(handle)
    assert engine.now == pytest.approx(handle.time)
    assert _trace_key(engine.run()) == first_key


def test_handles_are_reusable():
    engine = _build("fig2")
    engine.run(until=2.5)
    handle = engine.snapshot()
    first = _trace_key(engine.fork(handle).run())
    for _ in range(2):  # a handle is pristine: forks never alias state
        assert _trace_key(engine.fork(handle).run()) == first


# ---------------------------------------------------------------------------
# SnapshotError taxonomy
# ---------------------------------------------------------------------------


def test_snapshot_rejects_arbitrary_callbacks():
    engine = _build("fig2")
    engine.schedule_callback(0.5, lambda: None)
    with pytest.raises(SnapshotError):
        engine.snapshot()


def test_snapshot_rejects_mid_run_capture():
    engine = _build("fig2")
    engine.schedule_callback(0.5, engine.snapshot)
    with pytest.raises(SnapshotError):
        engine.run()


def test_armed_fault_events_survive_snapshot():
    # FaultInjector timers are the sanctioned callback kind: a fork must
    # replay the pending fault exactly where the parent would have.
    engine = _build("dp")
    injector = FaultInjector(
        parse_fault_spec("degrade:h1-core@0.04+0.05,factor=0.3")
    )
    injector.attach(engine)
    engine.faults = injector  # capture() finds the armed map here
    reference_key = _trace_key(engine.fork(engine.snapshot()).run())
    assert _trace_key(engine.run()) == reference_key


# ---------------------------------------------------------------------------
# MemoizingScheduler: shared cache + capacity-lineage fingerprints
# ---------------------------------------------------------------------------


def test_memo_cache_shared_and_lineage_keyed():
    with use_flow_id_allocator(FlowIdAllocator()):
        scheduler = MemoizingScheduler(EchelonMaddScheduler())
        engine = Engine(big_switch(4, gbps(10)), scheduler)
        build_dp_allreduce(
            "dp", _MODEL, _HOSTS4, bucket_bytes=megabytes(8)
        ).submit_to(engine)
    genesis = engine.snapshot()
    ref_key = _trace_key(engine.run())
    end_time = ref_key[-1]

    # A clean fork replays the baseline out of the shared cache.
    clean = engine.fork(genesis)
    assert clean.scheduler._cache is engine.scheduler._cache
    assert _trace_key(clean.run()) == ref_key
    assert clean.scheduler.hits > 0

    # A sibling fork that diverges through a fault must not be served
    # the baseline's pre-fault allocations: the capacity lineage keys
    # them apart.
    faulted = engine.fork(genesis)
    FaultInjector(
        parse_fault_spec(
            f"degrade:h1-core@{0.3 * end_time!r}+{0.4 * end_time!r},factor=0.2"
        )
    ).attach(faulted)
    faulted_key = _trace_key(faulted.run())
    assert faulted_key != ref_key
    assert faulted_key[-1] > end_time  # the degrade really slowed it
    assert faulted.network.capacity_lineage != clean.network.capacity_lineage

    # And the faulted run's entries must not leak back into clean
    # replays through the shared cache (the staleness regression).
    assert _trace_key(engine.fork(genesis).run()) == ref_key


# ---------------------------------------------------------------------------
# engine-scoped flow-id allocator
# ---------------------------------------------------------------------------


def test_engine_scoped_allocators_are_independent():
    first = _build("dp")
    second = _build("dp")
    assert first.flow_ids is not second.flow_ids
    # Identical builds under private allocators number flows identically.
    assert _trace_key(first.run()) == _trace_key(second.run())


def test_reset_flow_ids_shim_is_gone():
    # The PR 7 deprecation shim completed its cycle: the only sanctioned
    # way to scope flow ids is use_flow_id_allocator.
    import repro.core
    import repro.core.flow

    assert not hasattr(repro.core, "reset_flow_ids")
    assert not hasattr(repro.core.flow, "reset_flow_ids")


# ---------------------------------------------------------------------------
# the what-if query grammar
# ---------------------------------------------------------------------------


def test_parse_query_grammar():
    query = parse_query("degrade_link:h1-core@30%+0.2,factor=0.25")
    assert query.kind == "degrade_link"
    assert query.arg == "h1-core"
    assert query.time == (30.0, True)
    assert query.duration == (0.2, False)
    assert query.options == {"factor": "0.25"}
    when, duration = query.resolved(2.0)
    assert when == pytest.approx(0.6)
    assert duration == pytest.approx(0.2)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "explode:h1-core@1",  # unknown kind
        "kill_link:h1-core",  # missing @time
        "kill_link@1",  # missing :arg
        "submit_job:dp@1+0.5",  # duration on a non-link kind
        "kill_link:h1-core@-1",  # negative time
        "kill_link:h1-core@1,factor",  # malformed option
    ],
)
def test_parse_query_rejects(bad):
    with pytest.raises(WhatIfQueryError):
        parse_query(bad)


def test_parse_batch_reports_line_numbers():
    queries = parse_batch(
        "# comment\nkill_link:h1-core@10%+0.1\n\nremove_job:dp3@0\n"
    )
    assert [q.kind for q in queries] == ["kill_link", "remove_job"]
    with pytest.raises(WhatIfQueryError, match="line 2"):
        parse_batch("# fine\nbogus@1\n")


# ---------------------------------------------------------------------------
# the what-if service: warm forks == cold rebuilds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service():
    # Small cluster (8 hosts, 4 tenants: dp0, fsdp1, pp2, dp3) keeps the
    # warm/cold sweeps fast; determinism is what is under test here, so
    # the sanitizer is left to the environment default.
    return WhatIfService.build(hosts=8, jobs=4, iterations=1)


_QUERIES = [
    "kill_link:h1-core@30%+25%",
    "degrade_link:h1-core@25%+40%,factor=0.3",
    "submit_job:dp@40%",
    "add_tenant:fsdp@50%,jobs=2",
    "remove_job:dp3@0",
]


def _assert_triples_close(warm, cold):
    # Warm forks may hit memo-cache entries whose inputs sat within the
    # fingerprint quantum (1 part in 1e9, see scheduling.cache._quantize)
    # of the variant's, so warm and cold can differ by up to about that
    # relative amount, not only in the last ulp.
    assert warm.keys() == cold.keys()
    for key in warm:
        for field in ("baseline", "variant", "delta"):
            a, b = warm[key][field], cold[key][field]
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("spec", _QUERIES)
def test_warm_equals_cold(service, spec):
    warm = service.run_query(spec, mode="warm", detail="deltas")
    cold = service.run_query(spec, mode="cold", detail="deltas")
    assert warm.variant_makespan == pytest.approx(
        cold.variant_makespan, rel=1e-9
    )
    _assert_triples_close(warm.jct, cold.jct)
    _assert_triples_close(warm.tardiness, cold.tardiness)
    assert warm.added_jobs == cold.added_jobs
    assert warm.removed_jobs == cold.removed_jobs


def test_warm_queries_populate_handle_cache(service):
    before = len(service._handles)
    when = 0.6 * service.baseline_makespan
    fork = service.fork_at(when)
    assert fork.now == pytest.approx(when)
    assert len(service._handles) >= before  # advanced states are cached


def test_query_deltas_are_structured(service):
    result = service.run_query("degrade_link:h1-core@25%+40%,factor=0.3")
    assert result.makespan_delta >= 0
    assert result.jct["dp0"]["delta"] is not None
    assert result.report  # detail="full" carries the run-diff report
    payload = result.to_json()
    assert payload["mode"] == "warm"
    assert payload["baseline_makespan"] == service.baseline_makespan


def test_remove_job_after_start_is_rejected(service):
    with pytest.raises(WhatIfError, match="already started"):
        service.run_query("remove_job:dp0@50%")
    with pytest.raises(WhatIfError, match="unknown job"):
        service.run_query("remove_job:nope@0")


def test_permanent_partition_is_rejected(service):
    with pytest.raises(WhatIfError, match="duration"):
        service.run_query("kill_link:h1-core@30%")


def test_unknown_link_is_rejected(service):
    with pytest.raises(WhatIfError, match="unknown link"):
        service.run_query("kill_link:h1-nowhere@30%+0.1")


@pytest.mark.parametrize(
    "spec", ["kill_link:h1-core@30%+25%", "degrade_link:h1-core@25%+40%,factor=0.3"]
)
def test_link_query_variant_is_freed_by_reference_counting(service, spec, monkeypatch):
    # The fault injector and the variant engine point at each other while
    # the variant runs; run_query must unbind them, so the variant goes
    # with its last reference and never waits for the cyclic collector.
    variants = []
    fork_at = service.fork_at

    def recording_fork_at(when):
        variant = fork_at(when)
        variants.append(weakref.ref(variant))
        return variant

    monkeypatch.setattr(service, "fork_at", recording_fork_at)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = service.run_query(spec, detail="deltas")
        assert len(variants) == 1
        assert variants[0]() is None
    finally:
        if was_enabled:
            gc.enable()
    assert result.variant_makespan > 0


# ---------------------------------------------------------------------------
# satellite: restore-triggered un-cordon in the watch loop
# ---------------------------------------------------------------------------


def test_flap_uncordon_recovers_jct():
    from repro.obs.watch import WatchConfig
    from repro.obs.watch.scenarios import build_scenarios
    from repro.obs.watch.score import grade_scenario

    scenario = build_scenarios(["ls"], ["flap"])[0]
    on = grade_scenario(scenario, WatchConfig(), mitigate=True, sanitizer=False)
    assert on["detected"]
    assert on["recovered_jct"] > 0
    applied = [a["action"] for a in on["mitigations"] if a.get("applied")]
    assert "cordon_link" in applied
    assert "uncordon_link" in applied

    off = grade_scenario(
        scenario,
        WatchConfig(uncordon_on_restore=False),
        mitigate=True,
        sanitizer=False,
    )
    assert on["recovered_jct"] >= off["recovered_jct"] - 1e-9

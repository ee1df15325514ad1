"""The differential twin oracle at 100% sampling.

Every scheduler invocation of a sanitized run, shadow-executed against a
freshly reconstructed network running the other max-min kernel, must
agree rate-for-rate; a genuinely state-dependent (hence non-replayable)
scheduler must be caught. Offline, ``test_incremental_equivalence`` holds
whole runs to pinned trace digests.
"""

import random

import pytest

from repro import check
from repro.core.flow import Flow
from repro.core.units import gbps, megabytes
from repro.scheduling import (
    CoflowMaddScheduler,
    EchelonMaddScheduler,
    FairSharingScheduler,
    MemoizingScheduler,
    SincroniaScheduler,
)
from repro.scheduling.base import Scheduler
from repro.simulator import Engine
from repro.topology import big_switch, linear_chain, two_hosts
from repro.workloads import (
    build_dp_allreduce,
    build_dp_ps,
    build_fsdp,
    build_pipeline_segment,
    build_pp_gpipe,
    build_tp_megatron,
    uniform_model,
)

TWIN_EVERYWHERE = "strict:twin=1.0"

_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(40),
    activation_bytes=megabytes(20),
    forward_time=0.004,
)

_HOSTS = [f"h{i}" for i in range(4)]

#: The Table-1 training paradigms, each with its natural topology.
PARADIGMS = {
    "DP-AllReduce": (
        lambda: build_dp_allreduce("j", _MODEL, _HOSTS, bucket_bytes=megabytes(80)),
        lambda: big_switch(4, gbps(10)),
    ),
    "DP-PS": (
        lambda: build_dp_ps("j", _MODEL, _HOSTS, "h4", bucket_bytes=megabytes(80)),
        lambda: big_switch(5, gbps(10)),
    ),
    "PP": (
        lambda: build_pp_gpipe("j", _MODEL, _HOSTS, 4),
        lambda: linear_chain(4, gbps(10)),
    ),
    "TP": (
        lambda: build_tp_megatron("j", _MODEL, _HOSTS),
        lambda: big_switch(4, gbps(10)),
    ),
    "FSDP": (
        lambda: build_fsdp("j", _MODEL, _HOSTS),
        lambda: big_switch(4, gbps(10)),
    ),
}


@pytest.fixture(autouse=True)
def _isolated_check_state(monkeypatch):
    monkeypatch.delenv(check.ENV_VAR, raising=False)
    check.clear_configuration()
    check.reset_global_stats()
    yield
    check.clear_configuration()
    check.reset_global_stats()


def _assert_twin_clean(engine):
    trace = engine.run()
    sanitizer = engine.check
    assert sanitizer.violation_count == 0
    assert sanitizer.twin.comparisons == engine.scheduler_invocations
    assert sanitizer.twin.skipped == 0
    assert sanitizer.twin.comparisons > 0
    return trace


# ---------------------------------------------------------------------------
# bit-equivalence on the paper's workloads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheduler_factory",
    [
        EchelonMaddScheduler,
        CoflowMaddScheduler,
        FairSharingScheduler,
        SincroniaScheduler,
    ],
)
def test_fig2_twin_equivalence(scheduler_factory):
    engine = Engine(
        two_hosts(1.0), scheduler_factory(), sanitizer=TWIN_EVERYWHERE
    )
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
    )
    job.submit_to(engine)
    _assert_twin_clean(engine)


@pytest.mark.parametrize("paradigm", sorted(PARADIGMS))
def test_table1_twin_equivalence(paradigm):
    build, topo = PARADIGMS[paradigm]
    engine = Engine(topo(), EchelonMaddScheduler(), sanitizer=TWIN_EVERYWHERE)
    build().submit_to(engine)
    _assert_twin_clean(engine)


def test_twin_survives_memoized_scheduler():
    # The memoizing cache replays allocations from fingerprints; the twin
    # deep-copies it *after* the primary call, so the shadow invocation is
    # a guaranteed cache hit replaying identical rates.
    engine = Engine(
        big_switch(4, gbps(10)),
        MemoizingScheduler(EchelonMaddScheduler()),
        sanitizer=TWIN_EVERYWHERE,
    )
    build_fsdp("fsdp", _MODEL, _HOSTS).submit_to(engine)
    _assert_twin_clean(engine)
    assert engine.scheduler.hits + engine.scheduler.misses > 0


def test_twin_on_interval_scheduling_and_background_flows():
    # Interval mode drains flows lazily between ticks -- the regime where
    # reconstruction must pick up partially-drained remaining bytes.
    engine = Engine(
        big_switch(6, host_bandwidth=4.0),
        FairSharingScheduler(),
        scheduling_interval=0.25,
        sanitizer=TWIN_EVERYWHERE,
    )
    rng = random.Random(7)
    for i in range(30):
        src = rng.randrange(6)
        dst = (src + rng.randrange(1, 6)) % 6
        engine.inject_background_flow(
            Flow(src=f"h{src}", dst=f"h{dst}", size=0.5 + rng.random() * 2.0),
            at_time=rng.random() * 1.5,
        )
    _assert_twin_clean(engine)


def _record_twin_allocations(monkeypatch):
    """Spy on the twin's reconstructions; returns the list of the
    ``allocation`` each rebuilt network was given."""
    from repro.check.twin import TwinOracle

    seen = []
    real = TwinOracle._reconstruct

    def spy(self, network, now):
        twin = real(self, network, now)
        seen.append(twin.allocation)
        return twin

    monkeypatch.setattr(TwinOracle, "_reconstruct", spy)
    return seen


@pytest.mark.parametrize(
    "primary, twin",
    [("vector", "scalar"), ("scalar", "vector")],
    ids=["vector-primary-scalar-twin", "scalar-primary-vector-twin"],
)
def test_twin_replays_on_the_other_kernel(primary, twin, monkeypatch):
    # The scalar-vs-vector kernel identity, re-proven online: the primary
    # allocates with one kernel, the twin's shadow replay with the other,
    # and every sampled invocation must agree at twin_tol=0.
    pytest.importorskip("numpy")
    seen = _record_twin_allocations(monkeypatch)
    engine = Engine(
        big_switch(6, host_bandwidth=4.0),
        FairSharingScheduler(),
        scheduling_interval=0.25,
        allocation=primary,
        sanitizer=TWIN_EVERYWHERE,
    )
    rng = random.Random(11)
    for i in range(40):
        src = rng.randrange(6)
        dst = (src + rng.randrange(1, 6)) % 6
        engine.inject_background_flow(
            Flow(src=f"h{src}", dst=f"h{dst}", size=0.5 + rng.random() * 2.0),
            at_time=rng.random() * 1.5,
        )
    _assert_twin_clean(engine)
    assert seen and set(seen) == {twin}


def test_scalar_primary_gets_a_scalar_twin_without_numpy(monkeypatch):
    # With no numpy the twin cannot run the vector kernel; it falls back
    # to a scalar replay rather than fail -- mirroring the engine's own
    # degradation contract.
    from repro.check import twin as twin_mod

    monkeypatch.setattr(twin_mod, "HAVE_NUMPY", False)
    seen = _record_twin_allocations(monkeypatch)
    engine = Engine(
        two_hosts(1.0), FairSharingScheduler(), sanitizer=TWIN_EVERYWHERE
    )
    job = build_pipeline_segment("seg", "h0", "h1", [0.0], [2.0], [2.0])
    job.submit_to(engine)
    _assert_twin_clean(engine)
    assert seen and set(seen) == {"scalar"}


def test_twin_carries_the_capacity_lineage_after_link_faults():
    # Regression: the twin rebuilt its network with an empty capacity
    # lineage, so after a link fault a memoizing primary and the twin's
    # copied memo keyed different fingerprints -- one replayed a
    # quantized entry, the other solved fresh -- and the twin reported a
    # last-ulp divergence that was not there.
    from repro.whatif import WhatIfService

    service = WhatIfService.build(
        hosts=8, jobs=4, iterations=1, sanitizer=TWIN_EVERYWHERE
    )
    result = service.run_query(
        "kill_link:h1-core@30%+25%", mode="cold", detail="deltas"
    )
    assert result.variant_makespan > 0


def test_twin_sampling_fraction_is_respected():
    engine = Engine(
        big_switch(4, gbps(10)), EchelonMaddScheduler(), sanitizer="strict:twin=0.5,seed=1"
    )
    build_fsdp("fsdp", _MODEL, _HOSTS).submit_to(engine)
    engine.run()
    assert 0 < engine.check.twin.comparisons < engine.scheduler_invocations


# ---------------------------------------------------------------------------
# divergence detection
# ---------------------------------------------------------------------------


class _DriftingScheduler(Scheduler):
    """Fair sharing whose output depends on its own invocation count.

    Deterministic given its internal state, but *not* a pure function of
    the scheduler view: the twin's replay (one call later in the copied
    counter's life) sees a different parity and produces different rates.
    Exactly the class of state-dependence the oracle must flag.
    """

    name = "drifting"

    def __init__(self):
        self.inner = FairSharingScheduler()
        self.calls = 0

    def allocate(self, view):
        self.calls += 1
        scale = 1.0 if self.calls % 2 else 0.5
        return {
            fid: scale * rate
            for fid, rate in self.inner.allocate(view).items()
        }


def _drifting_engine(mode):
    engine = Engine(
        two_hosts(1.0), _DriftingScheduler(), sanitizer=f"{mode}:twin=1.0"
    )
    job = build_pipeline_segment(
        "seg", "h0", "h1", [0.0, 1.0], [2.0, 2.0], [2.0, 2.0]
    )
    job.submit_to(engine)
    return engine


def test_twin_flags_state_dependent_scheduler_strict():
    with pytest.raises(check.CheckViolation) as excinfo:
        _drifting_engine("strict").run()
    assert excinfo.value.violation.invariant == "twin"
    details = excinfo.value.violation.details
    assert details["primary_rate"] != details["twin_rate"]


def test_twin_flags_state_dependent_scheduler_collect():
    engine = _drifting_engine("collect")
    engine.run()
    assert engine.check.log.counts.get("twin", 0) > 0
    assert engine.check.twin.comparisons > 0


def test_twin_tolerance_forgives_small_drift():
    class _Fuzzed(Scheduler):
        name = "fuzzed"

        def __init__(self):
            self.inner = FairSharingScheduler()
            self.calls = 0

        def allocate(self, view):
            self.calls += 1
            jitter = 1.0 + (1e-12 if self.calls % 2 else 0.0)
            return {
                fid: jitter * rate
                for fid, rate in self.inner.allocate(view).items()
            }

    def build(spec):
        engine = Engine(two_hosts(1.0), _Fuzzed(), sanitizer=spec)
        job = build_pipeline_segment(
            "seg", "h0", "h1", [0.0], [2.0], [2.0]
        )
        job.submit_to(engine)
        return engine

    # Bit-equality (the default) flags the 1-ulp jitter...
    engine = build("collect:twin=1.0")
    engine.run()
    assert engine.check.log.counts.get("twin", 0) > 0
    # ...a relative tolerance forgives it.
    engine = build("strict:twin=1.0,twin_tol=1e-9")
    engine.run()
    assert engine.check.violation_count == 0

"""Scalar kernel == vector kernel == the pinned trace, bit for bit.

Every scenario is simulated twice under the strict sanitizer --
``allocation="scalar"`` and ``allocation="vector"`` (the numpy
waterfilling kernel and bulk ``set_rates``) -- and both runs must agree
*exactly*: the same flow records (starts, finishes, ideal finishes), the
same task/compute events, the same end time, and the same rate
allocation at every scheduler invocation. Each run's digest must also
equal the one pinned in :data:`_DIGESTS`, recorded when the engine still
carried a full-scan reference core that produced the identical digest:
the finish heap, residual accounting, dirty-set rates and persistent
scheduler view change *how* work is found, never what is simulated.

Flow ids come from a global counter, so two builds of the same scenario
number their flows differently; comparisons use structural keys (src,
dst, size, group, index, job, tag) instead of ids. ``bytes_delivered``
accumulates in different orders between the kernels (bulk vs. per-flow
application), so it alone is compared approximately.
"""

import hashlib
import random

import pytest

from repro.core.flow import Flow
from repro.core.units import gbps, megabytes
from repro.scheduling import (
    CoflowMaddScheduler,
    EchelonMaddScheduler,
    FairSharingScheduler,
    SincroniaScheduler,
)
from repro.scheduling.base import Scheduler
from repro.simulator import Engine
from repro.simulator.vector import HAVE_NUMPY
from repro.topology import big_switch, leaf_spine, two_hosts
from repro.workloads import (
    build_dp_allreduce,
    build_dp_ps,
    build_fsdp,
    build_pipeline_segment,
    build_pp_gpipe,
    build_tp_megatron,
    uniform_model,
)

# ---------------------------------------------------------------------------
# comparison machinery
# ---------------------------------------------------------------------------


def _flow_key(flow: Flow):
    return (
        flow.src,
        flow.dst,
        flow.size,
        flow.group_id or "",
        flow.index_in_group,
        flow.job_id or "",
        flow.tag,
    )


class _RecordingScheduler(Scheduler):
    """Wraps a scheduler and logs every allocation, structurally keyed."""

    name = "recording"

    def __init__(self, inner: Scheduler) -> None:
        self.inner = inner
        self.log = []

    def allocate(self, view):
        rates = self.inner.allocate(view)
        entry = tuple(
            sorted(
                _flow_key(state.flow) + (rates.get(state.flow.flow_id, 0.0),)
                for state in view.active_states()
            )
        )
        self.log.append((view.now, view.trigger_cause, entry))
        return rates


def _run(engine_factory, scheduler_factory, allocation: str):
    recorder = _RecordingScheduler(scheduler_factory())
    engine = engine_factory(recorder, allocation)
    trace = engine.run()
    return engine, recorder, trace


def _task_events_key(trace):
    return [(e.task_id, e.kind, e.time, e.job_id) for e in trace.task_events]


def _compute_spans_key(trace):
    return [
        (s.task_id, s.device, s.start, s.end, s.job_id, s.tag)
        for s in trace.compute_spans
    ]


def _digest(engine, recorder, trace) -> str:
    """SHA-256 over everything the comparison below checks exactly."""
    payload = (
        _flow_records_key(trace),
        _task_events_key(trace),
        _compute_spans_key(trace),
        trace.end_time,
        engine.scheduler_invocations,
        recorder.log,
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _flow_records_key(trace):
    return sorted(
        _flow_key(r.flow)
        + (r.start, r.finish, r.ideal_finish is None, r.ideal_finish or 0.0)
        for r in trace.flow_records
    )


def assert_equivalent(engine_factory, scheduler_factory, name):
    scalar_engine, scalar_rec, scalar_trace = _run(
        engine_factory, scheduler_factory, "scalar"
    )
    assert _digest(scalar_engine, scalar_rec, scalar_trace) == _DIGESTS[name]
    if not HAVE_NUMPY:
        return
    vec_engine, vec_rec, vec_trace = _run(engine_factory, scheduler_factory, "vector")

    # Identical traces: every delivered flow, exactly when it started
    # and finished, against exactly which deadline.
    assert _flow_records_key(vec_trace) == _flow_records_key(scalar_trace)
    assert _task_events_key(vec_trace) == _task_events_key(scalar_trace)
    assert _compute_spans_key(vec_trace) == _compute_spans_key(scalar_trace)
    assert vec_trace.end_time == scalar_trace.end_time

    # Identical allocations at every single reschedule.
    assert vec_engine.scheduler_invocations == scalar_engine.scheduler_invocations
    assert vec_rec.log == scalar_rec.log
    assert _digest(vec_engine, vec_rec, vec_trace) == _DIGESTS[name]

    # Byte conservation agrees up to float association order.
    assert vec_engine.network.bytes_delivered == pytest.approx(
        scalar_engine.network.bytes_delivered, rel=1e-9
    )


#: Per-scenario run digests, each produced identically by the scalar
#: kernel, the vector kernel and the former full-scan reference core.
_DIGESTS = {
    "fig2_echelon": "973ff50e985efee8359ada96c596a1e3b7415dfa790bfd4afe63f2787b68d2d8",
    "fig2_coflow": "9fd3e90bd76774d367c868a7aeda9bb06e6ae4786983b8ad1e75fc99e5c4cf1d",
    "fig2_fair": "3cfcd1fa923e678e946a4af0064b0960e1ea2131afec127ceece8da1afb14e04",
    "multijob_echelon_per_event": "91f5ad482bc34b7c78f60b4346c550fabdb7ee6a4ee458506dc569b69808ea2d",
    "multijob_echelon_interval": "1eae55f1edb5f314e9429a8d12b1ab876bfd59122e141b35c84abe68ba4928b8",
    "multijob_sincronia": "53510e0801afaf357146287792ba3cb4d48aad92c72c8013c841e518846f78d4",
    "fsdp_echelon": "cd9c205e4eb5c1aeec8dba3350e899bfb6319ddbdecd2d4aa1505fad46611da9",
    "fsdp_coflow": "d099ecde95b7d729133eef88267c99347d812dc4369cb0bc381f14ada5276499",
    "background_fair_per_event": "e001c80193fa914e121e08c251e46bcd07904c9913934759c162f7675a45909d",
    "background_fair_interval": "a7625902c94c8fd30d40346c59844a7e6d6d8a777005a4a3d80e2f0eebf0e7a9",
    "coflow-dp_allreduce": "ce4cc58cab1476b696bc84c0c87d3298941364c62ca93cfd1141df6599b661f9",
    "echelon-dp_allreduce": "24e04065aaac1a1f048766cc462f0a34a87ea8791975ed8c75b2853e9ab6eff6",
    "fairshare-dp_allreduce": "c7e9b6d427886719ca1e09f676e1b476866e4bad0bdf7cfb81bb62331b1a1abc",
    "coflow-dp_ps": "58c9ab02c0fe606b6b2ccea77b9c8142d8076a718d3efc3b419fa7bf56bede35",
    "echelon-dp_ps": "8b4ad30b809b871ba1ab2acf9df6efa04eae684ed4e602efdc605f39e4b755bf",
    "fairshare-dp_ps": "3996163aab5edd14d2ed61da4e4eaf7a288ac034e9283c3fb0d94e2134fd3603",
    "coflow-fsdp": "2d1bac086d1d2589185a1b07a5a7c680e9fbe626b8d90f85d97f71ff8216f714",
    "echelon-fsdp": "184dac71f21627da8d1eba3ffc0d747b5ba957788645b174b6c2d141493c5d1a",
    "fairshare-fsdp": "6de1a06a9c8e5a1ce932494fc9ec6841b25ce2bad67a48ae88e9569de372b2ce",
    "coflow-pp_gpipe": "713c934d9dc029d0e458c14b863fab52925962c6cff18dcdec3a6118063eb67a",
    "echelon-pp_gpipe": "de740de253a6e9b851c31dd827ee499aa7a0385ba4fc9b3fc4e65b494c2a0e27",
    "fairshare-pp_gpipe": "039228340824e60e208a29485ab225dafe4cd3976839b8fbae6c5a869707c127",
    "coflow-tp_megatron": "531ab6d94caf0318404945ffa81c311c3179d09afa5aa498d79f0424bb18aa67",
    "echelon-tp_megatron": "f9c264b54af3240c494071777619de6c5d7107b43bc7cfbcecb5cf755f79a6f1",
    "fairshare-tp_megatron": "531ab6d94caf0318404945ffa81c311c3179d09afa5aa498d79f0424bb18aa67",
}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(30),
    activation_bytes=megabytes(15),
    forward_time=0.004,
)


def _fig2_factory(scheduler, allocation):
    engine = Engine(two_hosts(1.0), scheduler, allocation=allocation, sanitizer="strict")
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0]
    )
    job.submit_to(engine)
    return engine


def _multijob_factory(interval):
    def factory(scheduler, allocation):
        topology = leaf_spine(
            n_leaves=4, hosts_per_leaf=4, host_bandwidth=gbps(10), oversubscription=2.0
        )
        engine = Engine(
            topology,
            scheduler,
            scheduling_interval=interval,
            allocation=allocation,
            sanitizer="strict",
        )
        jobs = [
            build_pp_gpipe(
                "pp", _MODEL, ["h0", "h4", "h8", "h12"], num_micro_batches=4
            ),
            build_fsdp("fsdp", _MODEL, ["h1", "h5", "h9", "h13"]),
            build_dp_allreduce(
                "dp", _MODEL, ["h2", "h6", "h10", "h14"], bucket_bytes=megabytes(60)
            ),
        ]
        for job in jobs:
            job.submit_to(engine)
        return engine

    return factory


def _fsdp_factory(scheduler, allocation):
    topology = leaf_spine(
        n_leaves=2, hosts_per_leaf=2, host_bandwidth=gbps(10), oversubscription=2.0
    )
    engine = Engine(topology, scheduler, allocation=allocation, sanitizer="strict")
    job = build_fsdp("fsdp", _MODEL, ["h0", "h1", "h2", "h3"])
    job.submit_to(engine)
    return engine


def _seeded_background_factory(interval):
    def factory(scheduler, allocation):
        topology = big_switch(8, host_bandwidth=4.0)
        engine = Engine(
            topology,
            scheduler,
            scheduling_interval=interval,
            allocation=allocation,
            sanitizer="strict",
        )
        rng = random.Random(42)
        for i in range(60):
            src = rng.randrange(8)
            dst = (src + rng.randrange(1, 8)) % 8
            engine.inject_background_flow(
                Flow(
                    src=f"h{src}",
                    dst=f"h{dst}",
                    size=0.5 + rng.random() * 3.0,
                    job_id=f"job{i % 3}",
                    tag=f"bg{i}",
                ),
                at_time=rng.random() * 2.0,
            )
        return engine

    return factory


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------


def test_fig2_echelon_equivalent():
    assert_equivalent(_fig2_factory, EchelonMaddScheduler, "fig2_echelon")


def test_fig2_coflow_equivalent():
    assert_equivalent(_fig2_factory, CoflowMaddScheduler, "fig2_coflow")


def test_fig2_fair_equivalent():
    assert_equivalent(_fig2_factory, FairSharingScheduler, "fig2_fair")


def test_multijob_echelon_per_event_equivalent():
    assert_equivalent(
        _multijob_factory(None), EchelonMaddScheduler, "multijob_echelon_per_event"
    )


def test_multijob_echelon_interval_equivalent():
    # Section 5's "per scheduling interval" rerun policy: departures do
    # not resync the allocation, so flows drain lazily across many events
    # between ticks -- the regime where the finish heap and lazy drain
    # shortcut the most work.
    assert_equivalent(
        _multijob_factory(0.005), EchelonMaddScheduler, "multijob_echelon_interval"
    )


def test_multijob_sincronia_equivalent():
    assert_equivalent(
        _multijob_factory(None), SincroniaScheduler, "multijob_sincronia"
    )


def test_fsdp_echelon_equivalent():
    assert_equivalent(_fsdp_factory, EchelonMaddScheduler, "fsdp_echelon")


def test_fsdp_coflow_equivalent():
    assert_equivalent(_fsdp_factory, CoflowMaddScheduler, "fsdp_coflow")


def test_seeded_background_fair_per_event_equivalent():
    assert_equivalent(
        _seeded_background_factory(None), FairSharingScheduler, "background_fair_per_event"
    )


def test_seeded_background_fair_interval_equivalent():
    assert_equivalent(
        _seeded_background_factory(0.25), FairSharingScheduler, "background_fair_interval"
    )


# ---------------------------------------------------------------------------
# Table-1 paradigms x scheduler matrix (scalar == vector == pinned)
# ---------------------------------------------------------------------------

_SMALL = uniform_model(
    "u4",
    4,
    param_bytes_per_layer=megabytes(20),
    activation_bytes=megabytes(10),
    forward_time=0.004,
)

_HOSTS4 = ["h0", "h1", "h2", "h3"]


def _paradigm_factory(build):
    def factory(scheduler, allocation):
        engine = Engine(
            big_switch(5, host_bandwidth=gbps(10)),
            scheduler,
            allocation=allocation,
            sanitizer="strict",
        )
        build().submit_to(engine)
        return engine

    return factory


_PARADIGMS = {
    "dp_allreduce": lambda: build_dp_allreduce(
        "dp", _SMALL, _HOSTS4, bucket_bytes=megabytes(40)
    ),
    "dp_ps": lambda: build_dp_ps(
        "ps", _SMALL, _HOSTS4, server="h4", bucket_bytes=megabytes(40)
    ),
    "pp_gpipe": lambda: build_pp_gpipe(
        "pp", _SMALL, _HOSTS4, num_micro_batches=2
    ),
    "fsdp": lambda: build_fsdp("fsdp", _SMALL, _HOSTS4),
    "tp_megatron": lambda: build_tp_megatron("tp", _SMALL, _HOSTS4),
}

_SCHEDULERS = {
    "echelon": EchelonMaddScheduler,
    "coflow": CoflowMaddScheduler,
    "fairshare": FairSharingScheduler,
}


@pytest.mark.parametrize("paradigm", sorted(_PARADIGMS))
@pytest.mark.parametrize("scheduler", sorted(_SCHEDULERS))
def test_paradigm_matrix_equivalent(paradigm, scheduler):
    assert_equivalent(
        _paradigm_factory(_PARADIGMS[paradigm]),
        _SCHEDULERS[scheduler],
        f"{scheduler}-{paradigm}",
    )

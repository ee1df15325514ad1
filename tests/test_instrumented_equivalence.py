"""Instrumented scalar kernel == instrumented vector kernel == pinned log.

The equivalence suite proves the two max-min kernels simulate the same
run; this one proves they *observe* the same run: with a full
Instrumentation attached (event log, link timelines, rate recorder,
live-tardiness series), ``allocation="scalar"`` and
``allocation="vector"`` must produce identical recordings, and the
normalized event log must hash to the digest pinned in
:data:`_LOG_DIGESTS` -- recorded when the engine still carried a
full-scan reference core that produced the identical log.

Flow ids come from a global counter, so events are compared after
normalizing every flow id (and task ``flow_ids`` list) to the flow's
structural key; everything else must match field-for-field, in order.
"""

import hashlib

import pytest

from repro.core.units import gbps, megabytes
from repro.obs import Instrumentation, JsonlEventLog
from repro.scheduling import make_scheduler
from repro.simulator import Engine
from repro.simulator.vector import HAVE_NUMPY
from repro.topology import leaf_spine, two_hosts
from repro.workloads import (
    build_dp_allreduce,
    build_fsdp,
    build_pipeline_segment,
    build_pp_gpipe,
    uniform_model,
)

_MODEL = uniform_model(
    "u8",
    8,
    param_bytes_per_layer=megabytes(30),
    activation_bytes=megabytes(15),
    forward_time=0.004,
)


def _fig2_engine(scheduler, obs, allocation):
    engine = Engine(
        two_hosts(1.0), scheduler, instrumentation=obs, allocation=allocation
    )
    job = build_pipeline_segment(
        "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
    )
    job.submit_to(engine)
    return engine


def _multijob_engine(scheduler, obs, allocation):
    topology = leaf_spine(
        n_leaves=4, hosts_per_leaf=4, host_bandwidth=gbps(10), oversubscription=2.0
    )
    engine = Engine(
        topology, scheduler, instrumentation=obs, allocation=allocation
    )
    jobs = [
        build_pp_gpipe("pp", _MODEL, ["h0", "h4", "h8", "h12"], num_micro_batches=4),
        build_fsdp("fsdp", _MODEL, ["h1", "h5", "h9", "h13"]),
        build_dp_allreduce(
            "dp", _MODEL, ["h2", "h6", "h10", "h14"], bucket_bytes=megabytes(60)
        ),
    ]
    for job in jobs:
        job.submit_to(engine)
    return engine


def _run_instrumented(engine_factory, scheduler_name, allocation):
    obs = Instrumentation(event_log=JsonlEventLog())
    engine = engine_factory(make_scheduler(scheduler_name), obs, allocation)
    trace = engine.run()
    return trace, obs


def _id_to_key(events):
    """flow id -> structural identity, from the log's own events."""
    keys = {}
    for event in events:
        if event.get("ev") in ("flow_injected", "flow_finished"):
            keys[event["flow_id"]] = (
                event.get("src"),
                event.get("dst"),
                event.get("size"),
                event.get("group") or "",
                event.get("index", 0),
                event.get("job") or "",
                event.get("tag") or "",
            )
    return keys


def _normalized_events(log):
    keys = _id_to_key(log.events)
    out = []
    for event in log.events:
        event = dict(event)
        if "flow_id" in event:
            event["flow_id"] = keys[event["flow_id"]]
        if "flow_ids" in event:
            event["flow_ids"] = sorted(keys[fid] for fid in event["flow_ids"])
        out.append(event)
    return out


def _normalized_rate_segments(obs):
    keys = _id_to_key(obs.event_log.events)
    recorder = obs.rate_recorder
    return {
        keys[flow_id]: segments
        for flow_id, segments in recorder.segments.items()
    }


def _log_digest(obs) -> str:
    return hashlib.sha256(
        repr(_normalized_events(obs.event_log)).encode()
    ).hexdigest()


#: Normalized event-log digests, each produced identically by the scalar
#: kernel, the vector kernel and the former full-scan reference core.
_LOG_DIGESTS = {
    "fig2_fair": "ef2bed24feee9d0cc1c1d3559f40ddbe65589cd02f0111a6d15e06af0f6c7794",
    "fig2_echelon": "bec1e4207aa0134cc0f80d01d6d93cbe0f9379d40d5f5b1ae6a366f420020637",
    "multijob_echelon": "0f40e69c0cd136a1524705adc6d4523064675c338fc70da5dff190734642c1fb",
    "multijob_coflow": "0882c83bef865946a89d3a9f6daa9aabb56c2db24d7a019765699a145f138bd4",
}


def assert_instrumented_equivalent(engine_factory, scheduler_name, name):
    scalar_trace, scalar_obs = _run_instrumented(
        engine_factory, scheduler_name, "scalar"
    )
    assert _log_digest(scalar_obs) == _LOG_DIGESTS[name]
    if not HAVE_NUMPY:
        return
    vec_trace, vec_obs = _run_instrumented(engine_factory, scheduler_name, "vector")

    # Identical event logs (up to run-local flow numbering).
    assert _normalized_events(vec_obs.event_log) == _normalized_events(
        scalar_obs.event_log
    )

    # Identical link-utilization timelines, segment for segment.
    assert vec_obs.link_timeline.capacities == scalar_obs.link_timeline.capacities
    assert set(vec_obs.link_timeline.segments) == set(
        scalar_obs.link_timeline.segments
    )
    for key, vec_series in vec_obs.link_timeline.segments.items():
        scalar_series = scalar_obs.link_timeline.segments[key]
        assert len(vec_series) == len(scalar_series), key
        for vec_seg, scalar_seg in zip(vec_series, scalar_series):
            assert vec_seg[:2] == scalar_seg[:2], key
            assert vec_seg[2] == pytest.approx(scalar_seg[2], abs=1e-9), key

    # Identical live-tardiness series.
    assert vec_obs.tardiness_series == scalar_obs.tardiness_series

    # Identical per-flow allocated-rate histories.
    assert _normalized_rate_segments(vec_obs) == _normalized_rate_segments(
        scalar_obs
    )
    assert vec_obs.rate_recorder.evicted_flows == 0
    assert scalar_obs.rate_recorder.evicted_flows == 0

    # And, of course, the same simulation underneath.
    assert vec_trace.end_time == scalar_trace.end_time
    assert len(vec_trace.flow_records) == len(scalar_trace.flow_records)


def test_fig2_fair_instrumented_equivalent():
    assert_instrumented_equivalent(_fig2_engine, "fair", "fig2_fair")


def test_fig2_echelon_instrumented_equivalent():
    assert_instrumented_equivalent(_fig2_engine, "echelon", "fig2_echelon")


def test_multijob_echelon_instrumented_equivalent():
    assert_instrumented_equivalent(
        _multijob_engine, "echelon", "multijob_echelon"
    )


def test_multijob_coflow_instrumented_equivalent():
    assert_instrumented_equivalent(_multijob_engine, "coflow", "multijob_coflow")

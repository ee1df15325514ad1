"""Pinned observability outputs: report sections and diagnosis, by SHA-256.

The diagnosis tests check properties (components re-add to the
tardiness, blame mass equals contention); a rewrite of the attribution
sweep or the instrumentation hooks that shifts one float by one ulp
passes them. This file pins absolute outputs instead: each entry hashes
a deterministic JSON rendering (``sort_keys``, floats at full ``repr``
precision) of

* the metrics report sections that depend only on the simulated run
  (``diagnosis``, ``echelonflows``, ``links``, ``flows``, ``run``,
  ``live_tardiness``) -- the registry and scheduler sections carry wall
  times and are left out;
* ``diagnose`` of the artifacts rebuilt from the JSONL event log;
* ``diff_runs`` of the fair-sharing run against the echelon run;
* the registry snapshot, minus the wall-clock
  ``scheduler_wall_clock_seconds`` series;
* the ``JsonlEventLog.dump()`` text, minus the wall-clock-stamped
  ``scheduler_invocation`` lines.

The last two guard the hooks' payloads (shared path hop lists, the
sealed rate segments in ``flow_rates`` events) and the lazily bound
metric series, which the report sections do not see. Every run carries
the stack ``repro cluster --metrics-out --events-out`` installs: an
Instrumentation with an event log, plus a ProfiledScheduler on the same
registry and log.

Two workloads: four Table-1 jobs on ``fat_tree(4)`` with ECMP routing,
and the paper's Fig. 2 pipeline segment on two hosts. Neither run
reroutes a flow. Flow ids come from a private allocator so the digests
do not depend on which tests ran first.
"""

import hashlib
import json

import pytest

from repro.core import FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps
from repro.obs import Instrumentation, JsonlEventLog, ProfiledScheduler
from repro.obs.diagnosis import RunArtifacts, diagnose, diff_runs
from repro.obs.report import build_metrics_report
from repro.scheduling import make_scheduler
from repro.simulator import Engine
from repro.topology import fat_tree, two_hosts
from repro.topology.routing import EcmpRouter
from repro.whatif.workload import build_paradigm_job
from repro.workloads import build_pipeline_segment

#: Report sections that are a pure function of the simulated run.
REPORT_SECTIONS = (
    "diagnosis",
    "echelonflows",
    "links",
    "flows",
    "run",
    "live_tardiness",
)


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _observed(scheduler):
    """An Instrumentation plus a ProfiledScheduler on its registry and log."""
    obs = Instrumentation(event_log=JsonlEventLog())
    profiled = ProfiledScheduler(
        make_scheduler(scheduler), registry=obs.registry, event_log=obs.event_log
    )
    return obs, profiled


def _fattree(scheduler):
    obs, profiled = _observed(scheduler)
    with use_flow_id_allocator(FlowIdAllocator()):
        topology = fat_tree(4, gbps(10))
        engine = Engine(
            topology,
            profiled,
            router=EcmpRouter(topology),
            instrumentation=obs,
        )
        placements = (
            ("dp", ["h0", "h5", "h10", "h15"], 0.0),
            ("fsdp", ["h1", "h4", "h9", "h12"], 0.002),
            ("pp", ["h2", "h7", "h8", "h13"], 0.004),
            ("tp", ["h3", "h6", "h11", "h14"], 0.006),
        )
        for paradigm, workers, at in placements:
            job = build_paradigm_job(paradigm, f"{paradigm}-job", workers, layers=4)
            job.submit_to(engine, at_time=at)
        trace = engine.run()
    return trace, obs, engine


def _fig2(scheduler):
    obs, profiled = _observed(scheduler)
    with use_flow_id_allocator(FlowIdAllocator()):
        engine = Engine(two_hosts(1.0), profiled, instrumentation=obs)
        job = build_pipeline_segment(
            "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
        )
        job.submit_to(engine)
        trace = engine.run()
    return trace, obs, engine


_WORKLOADS = {"fattree": _fattree, "fig2": _fig2}

#: (workload, output) -> SHA-256, recorded before the attribution sweep
#: and the interned link names replaced the all-pairs scan.
PINNED = {
    ("fattree", "report"): (
        "0472e683567fb784fed3f2a2094cee6e386e31c624fba08529d98538e66ca9f8"
    ),
    ("fattree", "diagnose"): (
        "c702dd9419ec2a6eb8b5301c3c9d4a1f7a0ac5224962b9347cfa28cdfb0450a0"
    ),
    ("fattree", "diff"): (
        "7d56a4dd59eba07db6e84a8280db830d3e7a03b75b94fde9f2a0e10d6d24ca7c"
    ),
    ("fig2", "report"): (
        "d97e4b652482dec08712182a2bca2f97877436d19a856fafacac14ae26be9fd4"
    ),
    ("fig2", "diagnose"): (
        "6aa3af7c1bf48ea9e6946a5b06f93fa95c6e45241d4124b110f7b24c8ee36a94"
    ),
    ("fig2", "diff"): (
        "17d28e4c1142fdfda47c67cbef46d453f297480aca7676215d00b207d597ee44"
    ),
    # Recorded before the dirty-link timeline, the shared path payloads
    # and the lazily bound metric series.
    ("fattree", "registry"): (
        "c1521c295020a62b1fd62a3e9e8f9013096611e36a2363881de414a13511993c"
    ),
    ("fattree", "events"): (
        "97c28a15c9150202d12e7ef466df0765a24e2fc8448a21787926651173acf8bb"
    ),
    ("fig2", "registry"): (
        "8673f3d373d7d55a0ca667866f9655afa016c7f45005d401f0b026fb6c7b883a"
    ),
    ("fig2", "events"): (
        "25a03706d9384170faca789d796522a0113a3ed04eb9c85937a86a1c0947a3d4"
    ),
}


def _registry_without_wall_clock(registry):
    snapshot = registry.snapshot()
    snapshot["histograms"].pop("scheduler_wall_clock_seconds", None)
    return snapshot


def _dump_digest(log) -> str:
    """SHA-256 of the JSONL text, minus the wall-clock-stamped lines."""
    text = "".join(
        line
        for line in log.dump().splitlines(keepends=True)
        if '"ev": "scheduler_invocation"' not in line
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _compute():
    out = {}
    for name, build in _WORKLOADS.items():
        trace, obs, engine = build("echelon")
        report = build_metrics_report(
            trace,
            instrumentation=obs,
            scheduler_invocations=engine.scheduler_invocations,
        )
        out[(name, "report")] = _sha({key: report.get(key) for key in REPORT_SECTIONS})
        out[(name, "registry")] = _sha(_registry_without_wall_clock(obs.registry))
        out[(name, "events")] = _dump_digest(obs.event_log)
        echelon = RunArtifacts.from_events(obs.event_log.events)
        out[(name, "diagnose")] = _sha(diagnose(echelon))
        fair_trace, fair_obs, _ = build("fair")
        fair = RunArtifacts.from_run(fair_trace, fair_obs)
        out[(name, "diff")] = _sha(diff_runs(fair, RunArtifacts.from_run(trace, obs)))
    return out


@pytest.fixture(scope="module")
def digests():
    return _compute()


@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(k))
def test_pinned_digest(digests, key):
    assert digests[key] == PINNED[key]

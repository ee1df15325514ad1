"""No run leaves reference cycles behind for the cyclic collector.

Reference counting frees what a run allocated as soon as the last
reference goes, unless objects point at each other; such cycles wait for
a collection, and a large one (a what-if variant engine and every flow
record it holds) keeps its memory until then. Each case runs its
workload once to warm imports and caches, then again with the collector
disabled, drops every reference, and asks ``gc.collect()`` what it
found: it must find nothing. A failure lists the garbage by type.

The cases: a burst of grouped flows on ``big_switch(64)``, a
``WhatIfService`` batch with link and ``submit_job`` queries, and an
observed Table-1 run on a fat tree with its metrics report. They hold
under ``REPRO_CHECK=strict`` too, which adds the sanitizer and its twin
oracle to every engine.
"""

import gc
import random
from collections import Counter

import pytest

from repro.core import Flow, FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps
from repro.obs import Instrumentation, JsonlEventLog, ProfiledScheduler
from repro.obs.report import build_metrics_report
from repro.scheduling import make_scheduler
from repro.simulator import Engine
from repro.topology import big_switch, fat_tree
from repro.topology.routing import EcmpRouter
from repro.whatif import WhatIfService
from repro.whatif.workload import build_paradigm_job


def _burst():
    rng = random.Random(3)
    with use_flow_id_allocator(FlowIdAllocator()):
        engine = Engine(
            big_switch(64, 10.0), make_scheduler("echelon"), scheduling_interval=0.05
        )
        for i in range(400):
            src = i % 64
            dst = (src + 1 + i // 64) % 64
            flow = Flow(
                f"h{src}",
                f"h{dst}",
                1.0 + rng.random(),
                group_id=f"g{i // 16}",
                index_in_group=i % 4,
                job_id=f"j{i % 4}",
            )
            engine.inject_background_flow(flow, at_time=0.0)
        engine.run()


def _whatif():
    service = WhatIfService.build(hosts=8, jobs=4, iterations=1)
    service.run_batch(
        [
            "kill_link:h1-core@30%+25%",
            "degrade_link:h1-core@25%+40%,factor=0.3",
            "submit_job:dp@40%",
        ]
    )


def _observed():
    obs = Instrumentation(event_log=JsonlEventLog())
    profiled = ProfiledScheduler(
        make_scheduler("echelon"), registry=obs.registry, event_log=obs.event_log
    )
    with use_flow_id_allocator(FlowIdAllocator()):
        topology = fat_tree(4, gbps(10))
        engine = Engine(
            topology, profiled, router=EcmpRouter(topology), instrumentation=obs
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
    build_metrics_report(trace, instrumentation=obs, profiler=profiled)


@pytest.mark.parametrize(
    "run", [_burst, _whatif, _observed], ids=["burst", "whatif", "observed"]
)
def test_run_leaves_no_garbage_cycles(run):
    run()
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        assert found == 0, f"{found} objects in cycles: {kinds.most_common(12)}"
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()

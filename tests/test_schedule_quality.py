"""Schedule quality next to speed: makespan over a lower bound.

A seeded burst -- 400 flows of 8 jobs in 16-flow groups, all at t=0 on a
16-host big switch -- runs under three coordinators. Each makespan is
divided by the per-host bytes/capacity lower bound: no schedule can
finish before the busiest host port has pushed its bytes at line rate.

The bounds are the measured ratios plus a stated margin, so a change that
makes schedules worse fails here with the size of the loss, not as a
bare digest mismatch. The ticked echelon ratio is well above the other
two: with ``scheduling_interval`` set, a departure frees bandwidth that
idles until the next tick, and greedy fill ends a few flows early and
then leaves their links idle. Making interval mode work-conserving
(ROADMAP item 2) should move that number down toward the per-event one;
when it does, tighten its bound here.
"""

import random

import pytest

from repro.core.flow import Flow, FlowIdAllocator, use_flow_id_allocator
from repro.scheduling import EchelonMaddScheduler, FairSharingScheduler
from repro.simulator import Engine
from repro.topology import big_switch

HOSTS = 16
FLOWS = 400
JOBS = 8
GROUP = 16
TICK = 0.2
SEED = 7
#: Added to each measured ratio to make its bound: room for a harmless
#: change of tie-breaking, far below the gaps between the three runs.
MARGIN = 0.05


def _burst(seed):
    """(src, dst, size, group id, index, job id) per flow, all-to-all."""
    rng = random.Random(seed)
    flows = []
    for i in range(FLOWS):
        src = i % HOSTS
        dst = (src + 1 + (i // HOSTS) % (HOSTS - 1)) % HOSTS
        job = i % JOBS
        flows.append(
            (
                f"h{src}",
                f"h{dst}",
                1.0 + rng.random(),
                f"job{job}/g{i // (JOBS * GROUP)}",
                (i // JOBS) % GROUP,
                f"job{job}",
            )
        )
    return flows


def _lower_bound(flows, capacity):
    """Busiest host port's bytes over its capacity (all flows at t=0)."""
    out, into = {}, {}
    for src, dst, size, *_ in flows:
        out[src] = out.get(src, 0.0) + size
        into[dst] = into.get(dst, 0.0) + size
    return max(max(out.values()), max(into.values())) / capacity


def _makespan_ratio(scheduler, interval, seed=SEED):
    flows = _burst(seed)
    capacity = FLOWS / HOSTS
    engine = Engine(
        big_switch(HOSTS, capacity),
        scheduler,
        scheduling_interval=interval,
        sanitizer=False,
    )
    with use_flow_id_allocator(FlowIdAllocator()):
        for src, dst, size, group_id, index, job_id in flows:
            engine.inject_background_flow(
                Flow(src, dst, size, group_id=group_id, index_in_group=index,
                     job_id=job_id),
                at_time=0.0,
            )
    trace = engine.run()
    assert len(trace.flow_records) == FLOWS
    return trace.end_time / _lower_bound(flows, capacity)


#: (scheduler, tick, measured ratio at SEED, cap on the bound or None).
#: Other seeds read, fair/ticked/per-event: 1.07/1.44/1.00 (seed 1),
#: 1.10/1.39/1.04 (seed 2), 1.08/1.41/1.09 (seed 3) -- the per-host
#: bound is not tight for every burst, so the 1.05 cap is a fact of this
#: burst, not a guarantee of the scheduler.
CASES = {
    "fair_ticked": (FairSharingScheduler, TICK, 1.09, None),
    "echelon_ticked": (EchelonMaddScheduler, TICK, 1.42, None),
    "echelon_per_event": (EchelonMaddScheduler, None, 1.00, 1.05),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_makespan_over_lower_bound(case):
    scheduler, interval, measured, cap = CASES[case]
    ratio = _makespan_ratio(scheduler(), interval)
    bound = measured + MARGIN if cap is None else min(cap, measured + MARGIN)
    assert 1.0 - 1e-9 <= ratio <= bound, (case, ratio)

"""Batched event dispatch: one scheduler round per timestamp.

The engine absorbs every event due at the frontier timestamp into one
dispatch round -- one scheduler invocation and one ``set_rates`` -- via
``EventQueue.pop_batch``. Zero simulated time elapses between
same-timestamp events, so dispatching them one at a time would produce
the identical trace with more invocations; the pinned trace below is the
one both dispatch orders produced. Fault events order before arrivals
and timers inside a batch, so a capacity change always lands before the
allocation that must respect it.
"""

import pytest

from repro.core.flow import Flow
from repro.scheduling import FairSharingScheduler
from repro.scheduling.base import Scheduler
from repro.simulator import Engine
from repro.simulator.events import EventKind, EventQueue
from repro.topology import big_switch, two_hosts


class _Recorder(Scheduler):
    name = "recorder"

    def __init__(self):
        self.inner = FairSharingScheduler()
        self.log = []

    def allocate(self, view):
        rates = self.inner.allocate(view)
        self.log.append(
            (
                view.now,
                view.trigger_cause,
                tuple(
                    sorted(
                        (s.flow.src, s.flow.dst, s.flow.size, rates.get(s.flow.flow_id, 0.0))
                        for s in view.active_states()
                    )
                ),
            )
        )
        return rates


def _flow_records_key(trace):
    return sorted(
        (r.flow.src, r.flow.dst, r.flow.size, r.flow.tag, r.start, r.finish)
        for r in trace.flow_records
    )


# -------------------------------------------------------------- queue unit


def test_pop_batch_returns_full_timestamp_batch_in_priority_order():
    q = EventQueue()
    q.push(1.0, EventKind.TIMER)
    q.push(1.0, EventKind.JOB_ARRIVAL, payload="j")
    q.push(1.0, EventKind.FAULT)
    q.push(2.0, EventKind.TIMER)
    batch = q.pop_batch(1.0)
    assert [e.kind for e in batch] == [
        EventKind.FAULT,
        EventKind.JOB_ARRIVAL,
        EventKind.TIMER,
    ]
    assert len(q) == 1  # the t=2 event stays queued
    assert q.pop_batch(1.5) == []


def test_pop_batch_respects_tolerance():
    q = EventQueue()
    q.push(1.0, EventKind.TIMER)
    q.push(1.0 + 1e-10, EventKind.TIMER)
    assert len(q.pop_batch(1.0, tolerance=1e-9)) == 2


# ------------------------------------------------------ batched rounds


def _mixed_engine():
    """Several event bursts over a network kept busy throughout.

    The long ``bg`` flow never finishes before the last burst, so every
    burst lands on a live network that needs a fresh allocation.
    """
    engine = Engine(two_hosts(1.0), _Recorder())
    engine.inject_background_flow(Flow("h0", "h1", 8.0, tag="bg"), at_time=0.0)
    # At t=1.0 a fault halves the link (FAULT, ordered first in the
    # batch) the very instant a new flow arrives (TIMER).
    engine.inject_background_flow(Flow("h0", "h1", 1.0, tag="second"), at_time=1.0)
    engine.schedule_fault(
        1.0, lambda: engine.network.set_link_capacity(("h0", "h1"), 0.5)
    )
    # A later distinct burst at t=4 (two coalesced arrivals).
    engine.inject_background_flow(Flow("h0", "h1", 0.25, tag="late-a"), at_time=4.0)
    engine.inject_background_flow(Flow("h0", "h1", 0.25, tag="late-b"), at_time=4.0)
    return engine


#: The trace of :func:`_mixed_engine`, identical under batched and
#: one-event-per-round dispatch (the latter paid a fifth invocation: the
#: t=1.0 fault and arrival split in two).
_MIXED_FLOW_RECORDS = [
    ("h0", "h1", 0.25, "late-a", 4.0, 6.0),
    ("h0", "h1", 0.25, "late-b", 4.0, 6.0),
    ("h0", "h1", 1.0, "second", 1.0, 6.0),
    ("h0", "h1", 8.0, "bg", 0.0, 18.0),
]


def test_batched_trace_identical_to_unbatched():
    engine = _mixed_engine()
    trace = engine.run()
    assert _flow_records_key(trace) == _MIXED_FLOW_RECORDS
    assert trace.end_time == 18.0


def test_batched_dispatch_is_the_default():
    # One invocation per distinct timestamp that changed the flow set.
    engine = _mixed_engine()
    engine.run()
    assert engine.scheduler_invocations == 4
    assert [(now, cause) for now, cause, _ in engine.scheduler.log] == [
        (0.0, "arrival"),
        (1.0, "fault"),
        (4.0, "arrival"),
        (6.0, "departure"),
    ]


def test_simultaneous_fault_and_arrival_one_invocation_fault_cause():
    engine = _mixed_engine()
    engine.run()
    at_one = [entry for entry in engine.scheduler.log if entry[0] == 1.0]
    # One batch -> one invocation for fault + arrival + finish at t=1.0.
    assert len(at_one) == 1
    now, cause, rates = at_one[0]
    assert cause == "fault"  # fault outranks arrival/timer in the batch
    # The fault landed before the allocation: the halved link is
    # respected by the rates the scheduler just produced.
    assert sum(rate for *_key, rate in rates) <= 0.5 + 1e-9


def test_simultaneous_finish_and_arrival_one_invocation():
    # f1 at rate 1.0 finishes at exactly t=2.0, the instant a new flow
    # arrives; bg keeps the network busy. One timestamp, one batch, one
    # scheduler invocation covering both the departure and the arrival.
    engine = Engine(two_hosts(2.0), _Recorder())
    engine.inject_background_flow(Flow("h0", "h1", 2.0, tag="f1"), at_time=0.0)
    engine.inject_background_flow(Flow("h0", "h1", 20.0, tag="bg"), at_time=0.0)
    engine.inject_background_flow(Flow("h0", "h1", 1.0, tag="f2"), at_time=2.0)
    trace = engine.run()
    by_tag = {r.flow.tag: r for r in trace.flow_records}
    assert by_tag["f1"].finish == 2.0 == by_tag["f2"].start
    at_two = [entry for entry in engine.scheduler.log if entry[0] == 2.0]
    assert len(at_two) == 1


# ------------------------------------------------- coalesced injections


def test_same_timestamp_background_arrivals_coalesce_into_one_event():
    engine = Engine(big_switch(4, 10.0), FairSharingScheduler())
    for i in range(50):
        engine.inject_background_flow(
            Flow("h0", f"h{1 + i % 3}", 1.0, tag=f"f{i}"), at_time=0.0
        )
    assert len(engine.events) == 1
    engine.inject_background_flow(Flow("h0", "h1", 1.0, tag="later"), at_time=2.0)
    assert len(engine.events) == 2
    trace = engine.run()
    assert len(trace.flow_records) == 51
    assert all(r.start == 0.0 for r in trace.flow_records if r.flow.tag != "later")


def test_coalesced_batch_preserves_registration_order():
    # Registration order is the injection order inside the batch, which
    # fixes the fid order every downstream tie-break uses: the trace must
    # match injecting the same flows via distinct (un-coalesced) times.
    engine = Engine(big_switch(4, 4.0), FairSharingScheduler())
    sizes = [3.0, 1.0, 2.0, 1.5]
    for i, size in enumerate(sizes):
        engine.inject_background_flow(
            Flow("h0", "h1", size, tag=f"f{i}"), at_time=1.0
        )
    trace = engine.run()
    by_tag = {r.flow.tag: r for r in trace.flow_records}
    assert set(by_tag) == {f"f{i}" for i in range(len(sizes))}
    assert all(r.start == 1.0 for r in trace.flow_records)
    # Equal fair shares on one bottleneck: completion order follows size.
    finishes = [by_tag[f"f{i}"].finish for i in range(len(sizes))]
    assert sorted(range(4), key=lambda i: finishes[i]) == [1, 3, 2, 0]

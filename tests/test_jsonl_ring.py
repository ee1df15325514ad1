"""``JsonlEventLog`` ring eviction == a naive evict-on-every-append model.

The log drops evicted events from its list in amortized O(1) slices;
the model below shifts the whole list on every eviction, as the log
once did. Under random capacities, event kinds, timestamps and live
subscribers, both must agree after every append on ``events``,
``len``, ``total_appended``, ``evicted_by_kind``, ``evicted_span``,
``dump()`` and what each subscriber saw.
"""

import json
import random

import pytest

from repro.obs import JsonlEventLog


class NaiveLog:
    def __init__(self, capacity):
        self.capacity = capacity
        self.events = []
        self.total_appended = 0
        self.evicted_by_kind = {}
        self.evicted_span = None
        #: Every record ever appended: what a subscriber must see.
        self.stream = []

    def append(self, ev, t, **fields):
        record = {"ev": ev, "t": t}
        record.update(fields)
        self.stream.append(record)
        self.events.append(record)
        self.total_appended += 1
        if self.capacity is not None and len(self.events) > self.capacity:
            for victim in self.events[: len(self.events) - self.capacity]:
                kind = victim.get("ev", "?")
                self.evicted_by_kind[kind] = self.evicted_by_kind.get(kind, 0) + 1
                vt = victim.get("t")
                if isinstance(vt, (int, float)):
                    if self.evicted_span is None:
                        self.evicted_span = [vt, vt]
                    else:
                        self.evicted_span[0] = min(self.evicted_span[0], vt)
                        self.evicted_span[1] = max(self.evicted_span[1], vt)
            del self.events[: len(self.events) - self.capacity]

    def dump(self):
        lines = []
        if self.evicted_by_kind:
            head = {
                "ev": "log_truncated",
                "t": self.evicted_span[1] if self.evicted_span else 0.0,
                "evicted": sum(self.evicted_by_kind.values()),
                "by_kind": dict(sorted(self.evicted_by_kind.items())),
            }
            if self.evicted_span is not None:
                head["span"] = list(self.evicted_span)
            lines.append(head)
        lines.extend(self.events)
        return "".join(
            json.dumps(event, sort_keys=True, default=str) + "\n" for event in lines
        )


def _assert_same(log, model):
    assert len(log) == len(model.events)
    assert log.total_appended == model.total_appended
    assert log.evicted_by_kind == model.evicted_by_kind
    assert log.evicted_span == model.evicted_span
    assert log.events == model.events


@pytest.mark.parametrize("seed", range(12))
def test_ring_matches_naive_model(seed):
    rng = random.Random(seed)
    capacity = rng.choice((None, 1, 2, 3, 7, 16, 50))
    log = JsonlEventLog(capacity=capacity)
    model = NaiveLog(capacity)
    seen = [[] for _ in range(rng.randint(0, 3))]
    for sink in seen:
        log.subscribe(sink.append)
    for step in range(rng.randint(1, 400)):
        kind = rng.choice(("flow_injected", "flow_finished", "reschedule", "fault"))
        t = rng.choice((rng.uniform(-1.0, 5.0), step, None, "late"))
        fields = {"i": step, "x": rng.random()} if rng.random() < 0.7 else {}
        log.append(kind, t, **fields)
        model.append(kind, t, **fields)
        if rng.random() < 0.2:
            _assert_same(log, model)
    _assert_same(log, model)
    assert log.dump() == model.dump()
    for sink in seen:
        assert sink == model.stream


def test_subscriber_appending_to_its_own_log_matches_model():
    log = JsonlEventLog(capacity=3)
    model = NaiveLog(3)

    def echo(record):
        if record["ev"] == "ping":
            log.append("pong", record["t"])
            model.append("pong", record["t"])

    log.subscribe(echo)
    for t in range(10):
        model.append("ping", float(t))
        log.append("ping", float(t))
        _assert_same(log, model)
    assert log.dump() == model.dump()


def test_ring_eviction_is_amortized_constant():
    # With a shift per eviction, 60k appends into a 30k ring would move
    # ~900M list slots. Between appends, sliced eviction keeps fewer
    # than max(64, capacity // 4) evicted records, and reaches one short
    # of that just before it slices.
    log = JsonlEventLog(capacity=30_000)
    peak = 0
    for i in range(60_000):
        log.append("e", float(i))
        peak = max(peak, len(log._events))
    assert peak == 30_000 + 30_000 // 4 - 1
    assert len(log) == 30_000
    assert log.events[0]["t"] == 30_000.0
    assert log.evicted_by_kind == {"e": 30_000}
    assert log.evicted_span == [0.0, 29_999.0]


@pytest.mark.parametrize("capacity", [1, 5, 64, 100, 257])
def test_small_ring_holds_at_most_64_evicted_records(capacity):
    log = JsonlEventLog(capacity=capacity)
    bound = capacity + max(64, capacity // 4) - 1
    for i in range(2_000):
        log.append("e", float(i))
        assert len(log._events) <= bound
    assert len(log) == capacity
    assert [event["t"] for event in log.events] == [
        float(i) for i in range(2_000 - capacity, 2_000)
    ]

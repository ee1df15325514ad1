"""Event taxonomy and the simulator's priority queue.

The engine advances time between *discrete* events (task completions,
scheduled arrivals, injected faults); network flow completions are derived
from rates rather than queued, so they never go stale. Ties at the same
timestamp are broken by (priority, sequence) for full determinism.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional


class EventKind(enum.Enum):
    JOB_ARRIVAL = "job_arrival"
    COMPUTE_DONE = "compute_done"
    TIMER = "timer"
    FAULT = "fault"


#: Lower number processes first among same-time events. Compute completions
#: precede arrivals so a device freed at time t can pick up work arriving
#: at t within one scheduling round.
_KIND_PRIORITY = {
    EventKind.COMPUTE_DONE: 0,
    EventKind.FAULT: 1,
    EventKind.JOB_ARRIVAL: 2,
    EventKind.TIMER: 3,
}

@dataclass(order=True)
class Event:
    """One discrete event. Ordering key: (time, kind priority, sequence)."""

    time: float
    priority: int = field(compare=True)
    sequence: int = field(compare=True)
    kind: EventKind = field(compare=False)
    payload: Any = field(compare=False, default=None)
    callback: Optional[Callable[["Event"], None]] = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)


class EventQueue:
    """A heap of :class:`Event` with lazy cancellation.

    The tie-breaking sequence counter is *queue-scoped* (not
    process-global) so a queue's state is fully capturable: a snapshot
    records the live events plus ``next_sequence``, and a forked queue
    rebuilt from them reproduces the exact same (time, priority,
    sequence) ordering -- including between copied events (which keep
    their original sequence numbers) and events pushed after the fork
    (which always draw larger ones).
    """

    def __init__(self, next_sequence: int = 0) -> None:
        self._heap: List[Event] = []
        self._next_sequence = next_sequence

    @property
    def next_sequence(self) -> int:
        """The sequence number the next pushed event will receive."""
        return self._next_sequence

    def push(
        self,
        time: float,
        kind: EventKind,
        payload: Any = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> Event:
        if time != time or time == float("inf"):
            raise ValueError(f"event time must be finite, got {time}")
        event = Event(
            time=time,
            priority=_KIND_PRIORITY[kind],
            sequence=self._next_sequence,
            kind=kind,
            payload=payload,
            callback=callback,
        )
        self._next_sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def push_restored(self, event: Event) -> Event:
        """Re-admit a previously captured event, keeping its sequence.

        Used by snapshot/fork/restore: the copied event's original
        (time, priority, sequence) key is preserved so tie-breaking in
        the resumed run matches the uninterrupted run bit for bit.
        """
        heapq.heappush(self._heap, event)
        return event

    def live_events(self) -> Iterator[Event]:
        """Iterate the non-cancelled events in heap (not sorted) order."""
        return (event for event in self._heap if not event.cancelled)

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    def peek_time(self) -> float:
        """Time of the next live event, or ``inf`` when empty."""
        self._drop_cancelled()
        return self._heap[0].time if self._heap else float("inf")

    def pop(self) -> Event:
        self._drop_cancelled()
        if not self._heap:
            raise IndexError("pop from empty event queue")
        return heapq.heappop(self._heap)

    def pop_due(self, time: float, tolerance: float = 0.0) -> List[Event]:
        """Pop every live event with ``event.time <= time + tolerance``."""
        due: List[Event] = []
        while True:
            self._drop_cancelled()
            if not self._heap or self._heap[0].time > time + tolerance:
                break
            due.append(heapq.heappop(self._heap))
        return due

    def pop_batch(self, time: float, tolerance: float = 0.0) -> List[Event]:
        """The full batch of events sharing the frontier timestamp.

        The engine's batched dispatch: every event due at ``time`` (within
        ``tolerance``) is popped in one call, in (kind priority, sequence)
        order -- faults before arrivals before timers -- so one scheduler
        invocation and one ``set_rates`` can absorb all simultaneous
        state changes. Semantically this is :meth:`pop_due`; the separate
        name documents the batching contract the engine relies on.
        """
        return self.pop_due(time, tolerance)

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def __bool__(self) -> bool:
        self._drop_cancelled()
        return bool(self._heap)

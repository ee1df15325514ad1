"""A clock that reads wall time rescaled to a fixed reference CPU speed.

On a shared virtual machine the speed of one core changes by 1.5-2x
from one second to the next, as other tenants come and go, and a slow
stretch can last longer than a whole benchmark run. Medians over reps
do not remove that: every rep of a run can sit in the same stretch.
This clock does. Every :data:`PERIOD_S` of wall time a ``SIGALRM``
handler times a fixed pure-Python loop (integer arithmetic, a dict read
and write, a slotted attribute store: the interpreter work the simulator
is made of). The clock then advances at ``REFERENCE_S / loop time``
reference seconds per wall second, using the median of the last three
loop times, so time spent during a slow stretch counts for less. The
handler's own time is left out of the clock.

A reading is therefore "seconds at reference speed": what the interval
would have lasted on a core that runs the loop in :data:`REFERENCE_S`.
The loop and the reference are constants, so readings from different
runs and different commits compare. Two things the rescaling cannot
tell apart from a slow machine: work that slows the loop itself (another
thread holding the interpreter lock; the simulator is single-threaded),
and a change in how much of the loop's data the program evicts from the
CPU caches between samples, which moves readings by a few percent.

Where ``signal.setitimer`` is missing the clock reads plain wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.05
LOOP_ITERATIONS = 3000
#: The loop's duration at reference speed (a round number: a 2-vCPU
#: cloud VM takes 0.4-0.8 ms, depending on the moment).
REFERENCE_S = 0.0005


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


def _at(t: float, state: Tuple[float, float, float, float, float]) -> float:
    """Reference time at wall time ``t``: ``state`` is the last sample's
    (reference time at its start, wall start, wall end, rate before, rate after)."""
    reference, start, end, before, after = state
    if t <= start:
        return reference - (start - t) * before
    return reference + (t - end) * after


class ReferenceClock:
    """Call :meth:`start` before timing and :meth:`stop` after; :meth:`now` reads."""

    def __init__(self) -> None:
        self._table = {i: 0.0 for i in range(64)}
        self._cells = [_Cell() for _ in range(64)]
        self._recent: List[float] = [self._loop_seconds() for _ in range(3)]
        rate = REFERENCE_S / statistics.median(self._recent)
        now = time.perf_counter()
        self._state = (0.0, now, now, rate, rate)
        self._previous_handler = None
        #: Samples taken and wall seconds spent taking them.
        self.samples = 0
        self.sampling_s = 0.0

    def _loop_seconds(self) -> float:
        table = self._table
        cells = self._cells
        x = 0
        start = time.perf_counter()
        for _ in range(LOOP_ITERATIONS):
            x = (x * 7 + 3) & 63
            cell = cells[x]
            cell.value = table[x] * 0.5 + 1.0
            table[x] = cell.value
        return time.perf_counter() - start

    def now(self) -> float:
        return _at(time.perf_counter(), self._state)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference = _at(start, self._state)
        self._recent = self._recent[1:] + [self._loop_seconds()]
        rate = REFERENCE_S / statistics.median(self._recent)
        end = time.perf_counter()
        self._state = (reference, start, end, self._state[4], rate)
        self.samples += 1
        self.sampling_s += end - start

    def start(self) -> "ReferenceClock":
        if hasattr(signal, "setitimer"):
            self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

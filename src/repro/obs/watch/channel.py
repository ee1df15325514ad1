"""Degraded-telemetry channel model for the watch loop.

Real clusters never deliver the pristine event feed the simulator
produces: collectors sample, agents drop batches under load, the
transport delays and reorders, and at-least-once delivery duplicates.
:class:`TelemetryChannel` models that degradation as a deterministic,
seeded transform between a run's :class:`~repro.obs.jsonl.JsonlEventLog`
and the :class:`~repro.obs.watch.watch.WatchLoop`:

* **sampling** -- keep 1-in-``sample`` of the high-volume telemetry
  kinds (``link_sample`` / ``flow_rates``), via a deterministic counter
  (no randomness spent, so sampled-out events never shift the RNG
  stream);
* **drop** -- i.i.d. loss at probability ``drop`` plus *bursty* loss: a
  Gilbert-Elliott-style two-state gate that enters a loss burst with
  probability ``burst`` per eligible event and then drops ``burst_len``
  consecutive eligible events;
* **delay / jitter** -- each delivered event is held for a uniform
  extra latency in ``[0, delay]`` sim-seconds and released when a later
  event's timestamp passes its release point, giving *bounded*
  reordering (an event never arrives more than ``delay`` after its
  origin time);
* **duplication** -- with probability ``dup`` a second copy is
  delivered, with its own independently drawn delay.

Determinism contract: the channel's decisions are a pure function of
``(spec, seed, input event sequence)``. Heartbeats, loop-emitted
records, and ``fault`` markers pass through untouched *and consume no
randomness*, so a live run (where the loop's own anomaly records are
appended mid-stream) and an offline replay of the saved log walk the
identical RNG path -- which is what keeps the PR 6 live == replay
bit-for-bit guarantee intact per ``(spec, seed)``.

Spec grammar (``parse_noise_spec``, one table in
:mod:`repro.core.grammar`)::

    sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01,seed=7

``off`` (or an empty string / ``None``) is the identity channel. Bad
keys and values raise :class:`NoiseSpecError`. ``burst=PxL`` sets the
burst-entry probability ``P`` and burst length ``L``; ``delay`` is in
sim-seconds (scale it to the workload -- the scenario grid uses a
fraction of the heartbeat period).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ...core import grammar
from ...core.grammar import NON_NEGATIVE, POSITIVE_COUNT, PROBABILITY, Key

#: Record kinds the channel never degrades and never spends RNG on:
#: loop-emitted records (skipped by the loop anyway), heartbeats (the
#: watch clock -- losing it would decouple live from replay cadence),
#: ground-truth fault markers (not telemetry; detectors never parse
#: them, and the mitigator's restore hook must see every one), and
#: ring-eviction markers.
PASSTHROUGH_KINDS = frozenset(
    {
        "anomaly",
        "localization",
        "mitigation",
        "log_truncated",
        "watch_heartbeat",
        "fault",
    }
)

#: High-volume telemetry kinds the 1-in-k sampler applies to.
SAMPLED_KINDS = frozenset({"link_sample", "flow_rates"})


class NoiseSpecError(ValueError):
    """A noise spec string failed to parse."""


@dataclass(frozen=True)
class NoiseSpec:
    """Declarative description of one degraded-telemetry channel."""

    #: Keep 1-in-``sample`` of ``link_sample``/``flow_rates`` events.
    sample: int = 1
    #: i.i.d. loss probability for every degradable event.
    drop: float = 0.0
    #: Probability of *entering* a loss burst per eligible event.
    burst: float = 0.0
    #: Consecutive eligible events a burst drops once entered.
    burst_len: int = 4
    #: Maximum extra delivery latency (sim-seconds); uniform jitter.
    delay: float = 0.0
    #: Probability an event is delivered twice.
    dup: float = 0.0
    #: RNG seed; same (spec, seed, stream) -> same degraded stream.
    seed: int = 0

    def __post_init__(self) -> None:
        grammar.check(self, NOISE_KEYS, NoiseSpecError)

    @property
    def is_noop(self) -> bool:
        """True when the channel is the identity transform."""
        return (
            self.sample == 1
            and self.drop == 0.0
            and self.burst == 0.0
            and self.delay == 0.0
            and self.dup == 0.0
        )

    def describe(self) -> str:
        """Round-trippable spec string (``off`` for the identity)."""
        return "off" if self.is_noop else grammar.describe(self, NOISE_KEYS)


#: The ``--noise`` grammar: one row per key (``burst=PxL`` fills two fields).
NOISE_KEYS = (
    Key("sample", int, POSITIVE_COUNT),
    Key("drop", limits=PROBABILITY),
    Key("burst", limits=PROBABILITY, tail=Key("burst_len", int, POSITIVE_COUNT)),
    Key("delay", limits=NON_NEGATIVE),
    Key("dup", limits=PROBABILITY),
    Key("seed", int, always=True),
)


def parse_noise_spec(spec: object = None, seed: Optional[int] = None) -> NoiseSpec:
    """Parse ``key=value,...`` (or pass a :class:`NoiseSpec` through).

    ``seed`` (when given) overrides any ``seed=`` in the string, so CLI
    ``--seed`` composes with ``--noise`` specs copied from reports.
    """
    return grammar.parse_spec(NoiseSpec, spec, NOISE_KEYS, NoiseSpecError, seed)


class TelemetryChannel:
    """One seeded, deterministic degraded-telemetry channel.

    Sits between an event source and any number of subscribers::

        channel = TelemetryChannel("sample=4,drop=0.1", seed=7)
        channel.subscribe(loop.observe)
        log.subscribe(channel.send)
        ...engine.run()...
        channel.flush()   # release anything still jittering in flight

    The channel is single-use per stream: feeding two runs through one
    instance entangles their RNG draws. Build a fresh channel (same
    spec, same seed) for the replay side of a live/replay comparison.
    """

    def __init__(
        self,
        spec: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.spec = parse_noise_spec(spec, seed)
        self._rng = random.Random(self.spec.seed)
        self._subscribers: List[Callable[[Dict], None]] = []
        #: Per-kind counters for the 1-in-k sampler.
        self._sample_counts: Dict[str, int] = {}
        #: Remaining events the current loss burst will eat.
        self._burst_left = 0
        #: Delay buffer: (release time, seq, event).
        self._buffer: List[Tuple[float, int, Dict]] = []
        self._seq = 0
        self._clock = float("-inf")
        self.stats: Dict[str, int] = {
            "seen": 0,
            "delivered": 0,
            "passthrough": 0,
            "sampled_out": 0,
            "dropped": 0,
            "dropped_burst": 0,
            "duplicated": 0,
            "delayed": 0,
        }

    # -- wiring ---------------------------------------------------------

    def subscribe(self, callback: Callable[[Dict], None]) -> None:
        """Register a downstream consumer of the degraded stream."""
        self._subscribers.append(callback)

    def _deliver(self, event: Dict) -> None:
        self.stats["delivered"] += 1
        for callback in self._subscribers:
            callback(event)

    # -- the transform --------------------------------------------------

    def send(self, event: Dict) -> None:
        """Feed one source event through the channel."""
        self.stats["seen"] += 1
        kind = event.get("ev")
        t = event.get("t")
        if isinstance(t, (int, float)):
            self._clock = max(self._clock, t)
        # Every arrival advances the clock and releases due buffered
        # events *first*, so reordering stays bounded by the jitter.
        self._release(self._clock)
        if kind in PASSTHROUGH_KINDS:
            self.stats["passthrough"] += 1
            self._deliver(event)
            return
        spec = self.spec
        if spec.is_noop:
            self._deliver(event)
            return
        if spec.sample > 1 and kind in SAMPLED_KINDS:
            count = self._sample_counts.get(kind, 0)
            self._sample_counts[kind] = count + 1
            if count % spec.sample:
                self.stats["sampled_out"] += 1
                return
        # Loss: the burst gate first (it models the collector falling
        # over, which no amount of per-event luck survives), then the
        # i.i.d. coin. Both are drawn for every eligible event so the
        # RNG stream stays aligned whatever the outcomes are.
        if spec.burst > 0.0:
            entered = self._rng.random() < spec.burst
            if self._burst_left > 0:
                self._burst_left -= 1
                self.stats["dropped_burst"] += 1
                return
            if entered:
                self._burst_left = spec.burst_len - 1
                self.stats["dropped_burst"] += 1
                return
        if spec.drop > 0.0 and self._rng.random() < spec.drop:
            self.stats["dropped"] += 1
            return
        copies = 1
        if spec.dup > 0.0 and self._rng.random() < spec.dup:
            copies = 2
            self.stats["duplicated"] += 1
        for _ in range(copies):
            if spec.delay > 0.0:
                jitter = self._rng.uniform(0.0, spec.delay)
            else:
                jitter = 0.0
            if jitter > 0.0 and isinstance(t, (int, float)):
                self.stats["delayed"] += 1
                heapq.heappush(
                    self._buffer, (t + jitter, self._seq, event)
                )
                self._seq += 1
            else:
                self._deliver(event)

    def _release(self, now: float) -> None:
        buffer = self._buffer
        while buffer and buffer[0][0] <= now:
            _, _, event = heapq.heappop(buffer)
            self._deliver(event)

    def flush(self) -> None:
        """Release everything still in the delay buffer (end of run)."""
        self._release(float("inf"))

    # -- reporting ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Events currently held in the delay buffer."""
        return len(self._buffer)

    def report(self) -> Dict:
        """JSON-able summary of what the channel did to the stream."""
        return {"spec": self.spec.describe(), **self.stats}

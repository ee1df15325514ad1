"""Lossy, seeded RPC channel for the control-plane runtime.

Every Agent<->Coordinator message in :mod:`repro.system.runtime` crosses
one :class:`RpcChannel`. The channel models the classic control-plane
failure modes -- i.i.d. message loss, bounded one-way delay, and
at-least-once duplication -- plus the client-side policy that copes
with them: per-message timeout, bounded retries, and exponential
backoff between attempts.

Determinism contract: the channel's verdict for a message is a pure
function of ``(spec, seed, msg_id)``. Each message id gets its own
``random.Random`` seeded from the string ``"{seed}|{msg_id}"`` (string
seeding hashes via SHA-512 inside CPython's ``random``, so it is stable
across processes and independent of ``PYTHONHASHSEED``). Retries of the
same message append the attempt number to the id, so attempt *k* of a
registration draws the same fate in a live run and in a replay -- which
is what keeps live == replay bit-for-bit per ``(spec, seed)``.

Spec grammar (``parse_rpc_spec``, one table in
:mod:`repro.core.grammar`, like the telemetry ``NoiseSpec``)::

    drop=0.1,delay=0.002,dup=0.01,timeout=0.05,retries=3,backoff=0.01,seed=7

``off`` (or an empty string / ``None``) is the identity channel:
nothing is dropped, delayed, or duplicated, and the runtime runs in
passive mode (one coordinator allocation per scheduling round).
Bad keys and values raise :class:`RpcSpecError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ...core import grammar
from ...core.grammar import NON_NEGATIVE, PROBABILITY, Key, Range


class RpcSpecError(ValueError):
    """An RPC channel spec string failed to parse."""


@dataclass(frozen=True)
class RpcSpec:
    """Declarative description of one control-plane RPC channel."""

    #: i.i.d. loss probability per message copy.
    drop: float = 0.0
    #: Maximum one-way delivery latency (sim-seconds); uniform in [0, delay].
    delay: float = 0.0
    #: Probability a delivered message arrives twice.
    dup: float = 0.0
    #: Sender-side wait before declaring one attempt lost (sim-seconds).
    timeout: float = 0.05
    #: Retries after the first attempt (so ``retries + 1`` attempts total).
    retries: int = 3
    #: Base backoff between attempts; attempt k waits ``backoff * 2**k``.
    backoff: float = 0.01
    #: RNG seed; same (spec, seed, msg_id) -> same fate.
    seed: int = 0

    def __post_init__(self) -> None:
        grammar.check(self, RPC_KEYS, RpcSpecError)

    @property
    def is_noop(self) -> bool:
        """True when the channel is the identity transform.

        Timeout/retry/backoff are client policy, not channel behaviour;
        they only matter once loss, delay, or duplication exist, so
        they do not disqualify the identity.
        """
        return self.drop == 0.0 and self.delay == 0.0 and self.dup == 0.0

    def describe(self) -> str:
        """Round-trippable spec string (``off`` for the identity)."""
        return "off" if self.is_noop else grammar.describe(self, RPC_KEYS)


#: The ``rpc=`` grammar. ``drop`` stays below 1: a channel that loses
#: everything can never deliver, even with retries.
RPC_KEYS = (
    Key("drop", limits=Range(0.0, 1.0, "[)")),
    Key("delay", limits=NON_NEGATIVE),
    Key("dup", limits=PROBABILITY),
    Key("timeout", limits=NON_NEGATIVE, always=True),
    Key("retries", int, NON_NEGATIVE, always=True),
    Key("backoff", limits=NON_NEGATIVE, always=True),
    Key("seed", int, always=True),
)


def parse_rpc_spec(spec: object = None, seed: Optional[int] = None) -> RpcSpec:
    """Parse ``key=value,...`` (or pass an :class:`RpcSpec` through).

    ``seed`` (when given) overrides any ``seed=`` in the string, so CLI
    ``--seed`` composes with specs copied from reports.
    """
    return grammar.parse_spec(RpcSpec, spec, RPC_KEYS, RpcSpecError, seed)


@dataclass(frozen=True)
class Verdict:
    """The channel's fate for one message copy."""

    delivered: bool
    #: One-way latency for the (first) delivered copy; 0 when dropped.
    latency: float = 0.0
    #: A duplicate copy also arrives (idempotent receivers absorb it).
    duplicated: bool = False


class RpcChannel:
    """One seeded, deterministic lossy RPC channel.

    Stateless across messages by design: the fate of message ``m`` is
    derived from ``(seed, m)`` alone, never from the channel's history.
    That makes verdicts replayable regardless of the order the runtime
    asks for them -- the property the failover/replay path leans on.
    """

    def __init__(
        self,
        spec: Optional[object] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.spec = parse_rpc_spec(spec, seed)
        self.stats: Dict[str, int] = {
            "sent": 0,
            "delivered": 0,
            "dropped": 0,
            "delayed": 0,
            "duplicated": 0,
        }

    @property
    def is_noop(self) -> bool:
        return self.spec.is_noop

    def transmit(self, msg_id: str) -> Verdict:
        """Decide the fate of one message copy, deterministically."""
        self.stats["sent"] += 1
        spec = self.spec
        if spec.is_noop:
            self.stats["delivered"] += 1
            return Verdict(delivered=True)
        rng = random.Random(f"{spec.seed}|{msg_id}")
        if spec.drop > 0.0 and rng.random() < spec.drop:
            self.stats["dropped"] += 1
            return Verdict(delivered=False)
        latency = rng.uniform(0.0, spec.delay) if spec.delay > 0.0 else 0.0
        duplicated = spec.dup > 0.0 and rng.random() < spec.dup
        self.stats["delivered"] += 1
        if latency > 0.0:
            self.stats["delayed"] += 1
        if duplicated:
            self.stats["duplicated"] += 1
        return Verdict(delivered=True, latency=latency, duplicated=duplicated)

    def attempt_cost(self, attempt: int) -> float:
        """Sender-side wall time charged to a failed attempt ``attempt``.

        One timeout wait plus the exponential backoff before the next
        try -- the latency a live client would observe.
        """
        return self.spec.timeout + self.spec.backoff * (2 ** attempt)

    def send_with_retries(self, msg_id: str) -> Verdict:
        """Run the timeout/retry/backoff policy for one logical message.

        Returns the verdict of the first delivered attempt with the
        accumulated sender-side latency (failed attempts charge
        :meth:`attempt_cost`; the delivered copy adds its own one-way
        delay). When every attempt is lost, returns an undelivered
        verdict carrying the full latency spent discovering that.
        """
        latency = 0.0
        for attempt in range(self.spec.retries + 1):
            verdict = self.transmit(f"{msg_id}#{attempt}" if attempt else msg_id)
            if verdict.delivered:
                return Verdict(
                    delivered=True,
                    latency=latency + verdict.latency,
                    duplicated=verdict.duplicated,
                )
            latency += self.attempt_cost(attempt)
        return Verdict(delivered=False, latency=latency)

    def report(self) -> Dict:
        """JSON-able summary of what the channel did."""
        return {"spec": self.spec.describe(), **self.stats}

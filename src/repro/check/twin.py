"""The differential twin oracle: shadow-execute the scheduler on a rebuilt network.

On a sampled fraction of scheduler invocations the oracle reconstructs a
fresh network from the primary's materialized state, replays the
(deep-copied) scheduler against it, and demands rate-for-rate agreement
with the allocation the primary just produced.

Reconstruction, not mirroring: the twin network is built fresh per sampled
invocation from ``active_states()`` -- flows re-injected at their original
start times on the primary's pinned paths, with ``remaining`` and
``ideal_finish_time`` copied from the primary's synced states, and the
primary's capacity epoch and lineage carried over so capacity-keyed caches
(the memoizing scheduler's fingerprints) see the same history. That makes
the oracle stateless between samples (nothing to drift) and means a
divergence can only come from the primary's maintained state -- the finish
heap, group buckets, cached demands, persistent view -- feeding the
scheduler something stale: exactly the bug class it hunts.

The scheduler is deep-copied so stateful wrappers (the memoizing cache,
profiling counters, coordinator logs) are not perturbed by the shadow
invocation; deterministic schedulers replay identically from equal state.

The reconstruction also runs the *other* max-min kernel: a primary whose
demand set dispatched to the vector kernel for this invocation gets a
scalar twin, and a scalar primary gets a vector twin when numpy is present
(a scalar one otherwise). Every sampled invocation is therefore also a
scalar-vs-vector differential; under ``twin_tol=0`` the two kernels must
agree bit for bit.
"""

from __future__ import annotations

import copy
from typing import Dict, List

from ..scheduling.base import SchedulerView
from ..simulator.network import NetworkModel
from ..simulator.vector import HAVE_NUMPY
from .config import CheckConfig
from .violations import Violation


class TwinOracle:
    """Compares the primary's allocations against a reconstructed replay."""

    def __init__(self, config: CheckConfig) -> None:
        self.config = config
        #: Sampled invocations actually compared.
        self.comparisons = 0
        #: Sampled invocations skipped because the scheduler resisted
        #: deep-copying (exotic user schedulers holding live handles).
        self.skipped = 0

    def compare(self, engine, view: SchedulerView, rates: Dict[int, float]) -> List[Violation]:
        """Shadow-execute one invocation; returns twin-divergence violations."""
        try:
            scheduler = copy.deepcopy(engine.scheduler)
        except Exception as exc:  # pragma: no cover - exotic schedulers only
            self.skipped += 1
            return [
                Violation(
                    invariant="twin",
                    time=view.now,
                    message=(
                        "twin oracle could not deep-copy the scheduler; "
                        "sampled invocation skipped"
                    ),
                    details={"error": repr(exc)},
                )
            ]
        self.comparisons += 1
        twin = self._reconstruct(engine.network, view.now)
        twin_view = SchedulerView(
            now=view.now,
            network=twin,
            echelonflows=engine.echelonflows,
            trigger_cause=view.trigger_cause,
        )
        expected = scheduler.allocate(twin_view)
        return self._diff(view.now, rates, expected, engine.network)

    # ------------------------------------------------------------------

    def _reconstruct(self, network: NetworkModel, now: float) -> NetworkModel:
        """Build a fresh network holding the primary's flows.

        Each flow is re-injected with the primary's *pinned* path (not a
        freshly-routed one): under fault injection, routes may have been
        recomputed around blocked links since the flow was admitted, and a
        flow migrated by :meth:`NetworkModel.reroute_flows` must be
        replayed on the path it actually occupies. ``remaining`` and the
        cached ideal finish time are copied from the primary's synced
        states, so the twin sees the same bytes without replaying the
        drain history. The kernel is the one the primary did not use.
        """
        network.sync_active()
        if network.demands().use_vector or not HAVE_NUMPY:
            allocation = "scalar"
        else:
            allocation = "vector"
        twin = NetworkModel(
            network.topology, network.router, allocation=allocation
        )
        twin.capacity_epoch = network.capacity_epoch
        twin.capacity_lineage = network.capacity_lineage
        for state in network.active_states():
            flow_id = state.flow.flow_id
            twin_state = twin.inject(
                state.flow, state.start_time, path=network.path(flow_id)
            )
            twin_state.remaining = state.remaining
            twin_state.ideal_finish_time = state.ideal_finish_time
        twin.sync_active(now)
        return twin

    def _diff(
        self,
        now: float,
        actual: Dict[int, float],
        expected: Dict[int, float],
        network: NetworkModel,
    ) -> List[Violation]:
        """Rate-for-rate comparison over the active flows.

        Keys are compared through the engine's own semantics: a flow
        absent from an allocation idles at rate 0, so only active flows
        participate and a missing key equals an explicit zero.
        """
        tolerance = self.config.twin_tolerance
        violations: List[Violation] = []
        for state in network.active_states():
            flow_id = state.flow.flow_id
            got = actual.get(flow_id, 0.0)
            want = expected.get(flow_id, 0.0)
            if got == want:
                continue
            scale = max(abs(got), abs(want), 1e-12)
            if tolerance > 0.0 and abs(got - want) <= tolerance * scale:
                continue
            violations.append(
                Violation(
                    invariant="twin",
                    time=now,
                    message=(
                        f"primary allocation diverges from the twin "
                        f"replay for flow {flow_id}"
                    ),
                    details={
                        "flow": flow_id,
                        "primary_rate": got,
                        "twin_rate": want,
                        "relative_error": abs(got - want) / scale,
                    },
                )
            )
        return violations

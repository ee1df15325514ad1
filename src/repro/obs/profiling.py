"""Scheduler-invocation profiling middleware.

The paper's Section 5 concern is coordinator *cost*: algorithms "rerun
per EchelonFlow arrival/departure or per scheduling interval", so the
scalability question is how often the coordinator runs, how long each
run takes, and how much the answer actually changes between runs.

:class:`ProfiledScheduler` wraps any :class:`~repro.scheduling.base.Scheduler`
without touching its algorithm: each ``allocate`` call is timed
(wall-clock), sized (flows considered), attributed to its trigger cause
(propagated by the engine through ``SchedulerView.trigger_cause``), and
diffed against the previous allocation to measure rate-vector churn --
the fraction of the rate vector that changed, which bounds how much
agent reconfiguration the decision implies.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional

from ..scheduling.base import Scheduler, SchedulerView
from .registry import MetricsRegistry

#: Rates within this relative tolerance count as unchanged.
_CHURN_REL_TOL = 1e-9

_FLOWS_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
_CHURN_BUCKETS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


class InvocationRecord(NamedTuple):
    """One profiled ``allocate`` call."""

    at: float
    cause: str
    wall_clock: float
    flows_considered: int
    #: Flows whose rate changed (incl. newly added ones at nonzero rate).
    rates_changed: int
    #: rates_changed / max(1, flows in the new allocation).
    churn: float


def rate_vector_churn(
    previous: Mapping[int, float], current: Mapping[int, float]
) -> int:
    """Count entries of ``current`` that differ from ``previous``.

    A flow absent from ``previous`` counts as changed only if its new
    rate is nonzero (an idle newcomer needs no agent action); a flow that
    vanished is the departure that triggered the rerun and is not
    re-counted here.
    """
    changed = 0
    get = previous.get
    for flow_id, rate in current.items():
        old = get(flow_id)
        if old == rate:
            continue
        if old is None:
            if rate > 0.0:
                changed += 1
        elif abs(rate - old) > _CHURN_REL_TOL * max(1.0, abs(old), abs(rate)):
            changed += 1
    return changed


class ProfiledScheduler(Scheduler):
    """Transparent profiling wrapper around another scheduler."""

    name = "profiled"

    def __init__(
        self,
        inner: Scheduler,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
        keep_records: bool = True,
        event_log=None,
    ) -> None:
        """``event_log``: an optional :class:`~repro.obs.jsonl.JsonlEventLog`
        receiving one ``scheduler_invocation`` event per ``allocate`` call
        (wall-clock, cause, flows, churn), so saved logs can answer the
        latency-percentile question offline (``repro obs``)."""
        self.inner = inner
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = clock
        self.keep_records = keep_records
        self.event_log = event_log
        self.records: List[InvocationRecord] = []
        self.invocations = 0
        self.total_wall_clock = 0.0
        #: The previous decision's mapping itself: allocations are never
        #: mutated once returned (see Scheduler.allocate).
        self._last_rates: Mapping[int, float] = {}
        #: cause -> its invocation counter, and the wall-clock, flows and
        #: churn histograms: bound from the registry on first use.
        self._by_cause: Dict[str, object] = {}
        self._histograms = None
        self.name = f"profiled({inner.name})"

    @property
    def work_conserving(self) -> bool:
        """Profiling is transparent: the inner contract passes through."""
        return getattr(self.inner, "work_conserving", False)

    def fork(self) -> "ProfiledScheduler":
        """Fork for a forked engine: the inner scheduler forks, telemetry
        detaches (fresh registry, no event log -- a fork's profile is its
        own) and the churn baseline carries over so the first post-fork
        invocation measures churn against the same previous allocation an
        uninterrupted run would."""
        twin = ProfiledScheduler(
            self.inner.fork() if hasattr(self.inner, "fork") else self.inner,
            registry=None,
            clock=self.clock,
            keep_records=self.keep_records,
            event_log=None,
        )
        twin._last_rates = self._last_rates
        return twin

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        cause = getattr(view, "trigger_cause", None) or "unknown"
        flows = view.network.active_count
        t0 = self.clock()
        rates = self.inner.allocate(view)
        elapsed = max(0.0, self.clock() - t0)

        self.invocations += 1
        self.total_wall_clock += elapsed
        changed = rate_vector_churn(self._last_rates, rates)
        churn = changed / max(1, len(rates))
        self._last_rates = rates

        counter = self._by_cause.get(cause)
        if counter is None:
            counter = self._by_cause[cause] = self.registry.counter(
                "scheduler_invocations_total", cause=cause
            )
        counter.inc()
        histograms = self._histograms
        if histograms is None:
            registry = self.registry
            histograms = self._histograms = (
                registry.histogram("scheduler_wall_clock_seconds"),
                registry.histogram(
                    "scheduler_flows_considered", buckets=_FLOWS_BUCKETS
                ),
                registry.histogram(
                    "scheduler_rate_churn", buckets=_CHURN_BUCKETS
                ),
            )
        wall_clocks, sizes, churns = histograms
        wall_clocks.observe(elapsed)
        sizes.observe(flows)
        churns.observe(churn)
        if self.keep_records:
            self.records.append(
                InvocationRecord(view.now, cause, elapsed, flows, changed, churn)
            )
        if self.event_log is not None:
            self.event_log.add({
                "ev": "scheduler_invocation",
                "t": view.now,
                "cause": cause,
                "wall_clock": elapsed,
                "flows": flows,
                "churn": churn,
            })
        return rates

    # -- derived views --------------------------------------------------

    def by_cause(self) -> Dict[str, int]:
        """Invocation counts keyed by trigger cause."""
        counts: Dict[str, int] = {}
        for labels in self.registry.labels_of("scheduler_invocations_total"):
            cause = labels.get("cause", "unknown")
            counts[cause] = counts.get(cause, 0) + int(
                self.registry.counter_value(
                    "scheduler_invocations_total", cause=cause
                )
            )
        return dict(sorted(counts.items()))

    def mean_wall_clock(self) -> float:
        return self.total_wall_clock / self.invocations if self.invocations else 0.0

    def mean_churn(self) -> float:
        hist = self.registry.histogram(
            "scheduler_rate_churn", buckets=_CHURN_BUCKETS
        )
        return hist.mean

    def summary(self) -> Dict:
        """Plain-data profile: the scheduler section of a metrics report."""
        return {
            "scheduler": self.inner.name,
            "invocations": self.invocations,
            "by_cause": self.by_cause(),
            "wall_clock_seconds": self.registry.histogram(
                "scheduler_wall_clock_seconds"
            ).summary(),
            "flows_considered": self.registry.histogram(
                "scheduler_flows_considered", buckets=_FLOWS_BUCKETS
            ).summary(),
            "rate_churn": self.registry.histogram(
                "scheduler_rate_churn", buckets=_CHURN_BUCKETS
            ).summary(),
        }

"""The warm-started what-if query service.

:class:`WhatIfService` owns one *baseline* cluster run and answers
counterfactual queries against it. The crucial property is that a query
never re-simulates history before its intervention point:

1. At construction the service snapshots the freshly-built engine (the
   *genesis* handle, t=0) and runs the baseline to completion.
2. A query at time ``t`` finds the nearest cached
   :class:`~repro.simulator.StateHandle` at or before ``t``, forks it,
   and delta-resimulates only the gap ``[handle.time, t)``. The advanced
   state is snapshotted back into the handle cache, so repeated queries
   around the same region converge to O(forward simulation) each.
3. The fork shares the baseline's
   :class:`~repro.scheduling.MemoizingScheduler` fingerprint cache by
   reference (see :meth:`MemoizingScheduler.fork`), so scheduler
   invocations whose inputs match any earlier run -- baseline or sibling
   fork -- are cache hits. Capacity-lineage fingerprints keep this safe
   when forks diverge through link faults.
4. The intervention is applied to the fork and the fork runs to
   completion; results are diffed against the baseline with the
   :mod:`repro.obs.diagnosis` run-diff machinery.

``mode="cold"`` answers the same query by rebuilding the whole cluster
from scratch and replaying from t=0 -- the control arm that
``benchmarks/bench_whatif.py`` uses to report the warm-path speedup.
"""

from __future__ import annotations

import bisect
import time as _time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..faults import FaultInjector, parse_fault_spec
from ..obs.diagnosis import RunArtifacts, diff_runs
from ..simulator import Engine, EventKind, SimulationError, StateHandle, TIME_EPS
from .queries import WhatIfQuery, parse_query
from .workload import cluster_engine_factory, cluster_job_builder


class WhatIfError(ValueError):
    """A query is semantically invalid against this baseline."""


@dataclass(frozen=True)
class WhatIfResult:
    """Structured answer to one query. Everything is JSON-able via
    :meth:`to_json` except the parsed query itself."""

    query: WhatIfQuery
    mode: str
    time: float
    duration: Optional[float]
    baseline_makespan: float
    variant_makespan: float
    #: job id -> {"baseline": s|None, "variant": s|None, "delta": s|None}
    jct: Dict[str, Dict[str, Optional[float]]]
    #: EchelonFlow group id -> same triple for group tardiness
    tardiness: Dict[str, Dict[str, Optional[float]]]
    #: full run-diff report (repro.obs.diagnosis.diff_runs), baseline=a
    report: Dict
    wall_clock: float
    added_jobs: Tuple[str, ...] = ()
    removed_jobs: Tuple[str, ...] = ()

    @property
    def makespan_delta(self) -> float:
        return self.variant_makespan - self.baseline_makespan

    def to_json(self) -> Dict:
        return {
            "query": self.query.describe(),
            "mode": self.mode,
            "time": self.time,
            "duration": self.duration,
            "baseline_makespan": self.baseline_makespan,
            "variant_makespan": self.variant_makespan,
            "makespan_delta": self.makespan_delta,
            "added_jobs": list(self.added_jobs),
            "removed_jobs": list(self.removed_jobs),
            "jct": self.jct,
            "tardiness": self.tardiness,
            "report": self.report,
            "wall_clock": self.wall_clock,
        }


def _triples(
    baseline: Dict[str, float], variant: Dict[str, float]
) -> Dict[str, Dict[str, Optional[float]]]:
    out: Dict[str, Dict[str, Optional[float]]] = {}
    for key in sorted(set(baseline) | set(variant)):
        b = baseline.get(key)
        v = variant.get(key)
        out[key] = {
            "baseline": b,
            "variant": v,
            "delta": (v - b) if (b is not None and v is not None) else None,
        }
    return out


class WhatIfService:
    """Answers what-if queries against one shared baseline run.

    ``factory`` builds ``(engine, arrivals)`` -- an unrun engine with all
    baseline jobs submitted and a ``job_id -> arrival_time`` map. Use
    :meth:`build` for the standard Fig. 7-style cluster baseline. The
    engine's scheduler must support ``fork()`` (every shipped scheduler
    does); wrapping in :class:`MemoizingScheduler` is what makes warm
    starts effective, not merely correct.
    """

    def __init__(
        self,
        factory: Callable[[], Tuple[Engine, Dict[str, float]]],
        *,
        max_handles: int = 64,
        hosts_per_job: int = 4,
    ) -> None:
        self._factory = factory
        self._hosts_per_job = hosts_per_job
        self._max_handles = max_handles
        engine, arrivals = factory()
        self.arrivals: Dict[str, float] = dict(arrivals)
        #: genesis handle: the cluster with every tenant submitted, t=0.
        self.genesis: StateHandle = engine.snapshot()
        started = _time.perf_counter()
        self.baseline_trace = engine.run()
        self.baseline_wall_clock = _time.perf_counter() - started
        self.engine = engine
        self.baseline_makespan = engine.now
        self._baseline_artifacts = RunArtifacts.from_run(self.baseline_trace)
        self._baseline_jct = self._jct_map(engine)
        #: group id -> the last finish among its members in the baseline
        #: (see _tardiness_map); empty while the baseline's own is built.
        self._settled: Dict[str, float] = {}
        self._baseline_tardiness = self._tardiness_map(engine)
        finishes = self.baseline_trace.actual_finish_times()
        self._settled = {
            ef_id: max(finishes[flow.flow_id] for flow in group.flows)
            for ef_id, group in engine.echelonflows.items()
            if ef_id in self._baseline_tardiness
        }
        # Sorted timeline of reusable handles (times strictly increasing).
        self._handle_times: List[float] = [self.genesis.time]
        self._handles: List[StateHandle] = [self.genesis]

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, **kwargs) -> "WhatIfService":
        """Service over the standard cluster baseline; kwargs go to
        :func:`cluster_engine_factory` (hosts, jobs, scheduler, ...)."""
        hosts_per_job = kwargs.get("hosts_per_job", 4)
        return cls(
            partial(cluster_engine_factory, **kwargs),
            hosts_per_job=hosts_per_job,
        )

    # -- the handle timeline --------------------------------------------

    def _remember(self, handle: StateHandle) -> None:
        if len(self._handles) >= self._max_handles:
            return
        index = bisect.bisect_left(self._handle_times, handle.time)
        if (
            index < len(self._handle_times)
            and abs(self._handle_times[index] - handle.time) <= TIME_EPS
        ):
            return  # already have one here
        self._handle_times.insert(index, handle.time)
        self._handles.insert(index, handle)

    def fork_at(self, when: float) -> Engine:
        """A private engine advanced to exactly ``when`` (warm path).

        Forks the nearest cached handle at or before ``when`` and
        delta-resimulates the gap; the advanced state is cached for the
        next query in the neighbourhood.
        """
        if when < 0:
            raise WhatIfError(f"query time {when:g} is negative")
        index = bisect.bisect_right(self._handle_times, when + TIME_EPS) - 1
        handle = self._handles[max(index, 0)]
        fork = self.engine.fork(handle)
        if when > handle.time + TIME_EPS:
            fork.run(until=when)
            self._remember(fork.snapshot())
        return fork

    # -- applying interventions -----------------------------------------

    def _apply(
        self, engine: Engine, query: WhatIfQuery, when: float, duration
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...], Dict[str, float]]:
        """Mutate ``engine`` per the query. Returns
        ``(added_jobs, removed_jobs, extra_arrivals)``."""
        if query.kind in ("kill_link", "degrade_link"):
            self._apply_link(engine, query, when, duration)
            return (), (), {}
        if query.kind == "remove_job":
            self._apply_remove(engine, query.arg)
            return (), (query.arg,), {}
        # submit_job / add_tenant
        params = query.params
        builder = cluster_job_builder(engine, self._hosts_per_job)
        added: List[str] = []
        extra: Dict[str, float] = {}
        for copy in range(params.jobs):
            # Deterministic ids: every variant engine is a private fork,
            # so ids only need to be unique *within* one variant -- and
            # placement hashes the id, so the same query must get the
            # same id (and hosts) in warm, cold, and repeated runs.
            job_id = f"wi-{query.arg}{copy}"
            job = builder(query.arg, job_id, layers=params.layers, hosts=params.hosts)
            job.submit_to(engine, at_time=when)
            added.append(job_id)
            extra[job_id] = when
        return tuple(added), (), extra

    def _apply_link(
        self, engine: Engine, query: WhatIfQuery, when: float, duration
    ) -> None:
        action = "link_down" if query.kind == "kill_link" else "degrade"
        spec = f"{action}:{query.arg}@{when!r}"
        if duration is not None:
            spec += f"+{duration!r}"
        if action == "degrade":
            spec += f",factor={query.params.factor!r}"
        try:
            injector = FaultInjector(parse_fault_spec(spec))
            injector.attach(engine)
        except KeyError as exc:
            raise WhatIfError(
                f"query {query.describe()!r} names an unknown link: {exc}"
            ) from exc
        if engine.faults is None:
            engine.faults = injector

    def _apply_remove(self, engine: Engine, job_id: str) -> None:
        pending = None
        for event in engine.events.live_events():
            if event.kind is EventKind.JOB_ARRIVAL and event.payload == job_id:
                pending = event
                break
        if pending is None:
            detail = (
                "already started or finished"
                if job_id in engine._dags
                else "unknown job id"
            )
            raise WhatIfError(
                f"cannot remove job {job_id!r} at t={engine.now:g}: {detail} "
                "(remove_job only cancels jobs whose arrival is still pending)"
            )
        pending.cancelled = True
        del engine._dags[job_id]
        for ef_id in [
            ef_id
            for ef_id, group in engine.echelonflows.items()
            if group.job_id == job_id
        ]:
            del engine.echelonflows[ef_id]

    # -- result assembly ------------------------------------------------

    def _jct_map(
        self, engine: Engine, extra: Optional[Dict[str, float]] = None
    ) -> Dict[str, float]:
        arrivals = dict(self.arrivals)
        if extra:
            arrivals.update(extra)
        out: Dict[str, float] = {}
        for job_id in engine._dags:
            arrival = arrivals.get(job_id)
            if arrival is None:
                continue
            out[job_id] = engine.job_completion_time(job_id) - arrival
        return out

    def _tardiness_map(
        self, engine: Engine, when: float = float("-inf")
    ) -> Dict[str, float]:
        """Eq. 2 tardiness of every EchelonFlow of ``engine``'s run.

        ``when`` is a variant's intervention time. Its history before
        ``when`` is the baseline's, so a group whose members all finished
        before ``when`` in the baseline takes the baseline's value; only
        the other groups are evaluated on the variant's trace.
        """
        settled = self._settled
        finishes = None
        out: Dict[str, float] = {}
        for ef_id, group in engine.echelonflows.items():
            last = settled.get(ef_id)
            if last is not None and last < when:
                out[ef_id] = self._baseline_tardiness[ef_id]
                continue
            if finishes is None:
                finishes = engine.trace.actual_finish_times()
            try:
                out[ef_id] = group.tardiness(finishes)
            except (KeyError, ValueError):
                continue  # group never materialized flows
        return out

    # -- query entry points ---------------------------------------------

    def run_query(
        self, query, *, mode: str = "warm", detail: str = "full"
    ) -> WhatIfResult:
        """Answer one query (a :class:`WhatIfQuery` or a spec string).

        ``mode="warm"`` uses the fork-and-delta-resimulate path;
        ``mode="cold"`` rebuilds the cluster and replays from t=0 --
        the benchmark control. The two agree to the memo cache's
        fingerprint quantum (1 part in 1e9): a warm fork may replay an
        allocation whose inputs sat within the quantum of its own.

        ``detail="full"`` includes the per-flow/stage run-diff report;
        ``detail="deltas"`` skips it (JCT/tardiness/makespan deltas only)
        -- the report dominates per-query cost on large traces, so batch
        sweeps that only rank interventions should use ``"deltas"``.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if mode not in ("warm", "cold"):
            raise WhatIfError(f"mode must be 'warm' or 'cold', got {mode!r}")
        if detail not in ("full", "deltas"):
            raise WhatIfError(f"detail must be 'full' or 'deltas', got {detail!r}")
        when, duration = query.resolved(self.baseline_makespan)
        started = _time.perf_counter()
        if mode == "warm":
            variant = self.fork_at(when)
        else:
            variant, _ = self._factory()
        added, removed, extra = self._apply(variant, query, when, duration)
        try:
            variant.run()
        except SimulationError as exc:
            raise WhatIfError(
                f"counterfactual run for {query.describe()!r} cannot complete: "
                f"{exc} (a kill_link that permanently partitions the fabric "
                "deadlocks the cluster -- add '+duration' to restore the link)"
            ) from exc
        finally:
            # A fault injector and its engine point at each other: unbind
            # them so reference counting frees the variant once this
            # returns.
            if variant.faults is not None:
                variant.faults.detach()
        wall_clock = _time.perf_counter() - started

        variant_jct = self._jct_map(variant, extra)
        variant_tardiness = self._tardiness_map(variant, when)
        report: Dict = {}
        if detail == "full":
            report = diff_runs(
                self._baseline_artifacts, RunArtifacts.from_run(variant.trace)
            )
        return WhatIfResult(
            query=query,
            mode=mode,
            time=when,
            duration=duration,
            baseline_makespan=self.baseline_makespan,
            variant_makespan=variant.now,
            jct=_triples(self._baseline_jct, variant_jct),
            tardiness=_triples(self._baseline_tardiness, variant_tardiness),
            report=report,
            wall_clock=wall_clock,
            added_jobs=added,
            removed_jobs=removed,
        )

    def run_batch(
        self, queries, *, mode: str = "warm", detail: str = "full"
    ) -> List[WhatIfResult]:
        """Answer queries in order, sharing the handle and memo caches."""
        return [
            self.run_query(query, mode=mode, detail=detail)
            for query in queries
        ]

"""The five end-to-end workloads: seeded inputs, set-up, measured phase, checks.

Every workload follows the same protocol. ``setup(rng, smoke, clock)``
builds the inputs from ``rng`` and hands them to the program through
public entry points (``Engine``, ``ClusterManager``, ``WhatIfService``);
``measure()`` runs the closed loop -- one client calling ``Engine.run()``
or ``WhatIfService.run_batch()`` and waiting -- and returns a
:class:`Measured`. Only the measured phase counts as run time; set-up is
reported on its own so that work moved into it shows. ``clock`` is the
reference clock's ``now`` (see ``refclock.py``).

Decision latency comes from :class:`TimedScheduler`, a pass-through
``Scheduler`` that times every ``allocate`` call. It forwards ``inner``,
``work_conserving`` and ``fork`` (forks share one sample list), so the
engine and the what-if service treat it as the scheduler it wraps.

No workload passes ``allocation=``, ``incremental=`` or ``batch_dispatch=``:
the benchmark measures the engine's default path. The sanitizer is off
(``sanitizer=False``) everywhere.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.flow import Flow, FlowIdAllocator, use_flow_id_allocator
from repro.core.units import gbps
from repro.obs import Instrumentation, JsonlEventLog, ProfiledScheduler
from repro.scheduling import Scheduler, make_scheduler
from repro.simulator import Engine
from repro.topology import big_switch, fat_tree
from repro.topology.routing import EcmpRouter
from repro.whatif import WhatIfService
from repro.workloads import Arrival, ClusterManager, ClusterPlacer, JobTemplate

# Called through their modules so that the tracer's run-time wrappers apply.
import repro.obs.report as obs_report
import repro.whatif.workload as whatif_workload

Clock = Callable[[], float]

#: Relative tolerance of the byte-conservation check. A flow retires once
#: its residue is at most 1e-9 of its size, so delivered bytes can trail
#: injected bytes by up to that share.
BYTES_REL_TOL = 1e-9


def rep_rng(seed: int, rep: int) -> random.Random:
    """The random source of rep ``rep`` of a run with ``seed``.

    Each rep of a run draws its own inputs, so the median over a run's
    reps averages over several inputs as well as over timing noise.
    (A string seed is hashed with SHA-512: independent of PYTHONHASHSEED.)
    """
    return random.Random(f"e2e/{seed}/{rep}")


class TimedScheduler(Scheduler):
    """Pass-through wrapper recording how long every decision takes."""

    name = "timed"

    def __init__(self, inner: Scheduler, samples: List[Tuple[float, int]], clock: Clock) -> None:
        self.inner = inner
        #: (seconds, active flows) per ``allocate`` call, shared with every fork.
        self.samples = samples
        self.clock = clock
        self.name = f"timed({inner.name})"

    @property
    def work_conserving(self) -> bool:
        return getattr(self.inner, "work_conserving", False)

    def fork(self) -> "TimedScheduler":
        return TimedScheduler(self.inner.fork(), self.samples, self.clock)

    def allocate(self, view):
        start = self.clock()
        rates = self.inner.allocate(view)
        self.samples.append((self.clock() - start, view.network.active_count))
        return rates


class Stopwatch:
    """Times a ``with`` block on the reference clock and on the wall clock."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    def __enter__(self) -> "Stopwatch":
        self._start = self.clock()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = self.clock() - self._start
        self.wall_seconds = time.perf_counter() - self._wall


def trace_digest(flow_records) -> str:
    """SHA-256 of the per-flow schedule with flow ids made relative.

    The same normalisation as the scale sweep's digest: subtract the
    smallest flow id, sort by the relative id, and hash start and finish
    at full ``repr`` precision, so two runs share a digest only when every
    flow's schedule agrees bit for bit.
    """
    if not flow_records:
        return hashlib.sha256(b"empty").hexdigest()
    base = min(record.flow.flow_id for record in flow_records)
    normalized = sorted(
        (record.flow.flow_id - base, record.start, record.finish)
        for record in flow_records
    )
    return hashlib.sha256(repr(normalized).encode()).hexdigest()


@dataclass
class Measured:
    """What one measured phase produced."""

    #: Operations attempted and completed (flows, jobs or queries).
    ops: int
    ops_done: int
    #: Units of throughput completed: flows, or answered queries.
    work_done: int
    stopwatch: Stopwatch
    #: (seconds, active flows) per scheduling decision.
    decisions: List[Tuple[float, int]]
    digest: str
    bytes_injected: float
    bytes_delivered: float
    #: Simulated outcomes (simulated seconds), checked through the digest.
    outputs: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        return self.stopwatch.seconds

    @property
    def throughput(self) -> float:
        return self.work_done / self.run_s

    def check(self) -> List[str]:
        """Every op completed, and delivered bytes equal injected bytes."""
        problems = list(self.problems)
        if self.ops_done != self.ops:
            problems.append(f"{self.ops - self.ops_done} of {self.ops} ops incomplete")
        scale = max(1.0, abs(self.bytes_injected))
        if abs(self.bytes_delivered - self.bytes_injected) > BYTES_REL_TOL * scale:
            problems.append(
                f"bytes delivered {self.bytes_delivered!r} != injected "
                f"{self.bytes_injected!r}"
            )
        return problems


# ----------------------------------------------------------------------
# background bursts on a big switch
# ----------------------------------------------------------------------

BG_HOSTS = 64
BG_JOBS = 8
BG_GROUP = 16


class Background:
    """All flows injected at t=0 on ``big_switch(64)``, interval scheduling.

    The flow generator is the scale sweep's: host bandwidth n/64, 8 jobs,
    16-flow groups, sizes U[1, 2), every one of the 4,032 host pairs used.
    """

    def __init__(self, scheduler: str, flows: int, smoke_flows: int, tick: float) -> None:
        self.scheduler = scheduler
        self.flows = flows
        self.smoke_flows = smoke_flows
        self.tick = tick

    def ops(self, smoke: bool) -> int:
        return self.smoke_flows if smoke else self.flows

    def setup(self, rng: random.Random, smoke: bool, clock: Clock) -> None:
        n = self.ops(smoke)
        self.clock = clock
        self.samples: List[Tuple[float, int]] = []
        with use_flow_id_allocator(FlowIdAllocator()):
            topology = big_switch(BG_HOSTS, host_bandwidth=max(1.0, n / BG_HOSTS))
            self.engine = Engine(
                topology,
                TimedScheduler(make_scheduler(self.scheduler), self.samples, clock),
                scheduling_interval=self.tick,
                sanitizer=False,
            )
            injected = 0.0
            for i in range(n):
                src = i % BG_HOSTS
                dst = (i + 1 + (i // BG_HOSTS) % (BG_HOSTS - 1)) % BG_HOSTS
                if dst == src:
                    dst = (dst + 1) % BG_HOSTS
                job = i % BG_JOBS
                flow = Flow(
                    src=f"h{src}",
                    dst=f"h{dst}",
                    size=1.0 + rng.random(),
                    group_id=f"job{job}/g{i // (BG_JOBS * BG_GROUP)}",
                    index_in_group=(i // BG_JOBS) % BG_GROUP,
                    job_id=f"job{job}",
                    tag="e2e",
                )
                injected += flow.size
                self.engine.inject_background_flow(flow, at_time=0.0)
        self.n = n
        self.injected = injected

    def measure(self) -> Measured:
        with Stopwatch(self.clock) as stopwatch:
            trace = self.engine.run()
        done = len(trace.flow_records)
        return Measured(
            ops=self.n,
            ops_done=done,
            work_done=done,
            stopwatch=stopwatch,
            decisions=self.samples,
            digest=trace_digest(trace.flow_records),
            bytes_injected=self.injected,
            bytes_delivered=self.engine.network.bytes_delivered,
            outputs={"sim_makespan_s": trace.end_time},
        )


# ----------------------------------------------------------------------
# Table-1 job mix on a fat tree
# ----------------------------------------------------------------------

#: (paradigm, workers): dp and fsdp on 8 workers, pp and tp on 4.
MIX = (("dp", 8), ("fsdp", 8), ("pp", 4), ("tp", 4))
MIX_RATE = 30.0


class FatTreeMix:
    """Table-1 jobs arriving at 30/s on ``fat_tree(8)`` with ECMP, echelon.

    Jobs arrive one per 1/30-s slot, at a seeded uniform offset in the
    middle half of the slot, in round-robin paradigm order. The overlap
    between jobs sets the scheduling work: with offsets over the whole
    slot its interquartile range is 15% of its median from one input to
    the next, with the middle half 7%, and a Poisson process with seeded
    template picks would vary it more.
    ``observed=True`` adds the stack the CLI's ``--metrics-out
    --events-out`` flags install and builds the metrics report in memory.
    """

    def __init__(self, jobs: int, iterations: int, observed: bool) -> None:
        self.jobs = jobs
        self.iterations = iterations
        self.observed = observed

    def ops(self, smoke: bool) -> int:
        return 4 if smoke else self.jobs

    def setup(self, rng: random.Random, smoke: bool, clock: Clock) -> None:
        count = self.ops(smoke)
        self.clock = clock
        allocator = FlowIdAllocator()
        self.built = []

        def builder(paradigm):
            def build(job_id, workers):
                # Jobs are built on admission, inside Engine.run().
                with use_flow_id_allocator(allocator):
                    job = whatif_workload.build_paradigm_job(
                        paradigm, job_id, workers, iterations=self.iterations
                    )
                self.built.append(job)
                return job

            return build

        templates = {
            paradigm: JobTemplate(paradigm, builder(paradigm), worker_count=workers)
            for paradigm, workers in MIX
        }
        arrivals = []
        for index in range(count):
            paradigm = MIX[index % len(MIX)][0]
            arrivals.append(
                Arrival(
                    time=(index + 0.25 + 0.5 * rng.random()) / MIX_RATE,
                    template=templates[paradigm],
                    job_id=f"{paradigm}-{index}",
                )
            )

        topology = fat_tree(8, gbps(10))
        self.samples: List[Tuple[float, int]] = []
        scheduler = make_scheduler("echelon")
        self.obs = self.profiler = None
        if self.observed:
            self.obs = Instrumentation(event_log=JsonlEventLog())
            scheduler = self.profiler = ProfiledScheduler(
                scheduler, registry=self.obs.registry, event_log=self.obs.event_log
            )
        with use_flow_id_allocator(allocator):
            self.engine = Engine(
                topology,
                TimedScheduler(scheduler, self.samples, clock),
                router=EcmpRouter(topology),
                instrumentation=self.obs,
                sanitizer=False,
            )
        self.manager = ClusterManager(self.engine, ClusterPlacer(topology))
        self.manager.schedule(arrivals)
        self.count = count

    def measure(self) -> Measured:
        problems = []
        with Stopwatch(self.clock) as stopwatch:
            trace = self.engine.run()
            if self.observed:
                report = obs_report.build_metrics_report(
                    trace,
                    instrumentation=self.obs,
                    profiler=self.profiler,
                    scheduler_invocations=self.engine.scheduler_invocations,
                )
        if self.observed and report["scheduler"]["invocations"] != len(self.samples):
            problems.append("metrics report disagrees on the decision count")
        records = self.manager.completed_records()
        outputs = {"sim_makespan_s": trace.end_time}
        if records:
            outputs["sim_jct_mean_s"] = self.manager.mean_jct()
        return Measured(
            ops=self.count,
            ops_done=len(records),
            work_done=len(trace.flow_records),
            stopwatch=stopwatch,
            decisions=self.samples,
            digest=trace_digest(trace.flow_records),
            bytes_injected=sum(
                flow.size for job in self.built for flow in job.dag.all_flows()
            ),
            bytes_delivered=self.engine.network.bytes_delivered,
            outputs=outputs,
            problems=problems,
        )


# ----------------------------------------------------------------------
# what-if sweep over forks of one baseline
# ----------------------------------------------------------------------

#: Query marks fall in this share of the baseline makespan, one per
#: equal-width stratum of each query kind. A query's cost grows with the
#: run left after its mark and with the gap back to the nearest cached
#: handle, so only the priming marks are drawn (20-40% into their
#: stratum) and the measured batch asks each question a fixed
#: :data:`MEASURED_SHIFT` of a stratum later.
MARK_RANGE = (40.0, 95.0)
MEASURED_SHIFT = 0.4


def draw_offsets(rng: random.Random, per_kind: int) -> List[float]:
    """Where inside its stratum each of the ``3 * per_kind + 2`` queries falls."""
    return [0.2 + 0.2 * rng.random() for _ in range(3 * per_kind + 2)]


def build_queries(offsets: List[float], arrivals: Dict[str, float], shift: float) -> List[str]:
    """Queries of all five kinds, one per offset, each moved ``shift`` of a stratum."""
    per_kind = (len(offsets) - 2) // 3
    low, high = MARK_RANGE
    marks = []
    for index, offset in enumerate(offsets[:-1]):
        strata = per_kind if index < 3 * per_kind else 1
        width = (high - low) / strata
        marks.append(low + width * (index % strata + offset + shift))
    queries = [f"degrade_link:h1-core@{m:.4f}%+8%,factor=0.5" for m in marks[:per_kind]]
    queries += [f"kill_link:h2-core@{m:.4f}%+5%" for m in marks[per_kind:2 * per_kind]]
    queries += [f"submit_job:dp@{m:.4f}%" for m in marks[2 * per_kind:3 * per_kind]]
    queries.append(f"add_tenant:fsdp@{marks[-1]:.4f}%,jobs=2")
    # remove_job cancels a job whose arrival is still pending: the last
    # arrival, at a time before it.
    last = max(arrivals, key=lambda job: (arrivals[job], job))
    queries.append(f"remove_job:{last}@{(offsets[-1] + shift) * arrivals[last]:.6f}")
    return queries


class WhatIfSweep:
    """Warm what-if queries against one 16-host baseline.

    Set-up builds the service (the baseline run) and answers one priming
    batch, which fills the handle timeline and the memo cache. The
    measured batch asks the same questions at later marks, so it forks
    from the nearest cached handle, resimulates the gap, snapshots the
    result and replays cached decisions where the inputs match.
    """

    def __init__(self, jobs: int, per_kind: int) -> None:
        self.jobs = jobs
        self.per_kind = per_kind

    def _shape(self, smoke: bool) -> Tuple[int, int, int]:
        """(jobs, iterations, queries per kind)."""
        return (4, 1, 1) if smoke else (self.jobs, 2, self.per_kind)

    def ops(self, smoke: bool) -> int:
        return 3 * self._shape(smoke)[2] + 2

    def setup(self, rng: random.Random, smoke: bool, clock: Clock) -> None:
        self.clock = clock
        self.samples: List[Tuple[float, int]] = []
        jobs, iterations, per_kind = self._shape(smoke)

        def factory():
            engine, arrivals = whatif_workload.cluster_engine_factory(
                hosts=16, jobs=jobs, iterations=iterations, sanitizer=False
            )
            engine.scheduler = TimedScheduler(engine.scheduler, self.samples, clock)
            return engine, arrivals

        self.service = WhatIfService(factory)
        offsets = draw_offsets(rng, per_kind)
        arrivals = self.service.arrivals
        self.service.run_batch(build_queries(offsets, arrivals, 0.0), detail="deltas")
        self.queries = build_queries(offsets, arrivals, MEASURED_SHIFT)

    def measure(self) -> Measured:
        service = self.service
        del self.samples[:]
        with Stopwatch(self.clock) as stopwatch:
            results = service.run_batch(self.queries, detail="deltas")
        makespans = [r.variant_makespan for r in results]
        answered = sum(1 for m in makespans if math.isfinite(m))
        baseline = service.baseline_trace
        digest = hashlib.sha256(
            repr((trace_digest(baseline.flow_records), makespans)).encode()
        ).hexdigest()
        problems = []
        if sorted(service.engine.completed_jobs) != sorted(service.arrivals):
            problems.append("baseline run left jobs incomplete")
        return Measured(
            ops=len(self.queries),
            ops_done=answered,
            work_done=answered,
            stopwatch=stopwatch,
            decisions=self.samples,
            digest=digest,
            bytes_injected=sum(r.flow.size for r in baseline.flow_records),
            bytes_delivered=service.engine.network.bytes_delivered,
            outputs={"sim_makespan_s": sum(makespans) / len(makespans)},
            problems=problems,
        )


#: Workload name -> factory. Why each is here: ``BENCHMARK.json`` and README.md.
WORKLOADS = {
    "bg_fair_30k": lambda: Background("fair", 30_000, 3_000, tick=0.05),
    "bg_echelon_10k": lambda: Background("echelon", 10_000, 1_000, tick=0.2),
    "fattree_mix": lambda: FatTreeMix(16, 1, observed=False),
    "fattree_mix_obs": lambda: FatTreeMix(16, 1, observed=True),
    "whatif_sweep": lambda: WhatIfSweep(6, 5),
}

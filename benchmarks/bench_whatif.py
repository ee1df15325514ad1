#!/usr/bin/env python
"""What-if query throughput: warm forks vs. from-scratch replays.

Builds one :class:`repro.whatif.WhatIfService` over the standard
multi-tenant big-switch baseline (16 hosts, 8 staggered jobs, 2
iterations each) and answers the same deterministic query sweep two
ways:

* **warm** -- fork the nearest cached snapshot at or before the query
  time, delta-resimulate the gap, apply the intervention, run the tail.
  Sibling forks share the baseline's MemoizingScheduler fingerprint
  cache, so a repeated allocation costs its fingerprint and a lookup,
  not an inner solve.
* **cold** -- rebuild the whole cluster from scratch and replay from
  t=0 for every query (what answering counterfactuals costs without
  the snapshot spine).

The sweep visits late-run marks (50-90% of the baseline makespan, where
warm starts skip the most history) across all five query kinds, with
``detail="deltas"`` in both arms so the measured cost is simulation, not
report rendering. The first warm pass primes the handle cache and is
reported separately (``warm_first_pass``); steady state is what a
dashboard issuing repeated what-ifs against a fixed baseline sees.

Usage::

    PYTHONPATH=src python benchmarks/bench_whatif.py            # full report
    PYTHONPATH=src python benchmarks/bench_whatif.py --smoke    # CI guard

It also times one :meth:`Engine.fork` with the baseline paused at 10%,
50% and 90% of its makespan (``fork_ms``). A fork copies the live run
state, so its cost must track the live flows, not how much history the
run has retired; ``fork_scaling`` is the 90% time over the 10% time.

It then answers the sweep once more, warm, with timers wrapped around
``MemoizingScheduler._fingerprint`` and the inner scheduler's
``allocate`` (patched on their classes for that pass only, so the timed
passes above carry no timers). ``memo_ratio`` is fingerprint seconds
over inner-solve seconds: what the memo costs against the solves it
wraps.

``--smoke`` answers a reduced sweep and guards three ratios against the
checked-in baseline (``benchmarks/results/bench_whatif_baseline.json``):

* the steady-state warm/cold *speedup*, which fails below
  baseline / ``SMOKE_FACTOR`` or below the 5x floor;
* ``fork_scaling``, which fails above baseline x ``SMOKE_FACTOR``: a
  fork that copies every retired flow again reads about 10 here;
* ``memo_ratio``, which fails above baseline x ``SMOKE_FACTOR``. The
  per-flow fingerprint this one replaced (every value of every flow
  quantized, every deadline resolved per flow) reads about 1.7x the
  baseline, so the guard catches a fingerprint that grows costlier
  than that, not a plain return to it.

Ratios are machine-independent to first order: the guards fail when the
warm path or the fork itself regresses, not when CI hardware is slow.
Warm and cold answers are also cross-checked per query. Exit code 1 on
regression or mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.scheduling import MemoizingScheduler
from repro.whatif import WhatIfService

RESULTS_DIR = ROOT / "benchmarks" / "results"
REPORT_PATH = RESULTS_DIR / "bench_whatif.json"
BASELINE_PATH = RESULTS_DIR / "bench_whatif_baseline.json"

HOSTS = 16
JOBS = 8
ITERATIONS = 2
#: Steady-state passes over the sweep (first warm pass primes the
#: handle cache and is excluded from the steady-state rate).
PASSES = 3
#: Pause points (percent of the baseline makespan) for the fork timing,
#: and interleaved forks timed per point.
FORK_MARKS = (10, 50, 90)
FORK_REPS = 21
#: --smoke fails when the warm/cold speedup drops below
#: baseline_speedup / SMOKE_FACTOR, or fork_scaling or memo_ratio rises
#: above its baseline * SMOKE_FACTOR ...
SMOKE_FACTOR = 2.0
#: ... or below this absolute floor (the acceptance bar), whichever is
#: stricter.
MIN_SPEEDUP = 5.0


def build_queries() -> list:
    """A deterministic sweep: every kind, late-run marks."""
    queries = []
    for mark in (50, 60, 70, 80, 90):
        queries.append(f"degrade_link:h1-core@{mark}%+8%,factor=0.5")
        queries.append(f"kill_link:h2-core@{mark}%+5%")
        queries.append(f"submit_job:dp@{mark}%")
    queries.append("add_tenant:fsdp@70%,jobs=2")
    queries.append("remove_job:fsdp7@0")
    return queries


def timed_pass(service: WhatIfService, queries, mode: str):
    start = time.perf_counter()
    results = service.run_batch(queries, mode=mode, detail="deltas")
    elapsed = time.perf_counter() - start
    return elapsed, results


def cross_check(warm_results, cold_results) -> list:
    """Warm forks and cold replays must answer identically (to the memo
    cache's fingerprint quantum, 1 part in 1e9)."""
    problems = []
    for warm, cold in zip(warm_results, cold_results):
        scale = max(1.0, abs(cold.variant_makespan))
        if abs(warm.variant_makespan - cold.variant_makespan) > 1e-9 * scale:
            problems.append(
                f"{warm.query.describe()!r}: warm makespan "
                f"{warm.variant_makespan!r} != cold {cold.variant_makespan!r}"
            )
        if warm.added_jobs != cold.added_jobs or (
            warm.removed_jobs != cold.removed_jobs
        ):
            problems.append(
                f"{warm.query.describe()!r}: job-set deltas differ"
            )
    return problems


def fork_times(service: WhatIfService) -> dict:
    """Median seconds of one ``Engine.fork()`` per pause mark.

    One engine is paused at each mark first; the forks are then timed
    round-robin across the marks, so drift in machine speed lands on
    every mark alike. Each fork is dropped before the next.
    """
    paused = {}
    for mark in FORK_MARKS:
        engine = service.engine.fork(service.genesis)
        engine.run(until=service.baseline_makespan * mark / 100.0)
        paused[mark] = engine
    samples = {mark: [] for mark in FORK_MARKS}
    gc.collect()
    for _ in range(FORK_REPS):
        for mark, engine in paused.items():
            start = time.perf_counter()
            engine.fork()
            samples[mark].append(time.perf_counter() - start)
    return {mark: statistics.median(times) for mark, times in samples.items()}


def memo_ratio(service: WhatIfService, queries) -> float:
    """Fingerprint seconds over inner-solve seconds, over one warm pass.

    The timers are patched onto the classes for this pass only and
    removed after it, so no other pass pays for them.
    """
    spent = {"_fingerprint": 0.0, "allocate": 0.0}
    inner_class = type(service.engine.scheduler.inner)
    patched = [(MemoizingScheduler, "_fingerprint"), (inner_class, "allocate")]
    originals = [getattr(owner, name) for owner, name in patched]

    def timed(function, name):
        def wrapper(self, view):
            start = time.perf_counter()
            try:
                return function(self, view)
            finally:
                spent[name] += time.perf_counter() - start

        return wrapper

    for (owner, name), function in zip(patched, originals):
        setattr(owner, name, timed(function, name))
    try:
        timed_pass(service, queries, "warm")
    finally:
        for (owner, name), function in zip(patched, originals):
            setattr(owner, name, function)
    return spent["_fingerprint"] / spent["allocate"]


def run_bench(queries, passes: int) -> dict:
    build_start = time.perf_counter()
    # The sanitizer is forced off: this benchmark measures the fork/replay
    # hot path, and CI runs it in the job that sets REPRO_CHECK=strict.
    service = WhatIfService.build(
        hosts=HOSTS, jobs=JOBS, iterations=ITERATIONS, sanitizer=False
    )
    build_seconds = time.perf_counter() - build_start
    print(
        f"[bench_whatif] baseline: {HOSTS} hosts, {JOBS} jobs, makespan "
        f"{service.baseline_makespan:.3f}s sim, built in {build_seconds:.3f}s",
        flush=True,
    )

    first_seconds, warm_results = timed_pass(service, queries, "warm")
    print(
        f"[bench_whatif] warm first pass (cache priming): "
        f"{len(queries) / first_seconds:.2f} queries/s",
        flush=True,
    )
    steady_seconds = 0.0
    for _ in range(passes):
        elapsed, warm_results = timed_pass(service, queries, "warm")
        steady_seconds += elapsed
    warm_qps = len(queries) * passes / steady_seconds
    print(f"[bench_whatif] warm steady state: {warm_qps:.2f} queries/s", flush=True)

    cold_seconds, cold_results = timed_pass(service, queries, "cold")
    cold_qps = len(queries) / cold_seconds
    print(f"[bench_whatif] cold from-scratch: {cold_qps:.2f} queries/s", flush=True)

    problems = cross_check(warm_results, cold_results)
    if problems:
        raise SystemExit(
            "warm/cold answer mismatch:\n  " + "\n  ".join(problems)
        )

    speedup = warm_qps / cold_qps
    print(f"[bench_whatif] speedup: {speedup:.2f}x", flush=True)

    memo = memo_ratio(service, queries)
    print(
        f"[bench_whatif] memo_ratio (fingerprint / inner solve): {memo:.3f}",
        flush=True,
    )

    forks = fork_times(service)
    fork_scaling = forks[FORK_MARKS[-1]] / forks[FORK_MARKS[0]]
    print(
        "[bench_whatif] Engine.fork(): "
        + ", ".join(f"{seconds * 1e3:.2f} ms at {mark}%" for mark, seconds in forks.items())
        + f"; fork_scaling {fork_scaling:.2f}",
        flush=True,
    )
    return {
        "benchmark": "bench_whatif",
        "scenario": {
            "hosts": HOSTS,
            "jobs": JOBS,
            "iterations": ITERATIONS,
            "queries": len(queries),
            "passes": passes,
            "detail": "deltas",
        },
        "baseline_makespan": service.baseline_makespan,
        "baseline_build_seconds": round(build_seconds, 6),
        "warm_first_pass_qps": round(len(queries) / first_seconds, 4),
        "warm_qps": round(warm_qps, 4),
        "cold_qps": round(cold_qps, 4),
        "speedup": round(speedup, 3),
        "cached_handles": len(service._handles),
        "fork_ms": {str(mark): round(seconds * 1e3, 4) for mark, seconds in forks.items()},
        "fork_scaling": round(fork_scaling, 3),
        "memo_ratio": round(memo, 3),
    }


def smoke() -> int:
    """CI guard: the warm path must stay >= 5x and near its baseline, a
    late fork must cost about what an early one does, and the memo must
    cost about what it did against the solves it wraps."""
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except FileNotFoundError:
        print(f"[bench_whatif] missing baseline {BASELINE_PATH}", file=sys.stderr)
        return 1
    report = run_bench(build_queries(), passes=1)
    status = 0
    floor = max(MIN_SPEEDUP, baseline["speedup"] / SMOKE_FACTOR)
    print(
        f"[bench_whatif] smoke: speedup {report['speedup']:.2f}x, baseline "
        f"{baseline['speedup']:.2f}x, required >= {floor:.2f}x"
    )
    if report["speedup"] < floor:
        print(
            f"[bench_whatif] REGRESSION: warm/cold speedup "
            f"{report['speedup']:.2f}x is below {floor:.2f}x "
            f"(baseline {baseline['speedup']:.2f}x / {SMOKE_FACTOR}, "
            f"floor {MIN_SPEEDUP}x)",
            file=sys.stderr,
        )
        status = 1
    ceiling = baseline["fork_scaling"] * SMOKE_FACTOR
    print(
        f"[bench_whatif] smoke: fork_scaling {report['fork_scaling']:.2f}, "
        f"baseline {baseline['fork_scaling']:.2f}, required <= {ceiling:.2f}"
    )
    if report["fork_scaling"] > ceiling:
        print(
            f"[bench_whatif] REGRESSION: a fork at {FORK_MARKS[-1]}% of the "
            f"makespan costs {report['fork_scaling']:.2f}x one at "
            f"{FORK_MARKS[0]}%, above {ceiling:.2f} (baseline "
            f"{baseline['fork_scaling']:.2f} x {SMOKE_FACTOR}): forks are "
            f"copying retired history again",
            file=sys.stderr,
        )
        status = 1
    ceiling = baseline["memo_ratio"] * SMOKE_FACTOR
    print(
        f"[bench_whatif] smoke: memo_ratio {report['memo_ratio']:.3f}, "
        f"baseline {baseline['memo_ratio']:.3f}, required <= {ceiling:.3f}"
    )
    if report["memo_ratio"] > ceiling:
        print(
            f"[bench_whatif] REGRESSION: the memo fingerprint costs "
            f"{report['memo_ratio']:.3f}x the inner solves it wraps, above "
            f"{ceiling:.3f} (baseline {baseline['memo_ratio']:.3f} x "
            f"{SMOKE_FACTOR})",
            file=sys.stderr,
        )
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--passes", type=int, default=PASSES,
        help="steady-state warm passes over the sweep",
    )
    parser.add_argument(
        "--out", default=str(REPORT_PATH), help="JSON report destination"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="regression guard against the checked-in baseline",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()

    report = run_bench(build_queries(), passes=args.passes)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_whatif] report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

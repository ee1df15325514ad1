#!/usr/bin/env python
"""Scale sweep: the scalar vs. the vectorized max-min kernel.

Sweeps the number of simultaneously-active flows (default 100 -> 100k) on
a multi-job big-switch scenario and times a full engine run per
``allocation`` choice: ``scalar`` (the pure-Python waterfilling kernel)
and ``vector`` (the numpy waterfilling kernel over interned dense
incidence plus bulk ``set_rates``). Both run on the same hot path --
finish-time heap, residual link accounting, dirty-set rates, persistent
scheduler view -- and produce the same simulation by construction; every
point cross-checks bit-identity through a normalized per-flow trace
digest before recording wall-clock seconds and the speedup. ``--huge``
appends a best-effort 1M-flow point (budget an hour).

The scenario is shaped so the hot path dominates: all flows are injected
up front (one arrival round), the engine runs in scheduling-interval mode
(so the coordinator reruns on ticks, not per departure), and flow sizes
are drawn from a seeded RNG so the n completions stagger into n separate
rounds.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py                 # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --sizes 100,1000
    PYTHONPATH=src python benchmarks/bench_scale.py --huge          # adds 1M
    PYTHONPATH=src python benchmarks/bench_scale.py --fabric fat_tree --sizes 300,1000

``--fabric fat_tree`` runs the same traffic on ``fat_tree(8)`` (128
hosts, 2- to 6-link ECMP paths) instead of the 64-host big switch (2-link
paths); the smoke guards always use the big switch.
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke         # CI guard

``--smoke`` runs small points a few times and compares four *time
ratios* -- each the median over ``SMOKE_REPEATS`` attempts -- against the
checked-in baseline (``benchmarks/results/bench_scale_baseline.json``):

* ``instrumented_ratio``: instrumented-scalar / scalar at
  ``VECTOR_SMOKE_FLOWS`` flows (the full observability stack must stay
  cheap; at a few hundred flows the runs are too short to time),
* ``vector_ratio``: vector / scalar at ``VECTOR_SMOKE_FLOWS`` flows
  (the vector kernel must stay ahead of the scalar kernel at a size past
  the auto-select threshold),
* ``echelon_ratio``: echelon / fair at ``ECHELON_SMOKE_FLOWS`` flows, each
  on the kernel the engine's default mode picks at that size (the
  scalar scheduler kernels for echelon, the vector max-min kernel for
  fair): the paper's scheduler -- stage Gamma, MADD pacing and greedy
  backfill -- must stay within reach of the fair-share baseline,
* ``report_ratio``: building the metrics report / the instrumented run
  it reports on, for ``REPORT_SMOKE_JOBS`` Table-1 jobs (dp, fsdp, pp,
  tp) on ``fat_tree(4)`` with ECMP under echelon: tardiness attribution
  over DAG traffic must stay a fraction of the run it explains.

Ratios are machine-independent to first order, so the step fails only
when a layer itself regresses (> 2x its baseline ratio; > 1.5x for
``instrumented_ratio`` and ``echelon_ratio``), not when CI hardware is
slow -- and the failure message names the regressed layer.
Exit code 1 on regression or equivalence mismatch.

See ``docs/performance.md`` for how to read the JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.flow import Flow, FlowIdAllocator, use_flow_id_allocator
from repro.scheduling import EchelonMaddScheduler, FairSharingScheduler
from repro.simulator import Engine
from repro.topology import big_switch, fat_tree
from repro.topology.routing import EcmpRouter

RESULTS_DIR = ROOT / "benchmarks" / "results"
REPORT_PATH = RESULTS_DIR / "bench_scale.json"
BASELINE_PATH = RESULTS_DIR / "bench_scale_baseline.json"

N_HOSTS = 64
N_JOBS = 8
GROUP_SIZE = 16
#: Coordinator rerun tick (interval mode); sized so a run sees roughly
#: ten ticks: enough coordinator reruns that the allocation path -- what
#: the vector kernel accelerates -- is a first-class term of the
#: scalar-vs-vector comparison at every scale instead of being amortized
#: away over a 2-simulated-second horizon.
TICK = 0.2
#: The best-effort point ``--huge`` appends.
HUGE_FLOWS = 1_000_000
#: Regression threshold for --smoke: fail when a guard's median time
#: ratio exceeds the checked-in baseline ratio by more than this ...
SMOKE_FACTOR = 2.0
#: ... or by more than the guard's own, tighter factor. The
#: instrumentation guard's 1.5x (limit 1.85 on its 1.232 baseline) was
#: set after ten smoke medians on the tree that set it cleared the limit
#: by at least 25% (docs/performance.md, "The CI smoke").
INSTRUMENTED_FACTOR = 1.5
#: The echelon guard's 1.5x keeps its limit (2.20 on the 1.466 baseline,
#: the median of ten smoke medians) under the 2.30 that 2x gave on the
#: stale 1.15 baseline; the highest of those ten medians, 1.626, clears
#: it by 35%.
ECHELON_FACTOR = 1.5
#: The vector and instrumentation guards' size: past the auto-select
#: threshold, so the vector guard measures the kernel the engine would
#: actually pick, and long enough a run (about a second scalar) that
#: the instrumentation ratio is not timer noise.
VECTOR_SMOKE_FLOWS = 4000
#: The echelon guard's size: enough flows per decision that the
#: scheduler kernels, not the event loop, set the echelon run time, and
#: past the auto-select threshold, so fair share runs its vector kernel.
ECHELON_SMOKE_FLOWS = 4000
#: The report guard's size: Table-1 jobs of 2 iterations on a 16-host
#: fat tree, about 3,300 flows sharing a few dozen links.
REPORT_SMOKE_JOBS = 16
SMOKE_REPEATS = 3

MODES = ("scalar", "vector")
FABRICS = ("big_switch", "fat_tree")
#: Arity of the ``fat_tree`` fabric: k^3/4 = 128 hosts.
FAT_TREE_K = 8


def _make_scheduler(name: str):
    if name == "fair":
        return FairSharingScheduler()
    if name == "echelon":
        return EchelonMaddScheduler()
    raise ValueError(f"unknown scheduler {name!r} (choose fair or echelon)")


def build_engine(
    n_flows: int,
    mode: str,
    seed: int,
    scheduler: str,
    instrumentation=None,
    fabric: str = "big_switch",
) -> Engine:
    """A multi-job all-to-all scenario with ``n_flows`` concurrent flows.

    Host bandwidth scales with n so each flow's fair rate stays ~1 and
    the simulated horizon stays ~O(1) regardless of scale. Flows carry
    job ids and group ids (8 jobs, 16-flow groups) so the network's
    group-bucket maintenance is part of what gets measured.
    """
    if mode not in MODES:
        raise ValueError(f"unknown allocation mode {mode!r} (choose from {MODES})")
    router = None
    if fabric == "big_switch":
        n_hosts = N_HOSTS
        bandwidth = max(1.0, n_flows / n_hosts)
        topology = big_switch(n_hosts, host_bandwidth=bandwidth, name="bench-scale")
    elif fabric == "fat_tree":
        n_hosts = FAT_TREE_K**3 // 4
        topology = fat_tree(FAT_TREE_K, max(1.0, n_flows / n_hosts))
        router = EcmpRouter(topology)
    else:
        raise ValueError(f"unknown fabric {fabric!r} (choose from {FABRICS})")
    engine = Engine(
        topology,
        _make_scheduler(scheduler),
        router=router,
        scheduling_interval=TICK,
        allocation=mode,
        instrumentation=instrumentation,
        # The sanitizer (repro.check) is forced off regardless of any
        # REPRO_CHECK in the environment: this benchmark measures the bare
        # hot path, and CI runs it in the same job that sets REPRO_CHECK
        # for the test suite. With check=None each hook site costs one
        # attribute test, which sits on the measured path -- so the
        # ratio guards in --smoke also catch any disabled-sanitizer
        # overhead creeping into the engine spine.
        sanitizer=False,
    )
    rng = random.Random(seed)
    # Ids from 0 in every engine: ECMP hashes the flow id, so kernels
    # compared on fat_tree must draw the same ids to take the same paths.
    with use_flow_id_allocator(FlowIdAllocator()):
        for i in range(n_flows):
            src = i % n_hosts
            dst = (i + 1 + (i // n_hosts) % (n_hosts - 1)) % n_hosts
            if dst == src:
                dst = (dst + 1) % n_hosts
            job = i % N_JOBS
            engine.inject_background_flow(
                Flow(
                    src=f"h{src}",
                    dst=f"h{dst}",
                    size=1.0 + rng.random(),
                    group_id=f"job{job}/g{i // (N_JOBS * GROUP_SIZE)}",
                    index_in_group=(i // N_JOBS) % GROUP_SIZE,
                    job_id=f"job{job}",
                    tag="bench",
                ),
                at_time=0.0,
            )
    return engine


def _trace_digest(trace) -> str:
    """A stable digest of the per-flow schedule, id-normalized.

    Flow ids come from a process-global allocator, so two engines built
    for the same scenario hold different absolute ids; subtracting each
    trace's smallest id makes the digests comparable. Start/finish times
    are hashed at full ``repr`` precision, so two runs share a digest
    only when every flow's schedule agrees bit for bit.
    """
    records = trace.flow_records
    if not records:
        return hashlib.sha256(b"empty").hexdigest()
    base = min(record.flow.flow_id for record in records)
    normalized = sorted(
        (record.flow.flow_id - base, record.start, record.finish)
        for record in records
    )
    return hashlib.sha256(repr(normalized).encode()).hexdigest()


def run_once(
    n_flows: int,
    mode: str,
    seed: int,
    scheduler: str,
    instrumented: bool = False,
    fabric: str = "big_switch",
) -> dict:
    instrumentation = None
    if instrumented:
        from repro.obs import Instrumentation, JsonlEventLog

        # The full recording stack the CLI obs flags would install.
        instrumentation = Instrumentation(event_log=JsonlEventLog())
    engine = build_engine(
        n_flows, mode, seed, scheduler, instrumentation=instrumentation, fabric=fabric
    )
    start = time.perf_counter()
    trace = engine.run()
    elapsed = time.perf_counter() - start
    return {
        "mode": mode,
        "scheduler": scheduler,
        "seconds": elapsed,
        "completed": len(trace.flow_records),
        "end_time": trace.end_time,
        "bytes_delivered": engine.network.bytes_delivered,
        "scheduler_invocations": engine.scheduler_invocations,
        "trace_digest": _trace_digest(trace),
    }


def report_once(jobs: int, seed: int) -> dict:
    """Time an observed Table-1 job mix, then its metrics report.

    ``jobs`` jobs cycle through dp, fsdp, pp and tp on four workers each
    of ``fat_tree(4)`` with ECMP routing under the echelon scheduler,
    arriving 10 ms apart plus a seeded jitter, with the recording stack
    the CLI obs flags install.
    """
    from repro.core.units import gbps
    from repro.obs import Instrumentation, JsonlEventLog
    from repro.obs.report import build_metrics_report
    from repro.topology import fat_tree
    from repro.topology.routing import EcmpRouter
    from repro.whatif.workload import build_paradigm_job

    rng = random.Random(seed)
    instrumentation = Instrumentation(event_log=JsonlEventLog())
    topology = fat_tree(4, gbps(10))
    engine = Engine(
        topology,
        EchelonMaddScheduler(),
        router=EcmpRouter(topology),
        instrumentation=instrumentation,
        sanitizer=False,
    )
    hosts = topology.hosts
    for j in range(jobs):
        paradigm = ("dp", "fsdp", "pp", "tp")[j % 4]
        workers = [hosts[(j + 5 * k) % len(hosts)] for k in range(4)]
        job = build_paradigm_job(
            paradigm, f"{paradigm}-{j}", workers, layers=4, iterations=2
        )
        job.submit_to(engine, at_time=0.01 * j + 0.005 * rng.random())
    start = time.perf_counter()
    trace = engine.run()
    run_seconds = time.perf_counter() - start
    start = time.perf_counter()
    report = build_metrics_report(
        trace,
        instrumentation=instrumentation,
        scheduler_invocations=engine.scheduler_invocations,
    )
    return {
        "seconds": run_seconds,
        "report_seconds": time.perf_counter() - start,
        "completed": len(trace.flow_records),
        "attributed": report["diagnosis"]["coverage"]["with_rate_data"],
    }


def _check_equivalent(n_flows: int, a: dict, b: dict) -> list:
    """Both modes must have simulated the identical run, bit for bit."""
    mode_a, mode_b = a["mode"], b["mode"]
    problems = []
    if a["completed"] != b["completed"] or a["completed"] != n_flows:
        problems.append(
            f"completions differ: {mode_a}={a['completed']} "
            f"{mode_b}={b['completed']} expected={n_flows}"
        )
    if a["end_time"] != b["end_time"]:
        problems.append(
            f"end_time differs: {mode_a}={a['end_time']!r} "
            f"{mode_b}={b['end_time']!r}"
        )
    if a["scheduler_invocations"] != b["scheduler_invocations"]:
        problems.append(
            f"scheduler invocations differ: {mode_a}="
            f"{a['scheduler_invocations']} {mode_b}="
            f"{b['scheduler_invocations']}"
        )
    if a["trace_digest"] != b["trace_digest"]:
        problems.append(
            f"per-flow trace digest differs ({mode_a} vs {mode_b}): the "
            f"modes disagree on some flow's start/finish at full float "
            f"precision"
        )
    # Bytes accumulate in different orders between the kernels (bulk vs.
    # per-flow rate application): equal only up to float association.
    scale = max(1.0, abs(a["bytes_delivered"]))
    if abs(a["bytes_delivered"] - b["bytes_delivered"]) > 1e-6 * scale:
        problems.append(
            f"bytes_delivered differ: {mode_a}={a['bytes_delivered']!r} "
            f"{mode_b}={b['bytes_delivered']!r}"
        )
    return problems


def sweep(sizes, seed: int, scheduler: str, fabric: str = "big_switch") -> dict:
    points = []
    for n_flows in sizes:
        runs = {}
        for mode in MODES:
            print(f"[bench_scale] n={n_flows}: {mode} ...", flush=True)
            runs[mode] = run_once(
                n_flows, mode, seed=seed, scheduler=scheduler, fabric=fabric
            )
            print(
                f"[bench_scale] n={n_flows}: {mode} "
                f"{runs[mode]['seconds']:.3f}s",
                flush=True,
            )
        problems = _check_equivalent(n_flows, runs["scalar"], runs["vector"])
        if problems:
            raise SystemExit(
                "mode equivalence violated at n=%d:\n  %s"
                % (n_flows, "\n  ".join(problems))
            )
        scalar_s = runs["scalar"]["seconds"]
        vec_s = runs["vector"]["seconds"]
        point = {
            "n_flows": n_flows,
            "scalar_seconds": round(scalar_s, 6),
            "vector_seconds": round(vec_s, 6),
            "vector_speedup": round(scalar_s / vec_s, 2) if vec_s > 0 else None,
            "completed_flows": runs["scalar"]["completed"],
            "sim_end_time": runs["scalar"]["end_time"],
            "scheduler_invocations": runs["scalar"]["scheduler_invocations"],
            "trace_digest": runs["scalar"]["trace_digest"],
        }
        print(
            f"[bench_scale] n={n_flows}: vector speedup "
            f"{point['vector_speedup']}x over scalar",
            flush=True,
        )
        points.append(point)
    top = max(points, key=lambda p: p["n_flows"])
    return {
        "benchmark": "bench_scale",
        "scenario": {
            "topology": (
                f"big_switch({N_HOSTS})"
                if fabric == "big_switch"
                else f"fat_tree({FAT_TREE_K}) + ECMP"
            ),
            "scheduler": scheduler,
            "scheduling_interval": TICK,
            "jobs": N_JOBS,
            "group_size": GROUP_SIZE,
            "seed": seed,
        },
        "sweep": points,
        "top": {
            "n_flows": top["n_flows"],
            "vector_speedup": top["vector_speedup"],
        },
    }


def _guard(
    name: str, median_ratio: float, baseline_ratio, factor: float = SMOKE_FACTOR
) -> bool:
    """One named ratio guard; prints the verdict, True when it passes."""
    if baseline_ratio is None:
        print(
            f"[bench_scale] smoke: no baseline for {name}; skipping its guard"
        )
        return True
    allowed = factor * baseline_ratio
    print(
        f"[bench_scale] smoke [{name}]: median ratio {median_ratio:.3f}, "
        f"baseline {baseline_ratio:.3f}, allowed <= {allowed:.3f}"
    )
    if median_ratio > allowed:
        print(
            f"[bench_scale] REGRESSION in {name}: median time ratio "
            f"{median_ratio:.3f} exceeds {factor}x the baseline "
            f"({baseline_ratio:.3f})",
            file=sys.stderr,
        )
        return False
    return True


def smoke(seed: int, scheduler: str) -> int:
    """CI guard: fail -- naming the layer -- when a guarded ratio regresses."""
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except FileNotFoundError:
        print(f"[bench_scale] missing baseline {BASELINE_PATH}", file=sys.stderr)
        return 1
    # Benchmark hygiene: no sanitizer may ride along with the timed
    # engines, REPRO_CHECK or not -- otherwise the ratios measure the
    # checker, not the core.
    probe = build_engine(8, "scalar", seed=seed, scheduler=scheduler)
    if probe.check is not None:
        print(
            "[bench_scale] smoke FAILED: sanitizer attached to a benchmark "
            "engine (engine.check should be None)",
            file=sys.stderr,
        )
        return 1
    instr_ratios = []
    vector_ratios = []
    echelon_ratios = []
    report_ratios = []
    for attempt in range(SMOKE_REPEATS):
        vec_base = run_once(
            VECTOR_SMOKE_FLOWS, "scalar", seed=seed, scheduler=scheduler
        )
        obs = run_once(
            VECTOR_SMOKE_FLOWS,
            "scalar",
            seed=seed,
            scheduler=scheduler,
            instrumented=True,
        )
        vec = run_once(VECTOR_SMOKE_FLOWS, "vector", seed=seed, scheduler=scheduler)
        fair = run_once(ECHELON_SMOKE_FLOWS, "vector", seed=seed, scheduler="fair")
        echelon = run_once(
            ECHELON_SMOKE_FLOWS, "scalar", seed=seed, scheduler="echelon"
        )
        reported = report_once(REPORT_SMOKE_JOBS, seed=seed)
        # Instrumentation must observe, never perturb: the instrumented
        # run is the same simulation as the bare scalar one.
        problems = [
            "instrumented run: " + p
            for p in _check_equivalent(VECTOR_SMOKE_FLOWS, vec_base, obs)
        ]
        problems += _check_equivalent(VECTOR_SMOKE_FLOWS, vec_base, vec)
        problems += [
            f"{run['scheduler']} run completed {run['completed']} of "
            f"{ECHELON_SMOKE_FLOWS} flows"
            for run in (fair, echelon)
            if run["completed"] != ECHELON_SMOKE_FLOWS
        ]
        if reported["attributed"] != reported["completed"]:
            problems.append(
                f"report attributed {reported['attributed']} of "
                f"{reported['completed']} delivered flows"
            )
        if problems:
            print(
                "[bench_scale] smoke equivalence FAILED:\n  " + "\n  ".join(problems),
                file=sys.stderr,
            )
            return 1
        instr_ratios.append(obs["seconds"] / vec_base["seconds"])
        vector_ratios.append(vec["seconds"] / vec_base["seconds"])
        echelon_ratios.append(echelon["seconds"] / fair["seconds"])
        report_ratios.append(reported["report_seconds"] / reported["seconds"])
        print(
            f"[bench_scale] smoke attempt {attempt + 1}/{SMOKE_REPEATS}: "
            f"instrumented overhead {instr_ratios[-1]:.3f}x "
            f"({obs['seconds']:.3f}s @ n={VECTOR_SMOKE_FLOWS}), vector/scalar "
            f"{vector_ratios[-1]:.3f} ({vec['seconds']:.3f}s / "
            f"{vec_base['seconds']:.3f}s @ n={VECTOR_SMOKE_FLOWS}), "
            f"echelon/fair {echelon_ratios[-1]:.3f} ({echelon['seconds']:.3f}s / "
            f"{fair['seconds']:.3f}s @ n={ECHELON_SMOKE_FLOWS}), "
            f"report/run {report_ratios[-1]:.3f} "
            f"({reported['report_seconds']:.3f}s / {reported['seconds']:.3f}s, "
            f"{reported['completed']} flows)",
            flush=True,
        )
    ok = _guard(
        "instrumentation (instrumented/scalar)",
        statistics.median(instr_ratios),
        baseline.get("instrumented_ratio"),
        INSTRUMENTED_FACTOR,
    )
    ok &= _guard(
        "vector kernel (vector/scalar)",
        statistics.median(vector_ratios),
        baseline.get("vector_ratio"),
    )
    ok &= _guard(
        "echelon scheduler (echelon/fair)",
        statistics.median(echelon_ratios),
        baseline.get("echelon_ratio"),
        ECHELON_FACTOR,
    )
    ok &= _guard(
        "metrics report (report/instrumented run)",
        statistics.median(report_ratios),
        baseline.get("report_ratio"),
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="100,1000,10000,100000",
        help="comma-separated active-flow counts to sweep",
    )
    parser.add_argument(
        "--huge",
        action="store_true",
        help=f"append a best-effort {HUGE_FLOWS}-flow point to the sweep",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--scheduler", default="fair", choices=("fair", "echelon"),
        help="coordinator algorithm driving the run",
    )
    parser.add_argument(
        "--fabric", default="big_switch", choices=FABRICS,
        help="topology the sweep runs on (the smoke guards ignore it)",
    )
    parser.add_argument(
        "--out", default=str(REPORT_PATH), help="JSON report destination"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small-scale regression guard against the checked-in baseline",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke(args.seed, args.scheduler)

    sizes = {int(s) for s in args.sizes.split(",") if s.strip()}
    if args.huge:
        sizes.add(HUGE_FLOWS)
    report = sweep(sorted(sizes), args.seed, args.scheduler, args.fabric)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_scale] report written to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""End-to-end benchmark: the paper's schedulers on five named workloads.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                      # every workload, 3 reps each
    python3 benchmarks/e2e/run.py --workload fattree_mix --reps 5 --seed 7
    python3 benchmarks/e2e/run.py --workload bg_fair_30k --seconds 20
    python3 benchmarks/e2e/run.py --trace              # per-layer metrics
    python3 benchmarks/e2e/run.py --smoke --reps 1     # small sizes, seconds
    python3 benchmarks/e2e/run.py compare DIR_A DIR_B  # two sets of result files

Each (workload, rep) runs in a fresh child process, one at a time, with
workloads interleaved round-robin across reps. Rep ``k`` of a run with
seed ``s`` draws its inputs from ``(s, k)``. A run makes ``--reps`` reps
of each workload or, with ``--seconds``, keeps starting reps until the
next one would overrun the budget (at least :data:`MIN_REPS`). Reported
values are medians over reps; decision percentiles pool every decision
of every rep.

``--trace`` runs, per workload, one untraced and one traced child on the
inputs of rep 0 and reports the per-layer metrics of the traced one,
with ``trace.overhead`` (traced / untraced run time).

Every run prints each metric with its name and unit, writes a result
file under ``results/`` (the input of ``compare``), and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected_digests.json"
RESULTS_DIR = HERE / "results"

DEFAULT_SEED = 1
DEFAULT_REPS = 3
#: With --seconds, reps per workload made even if they overrun the budget,
#: so that every median (set-up time included) is taken over several reps.
MIN_REPS = 3
#: Hard limit on one child; with --seconds, also on the whole run.
CHILD_TIMEOUT_S = 170.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "decision_p90_ms": "ms",
    "decision_us_per_flow": "us",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# child: one (workload, rep) in this process
# ----------------------------------------------------------------------


def child(workload: str, seed: int, rep: int, smoke: bool, trace: bool) -> Dict:
    """Set up, measure and check one rep; never raises."""
    sys.path.insert(0, str(SRC))
    out: Dict = {"workload": workload, "seed": seed, "rep": rep, "smoke": smoke,
                 "traced": trace}
    clock = None
    try:
        import numpy

        from refclock import ReferenceClock
        from workloads import WORKLOADS, Stopwatch, rep_rng

        out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__}
        case = WORKLOADS[workload]()
        out["ops"] = case.ops(smoke)
        clock = ReferenceClock().start()
        with Stopwatch(clock.now) as setup:
            case.setup(rep_rng(seed, rep), smoke, clock.now)
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer(clock.now)
            tracer.install()
        try:
            measured = case.measure()
        finally:
            if tracer is not None:
                tracer.uninstall()
        out.update(
            setup_s=setup.seconds,
            wall_setup_s=setup.wall_seconds,
            ops_done=measured.ops_done,
            run_s=measured.run_s,
            wall_run_s=measured.stopwatch.wall_seconds,
            throughput=measured.throughput,
            decisions_ms=[seconds * 1e3 for seconds, _flows in measured.decisions],
            decision_flows=sum(flows for _seconds, flows in measured.decisions),
            digest=measured.digest,
            problems=measured.check(),
            outputs=measured.outputs,
            clock_samples=clock.samples,
            clock_sampling_s=clock.sampling_s,
        )
        if tracer is not None:
            out["layers"] = tracer.layer_stats()
            out["counters"] = tracer.counters
            tracer.write(
                RESULTS_DIR / f"trace_{workload}.json",
                {"workload": workload, "seed": seed, "rep": rep, "smoke": smoke,
                 "run_s": measured.run_s},
            )
    except Exception:
        out["error"] = traceback.format_exc()
    finally:
        if clock is not None:
            clock.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


# ----------------------------------------------------------------------
# parent: run children, aggregate, report
# ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_CHECK", None)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(workload: str, seed: int, rep: int, smoke: bool, trace: bool,
          timeout: float, ops: int) -> Dict:
    """Run one rep in a fresh interpreter; a crash or timeout is a failed rep."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed), "--rep", str(rep),
           "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=str(ROOT), env=child_env(), capture_output=True,
            text=True, timeout=timeout,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            result = {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
        else:
            result = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        result = {"error": f"child timed out after {timeout:.0f} s"}
    except json.JSONDecodeError as exc:
        result = {"error": f"unreadable child output: {exc}"}
    result.setdefault("ops", ops)
    result.setdefault("rep", rep)
    result["wall_s"] = time.perf_counter() - started
    return result


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def load_json(path: Path) -> Dict:
    with path.open() as handle:
        return json.load(handle)


def check_reps(reps: List[Dict], expected: List[str]) -> Dict:
    """Failure accounting and digest check shared by both kinds of run."""
    ok = [r for r in reps if "error" not in r]
    problems = [r["error"].strip().splitlines()[-1] for r in reps if "error" in r]
    ops = sum(r["ops"] for r in reps)
    failed = sum(r["ops"] for r in reps if "error" in r)
    for rep in ok:
        problems += rep["problems"]
        failed += rep["ops"] - rep["ops_done"]
    digests = {r["rep"]: r["digest"] for r in ok}
    known = {rep: digest for rep, digest in digests.items() if rep < len(expected)}
    return {
        "ops": ops,
        "ops_failed": failed,
        "failed_frac": failed / ops if ops else 1.0,
        "digests": [digests[rep] for rep in sorted(digests)],
        "digest_match": all(d == expected[rep] for rep, d in known.items()) if known else None,
        "problems": problems,
        "metrics": {},
        "units": {},
    }


def summarize(reps: List[Dict], expected: List[str]) -> Dict:
    """End-to-end metrics of one workload's reps."""
    summary = check_reps(reps, expected)
    ok = [r for r in reps if "error" not in r]
    summary["reps"] = len(reps)
    if not ok:
        return summary
    decisions = [ms for r in ok for ms in r["decisions_ms"]]
    summary["outputs"] = ok[0]["outputs"]
    summary["versions"] = ok[0]["versions"]
    # Shown, not bounded: on bg_echelon_10k the median falls between the
    # large early decisions and the small ones of the tail, whose number
    # changes with the input.
    summary["decisions"] = {
        "count": len(decisions),
        "p50_ms": percentile(decisions, 50),
        "p99_ms": percentile(decisions, 99),
    }
    summary["metrics"] = {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "throughput": statistics.median(r["throughput"] for r in ok),
        "decision_p90_ms": percentile(decisions, 90),
        "decision_us_per_flow": 1e3 * sum(decisions) / sum(r["decision_flows"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }
    summary["units"] = dict(END_TO_END)
    return summary


def summarize_traced(untraced: Dict, traced: Dict, expected: List[str]) -> Dict:
    """Per-layer metrics of one traced rep against its untraced twin."""
    from tracing import layer_metrics, metric_units

    summary = check_reps([untraced, traced], expected)
    summary["reps"] = 2
    if "error" in untraced or "error" in traced:
        return summary
    if traced["digest"] != untraced["digest"]:
        summary["problems"].append("traced run's digest differs from the untraced run's")
    summary["outputs"] = untraced["outputs"]
    summary["versions"] = untraced["versions"]
    summary["metrics"] = layer_metrics(
        traced["layers"], traced["counters"], traced["run_s"], untraced["run_s"])
    summary["units"] = metric_units()
    return summary


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_summary(workload: str, summary: Dict) -> None:
    for name, value in summary["metrics"].items():
        print(f"{workload:<16} {name:<36} {value:>14.6g} {summary['units'][name]}")
    info = [f"ops={summary['ops']}", f"ops_failed={summary['ops_failed']}",
            f"failed_frac={summary['failed_frac']:.6g}", f"reps={summary['reps']}"]
    decisions = summary.get("decisions")
    if decisions:
        info += [f"decisions={decisions['count']}", f"decision_p50_ms={decisions['p50_ms']:.6g}",
                 f"decision_p99_ms={decisions['p99_ms']:.6g}"]
    match = {None: "n/a", True: "yes", False: "NO"}[summary["digest_match"]]
    info.append(f"digest_match={match}")
    info += [f"{k}={v:.6g}" for k, v in summary.get("outputs", {}).items()]
    print(f"{workload:<16} outputs " + " ".join(info))
    if summary["digest_match"] is False:
        print(f"{workload:<16} DIGEST MISMATCH: the simulated schedule changed; "
              f"expected {EXPECTED_PATH.name}, got {summary['digests']}")
    for problem in summary["problems"]:
        print(f"{workload:<16} PROBLEM {problem}")


def run(args, spec: Dict) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    declared = [w["name"] for w in spec["workloads"]]
    names = args.workload or declared
    unknown = [n for n in names if n not in declared or n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; choose from {declared}", file=sys.stderr)
        return 2
    expected: Dict[str, List[str]] = {}
    if EXPECTED_PATH.exists():
        document = load_json(EXPECTED_PATH)
        if document["seed"] == args.seed:
            expected = document["smoke" if args.smoke else "full"]
    ops = {name: WORKLOADS[name]().ops(args.smoke) for name in names}

    meta = {
        "argv": sys.argv[1:],
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT_S if args.seconds is not None else None

    def timeout() -> float:
        if deadline is None:
            return CHILD_TIMEOUT_S
        return deadline - time.perf_counter()

    def rep(name: str, index: int, trace: bool) -> Dict:
        result = spawn(name, args.seed, index, args.smoke, trace, timeout(), ops[name])
        print(f"[e2e] {name}: rep {index}{' traced' if trace else ''} "
              f"in {result['wall_s']:.1f} s", file=sys.stderr, flush=True)
        return result

    reps: Dict[str, List[Dict]] = {name: [] for name in names}
    summaries = {}
    if args.trace:
        for name in names:
            untraced = rep(name, 0, False)
            reps[name] = [untraced, rep(name, 0, True)]
            summaries[name] = summarize_traced(*reps[name], expected.get(name, []))
    else:
        while True:
            started_any = False
            for name in names:
                done = reps[name]
                if args.seconds is None:
                    if len(done) >= args.reps:
                        continue
                elif len(done) >= MIN_REPS:
                    longest = max(r["wall_s"] for r in done)
                    if time.perf_counter() - start + longest > args.seconds:
                        continue
                if timeout() <= 0:
                    continue
                done.append(rep(name, len(done), False))
                started_any = True
            if not started_any:
                break
        summaries = {name: summarize(reps[name], expected.get(name, [])) for name in names}
    meta["loadavg_after"] = os.getloadavg()
    meta["wall_s"] = time.perf_counter() - start
    for summary in summaries.values():
        if "versions" in summary:
            meta.update(summary["versions"])
            break

    for name in names:
        print_summary(name, summaries[name])

    stamp = time.strftime("%Y%m%dT%H%M%S") + f"{time.time() % 1:.6f}"[1:]
    label = names[0] if len(names) == 1 else "all"
    kind = "layers" if args.trace else "e2e"
    out = RESULTS_DIR / f"{kind}_{label}_s{args.seed}_{stamp}.json"
    document = {"meta": meta, "workloads": summaries,
                "reps": {name: [strip_samples(r) for r in reps[name]] for name in names}}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"[e2e] results written to {out}", file=sys.stderr)

    attempted = sum(s["ops"] for s in summaries.values())
    failed = sum(s["ops_failed"] for s in summaries.values())
    correct = all(not s["problems"] and s["metrics"] for s in summaries.values())
    metrics = {}
    for name, summary in summaries.items():
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in summary["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": summary["units"][metric]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if all(s["metrics"] for s in summaries.values()) else 1


def strip_samples(rep: Dict) -> Dict:
    """A rep's record for the result file, without the raw decision samples."""
    return {k: v for k, v in rep.items() if k != "decisions_ms"}


def parse_args(argv: List[str]):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see README.md); "
        "'run.py compare A B' compares two sets of result files."
    )
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="reps per workload (ignored with --seconds)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget: start reps until the next would overrun it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true", help="small sizes")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(HERE))
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], load_json(SPEC_PATH))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the simulator sources at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args.workload[0], args.seed, args.rep, args.smoke,
                               bool(args.trace))))
        return 0
    return run(args, load_json(SPEC_PATH))


if __name__ == "__main__":
    raise SystemExit(main())

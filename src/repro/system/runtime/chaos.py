"""The control-plane chaos suite: scored crash/partition/noise scenarios.

Runs a fixed three-job cluster workload through the fault-tolerant
runtime under every control-plane failure mode and grades the outcome:

* **completion** -- every job finishes in every scenario (quarantine and
  degraded-mode scheduling keep serving flows; nothing stalls);
* **bounded inflation** -- each job's JCT inflates at most
  ``inflation_bound``x over the fault-free baseline;
* **bit-identity** -- the identity-channel baseline reproduces the
  pinned SHA-256 trace digest :data:`BASELINE_DIGEST`, so a change to
  how a fault-free run schedules cannot pass unnoticed;
* **determinism** -- every scenario run twice per ``(spec, seed)``
  digests identically (live == replay).

``repro system chaos`` drives this from the CLI; the ``control-plane``
CI job runs it under ``REPRO_CHECK=strict`` and uploads the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ...core import FlowIdAllocator, use_flow_id_allocator
from ...core.units import gbps, megabytes
from ...simulator.trace import trace_digest
from ...topology import big_switch
from ...topology.graph import Topology
from ...workloads import build_dp_allreduce, build_fsdp, build_tp_megatron
from ...workloads.job import BuiltJob
from ...workloads.model import uniform_model
from ..framework import ClusterRun, run_cluster
from .runtime import ControlPlaneRuntime


# ----------------------------------------------------------------------
# the scored scenario suite
# ----------------------------------------------------------------------

#: Scenario names in suite order; ``--smoke`` keeps the starred core.
SCENARIO_NAMES = (
    "baseline",
    "crash_agent",
    "crash_coordinator",
    "partition_control",
    "rpc_noise",
    "lossy_channel",
)
SMOKE_SCENARIOS = ("baseline", "crash_coordinator", "rpc_noise")

#: The crash/partition scenarios hit the agent that owns the first job.
_TARGET_JOB = "job-dp"

#: Trace digest of the fault-free workload on an identity channel, under
#: a fresh flow-id allocator (the channel seed never draws, so every
#: seed shares it). A change that moves it changes Fig. 7 scheduling.
BASELINE_DIGEST = (
    "1ccae575f0ef1f718462561047531df7de2dc97bbfb3868ae323c6f3c892bce5"
)


@dataclass(frozen=True)
class ChaosScenario:
    """One control-plane chaos experiment."""

    name: str
    #: Fault spec string (control-plane grammar), None for fault-free.
    faults: Optional[str]
    #: Base RPC channel spec ("off" = identity until a fault degrades it).
    rpc: str = "off"


def _model():
    return uniform_model(
        "chaos",
        4,
        param_bytes_per_layer=megabytes(16),
        activation_bytes=megabytes(8),
        forward_time=0.004,
    )


def _jobs() -> List[Tuple[BuiltJob, float]]:
    """Three staggered jobs, disjoint + overlapping host sets."""
    model = _model()
    return [
        (
            build_dp_allreduce(
                _TARGET_JOB,
                model,
                [f"h{i}" for i in range(4)],
                bucket_bytes=megabytes(8),
            ),
            0.0,
        ),
        (build_fsdp("job-fsdp", model, [f"h{i}" for i in range(4, 8)]), 0.02),
        (build_tp_megatron("job-tp", model, ["h0", "h2", "h4", "h6"]), 0.04),
    ]


def _topology() -> Topology:
    return big_switch(8, gbps(10))


def build_chaos_scenarios(
    makespan: float, names: Optional[Sequence[str]] = None
) -> List[ChaosScenario]:
    """The scenario list, timed as fractions of the baseline makespan."""
    t = makespan
    catalogue = {
        "baseline": ChaosScenario("baseline", None),
        "crash_agent": ChaosScenario(
            "crash_agent",
            f"crash_agent@{0.2 * t:.6g}+{0.3 * t:.6g},agent={_TARGET_JOB}",
        ),
        "crash_coordinator": ChaosScenario(
            "crash_coordinator",
            f"crash_coordinator@{0.25 * t:.6g}+{0.1 * t:.6g}",
        ),
        "partition_control": ChaosScenario(
            "partition_control",
            f"partition_control@{0.2 * t:.6g}+{0.15 * t:.6g}",
        ),
        "rpc_noise": ChaosScenario(
            "rpc_noise",
            f"rpc_noise@{0.1 * t:.6g},drop=0.1,delay={0.003 * t:.6g},"
            f"timeout={0.003 * t:.6g},backoff={0.001 * t:.6g}",
        ),
        "lossy_channel": ChaosScenario(
            "lossy_channel",
            None,
            rpc=f"drop=0.1,delay={0.003 * t:.6g},timeout={0.003 * t:.6g},"
            f"backoff={0.001 * t:.6g}",
        ),
    }
    names = tuple(names) if names is not None else SCENARIO_NAMES
    return [catalogue[name] for name in names]


def _run_scenario(
    scenario: ChaosScenario, seed: int, makespan: float, sanitizer=None
) -> ClusterRun:
    """One fresh, reproducible run: private flow ids, fresh jobs.

    The lease scales with the workload clock (a lease in absolute
    seconds would outlive this sub-second workload entirely).
    """
    runtime = ControlPlaneRuntime(
        rpc=scenario.rpc, seed=seed, lease=0.05 * makespan
    )
    with use_flow_id_allocator(FlowIdAllocator()):
        return run_cluster(
            _topology(),
            _jobs(),
            runtime=runtime,
            faults=scenario.faults,
            sanitizer=sanitizer,
        )


def _baseline_jcts() -> Dict[str, float]:
    """Fault-free per-job JCTs: the inflation reference and clock."""
    with use_flow_id_allocator(FlowIdAllocator()):
        return run_cluster(_topology(), _jobs()).job_completion_times()


def run_chaos_suite(
    smoke: bool = False,
    seed: int = 0,
    inflation_bound: float = 1.5,
    sanitizer=None,
    names: Optional[Sequence[str]] = None,
) -> Dict:
    """Run and score the suite; returns a JSON-able report.

    ``report["ok"]`` aggregates every check: per-scenario completion,
    JCT inflation <= ``inflation_bound``, two-run determinism, and the
    identity-channel baseline's digest against :data:`BASELINE_DIGEST`.
    """
    base_jcts = _baseline_jcts()
    makespan = max(base_jcts.values())
    if names is None:
        names = SMOKE_SCENARIOS if smoke else SCENARIO_NAMES
    scenarios = build_chaos_scenarios(makespan, names)
    rows: List[Dict] = []
    ok = True
    for scenario in scenarios:
        run = _run_scenario(scenario, seed, makespan, sanitizer=sanitizer)
        digest = trace_digest(run.trace)
        rerun_digest = trace_digest(_run_scenario(scenario, seed, makespan).trace)
        jcts = run.job_completion_times()
        completed = sorted(run.engine.completed_jobs)
        all_done = set(completed) == set(base_jcts)
        inflation = max(
            (jcts[job] / base_jcts[job] for job in jcts if base_jcts[job] > 0),
            default=1.0,
        )
        deterministic = digest == rerun_digest
        row = {
            "scenario": scenario.name,
            "faults": scenario.faults,
            "rpc": scenario.rpc,
            "mode": run.runtime.report()["mode"],
            "completed": len(completed),
            "all_jobs_completed": all_done,
            "jct": {job: round(value, 6) for job, value in sorted(jcts.items())},
            "max_inflation": round(inflation, 4),
            "inflation_ok": inflation <= inflation_bound,
            "deterministic": deterministic,
            "digest": digest,
            "runtime": run.runtime.report(),
        }
        if scenario.name == "baseline":
            row["bit_identical"] = digest == BASELINE_DIGEST
            ok = ok and row["bit_identical"]
        ok = ok and all_done and row["inflation_ok"] and deterministic
        rows.append(row)
    return {
        "suite": "control-plane-chaos",
        "seed": seed,
        "inflation_bound": inflation_bound,
        "baseline_digest": BASELINE_DIGEST,
        "baseline_jct": {j: round(v, 6) for j, v in sorted(base_jcts.items())},
        "scenarios": rows,
        "ok": ok,
    }


def format_chaos_table(report: Dict) -> str:
    """Human-readable scenario table for the CLI and CI artifact."""
    lines = [
        f"control-plane chaos suite (seed={report['seed']}, "
        f"inflation bound {report['inflation_bound']:g}x)",
        f"{'scenario':<20} {'mode':<8} {'jobs':<6} {'max JCT x':<10} "
        f"{'determ.':<8} {'verdict':<8}",
    ]
    for row in report["scenarios"]:
        verdict = (
            row["all_jobs_completed"]
            and row["inflation_ok"]
            and row["deterministic"]
            and row.get("bit_identical", True)
        )
        extra = ""
        if "bit_identical" in row:
            extra = (
                " (bit-identical)" if row["bit_identical"]
                else " (DIGEST MISMATCH)"
            )
        lines.append(
            f"{row['scenario']:<20} {row['mode']:<8} "
            f"{row['completed']:<6} {row['max_inflation']:<10.3f} "
            f"{'yes' if row['deterministic'] else 'NO':<8} "
            f"{'pass' if verdict else 'FAIL':<8}{extra}"
        )
    lines.append(f"overall: {'ok' if report['ok'] else 'FAILED'}")
    return "\n".join(lines)

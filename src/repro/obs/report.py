"""The metrics-summary report: one JSON document per observed run.

Collects everything the acceptance bar asks for -- scheduler invocation
counts by trigger cause, per-link peak/mean utilization, per-EchelonFlow
tardiness summaries -- plus flow/compute aggregates and the raw registry
snapshot, into a single json.dumps-able dict. The CLI writes it to
``--metrics-out``; benchmarks diff it against the committed baselines in
``benchmarks/results/``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..simulator.trace import SimulationTrace
from .instrumentation import Instrumentation
from .profiling import ProfiledScheduler

#: Bumped when the report layout changes incompatibly.
REPORT_VERSION = 1


def _tardiness_summaries(trace: SimulationTrace) -> Dict[str, Dict]:
    """Per-EchelonFlow tardiness stats straight from the flow records."""
    #: group -> [flows, worst tardiness, tardiness sum, last finish].
    by_group: Dict[str, list] = {}
    for record in trace.flow_records:
        group = record.flow.group_id
        if group is None:
            continue
        tardiness = record.tardiness
        if tardiness is None:
            continue
        entry = by_group.get(group)
        if entry is None:
            entry = by_group[group] = [0, float("-inf"), 0.0, 0.0]
        entry[0] += 1
        if tardiness > entry[1]:
            entry[1] = tardiness
        entry[2] += tardiness
        if record.finish > entry[3]:
            entry[3] = record.finish
    return {
        group: {
            "flows": flows,
            "worst_tardiness": worst,
            "sum_tardiness": total,
            "last_finish": last,
            "mean_tardiness": total / flows,
        }
        for group, (flows, worst, total, last) in sorted(by_group.items())
    }


def _flow_aggregates(trace: SimulationTrace) -> Dict:
    records = trace.flow_records
    if not records:
        return {"delivered": 0}
    completion_times = sorted(r.completion_time for r in records)
    n = len(completion_times)
    return {
        "delivered": n,
        "bytes": sum(r.flow.size for r in records),
        "mean_completion_seconds": sum(completion_times) / n,
        "p99_completion_seconds": completion_times[
            min(n - 1, int(0.99 * n))
        ],
    }


def _robustness_section(instrumentation: Instrumentation) -> Dict:
    """Fault/fallback/reroute aggregates (mirrors the JSONL summarizer's
    ``robustness`` section so report and log summaries agree)."""
    faults = instrumentation.fault_events
    fallbacks = instrumentation.scheduler_fallbacks
    reroutes = instrumentation.reroutes
    if not faults and not fallbacks and not reroutes:
        return {}
    actions: Dict[str, int] = {}
    migrated = stranded = 0
    times = []
    for record in faults:
        action = record.get("action", "unknown")
        actions[action] = actions.get(action, 0) + 1
        # Link-event records carry the migrated/stranded flow-id lists.
        migrated += len(record.get("migrated") or ())
        stranded += len(record.get("stranded") or ())
        t = record.get("time")
        if isinstance(t, (int, float)):
            times.append(t)
    kinds: Dict[str, int] = {}
    for record in fallbacks:
        kind = record.get("kind", "unknown")
        kinds[kind] = kinds.get(kind, 0) + 1
    section: Dict = {
        "faults": len(faults),
        "fault_actions": dict(sorted(actions.items())),
        "scheduler_fallbacks": len(fallbacks),
        "fallback_kinds": dict(sorted(kinds.items())),
        "flow_reroutes": sum(reroutes.values()),
        "migrated_flows": migrated,
        "stranded_flows": stranded,
    }
    if times:
        section["first_fault_time"] = min(times)
        section["last_fault_time"] = max(times)
    return section


def _control_plane_section(instrumentation: Instrumentation) -> Dict:
    """Control-plane runtime aggregates (mirrors the JSONL summarizer's
    ``control_plane`` section so report and log summaries agree)."""
    events = getattr(instrumentation, "control_events", None) or []
    if not events:
        return {}
    kinds: Dict[str, int] = {}
    for record in events:
        kind = record.get("kind", "unknown")
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "events": len(events),
        "event_kinds": dict(sorted(kinds.items())),
    }


def build_metrics_report(
    trace: SimulationTrace,
    instrumentation: Optional[Instrumentation] = None,
    profiler: Optional[ProfiledScheduler] = None,
    scheduler_invocations: Optional[int] = None,
    extra: Optional[Dict] = None,
    sanitizer=None,
) -> Dict:
    """Assemble the metrics-summary document for one run.

    Every section degrades gracefully: without a profiler the scheduler
    section falls back to the engine's raw invocation count; without
    instrumentation the link section is empty.  ``sanitizer`` is the
    engine's :class:`~repro.check.sanitizer.Sanitizer` (``engine.check``)
    when the run was sanitized; its violation counts land in a
    ``sanitizer`` section so reports from checked runs are self-describing.
    """
    report: Dict = {
        "version": REPORT_VERSION,
        "run": {
            "end_time": trace.end_time,
            "compute_spans": len(trace.compute_spans),
            "task_events": len(trace.task_events),
        },
        "flows": _flow_aggregates(trace),
        "echelonflows": _tardiness_summaries(trace),
    }
    if profiler is not None:
        report["scheduler"] = profiler.summary()
    else:
        scheduler_section: Dict = {}
        if scheduler_invocations is not None:
            scheduler_section["invocations"] = scheduler_invocations
        if instrumentation is not None:
            by_cause = instrumentation.reschedules_by_cause()
            if by_cause:
                scheduler_section.setdefault(
                    "invocations", sum(by_cause.values())
                )
                scheduler_section["by_cause"] = by_cause
        if scheduler_section:
            report["scheduler"] = scheduler_section
    if instrumentation is not None:
        report["links"] = instrumentation.link_stats(horizon=trace.end_time)
        report["registry"] = instrumentation.registry.snapshot()
        if getattr(instrumentation, "rate_recorder", None) is not None:
            # Deferred import: diagnosis sits on top of this module's layer.
            from .diagnosis import RunArtifacts, attribute_run, blame_matrix

            artifacts = RunArtifacts.from_run(trace, instrumentation)
            attribution = attribute_run(artifacts)
            report["diagnosis"] = {
                "echelonflows": attribution["echelonflows"],
                "blame": blame_matrix(attribution["flows"])["aggregate"],
                "coverage": attribution["coverage"],
            }
        robustness = _robustness_section(instrumentation)
        if robustness:
            report["robustness"] = robustness
        control = _control_plane_section(instrumentation)
        if control:
            report["control_plane"] = control
        if instrumentation.tardiness_series:
            report["live_tardiness"] = {
                group: {
                    "samples": len(series),
                    "worst": max(t for _, t in series),
                    "final": series[-1][1],
                }
                for group, series in sorted(
                    instrumentation.tardiness_series.items()
                )
            }
    if sanitizer is not None:
        report["sanitizer"] = sanitizer.report()
    if extra:
        report.update(extra)
    return report


def write_metrics_report(report: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")

"""Run-diff: why did scheduler B beat scheduler A on this workload?

Compares two runs of the *same workload* (matched flow-by-flow on
structural identity, since flow ids are run-local) and attributes each
job's JCT delta down to stages and links:

* per-job JCT delta (positive = run B slower);
* per-flow/stage finish delta, split into ``start_delta`` (the flow was
  injected later -- upstream effects) and ``stretch_delta`` (the flow
  was in the network longer than its ideal duration -- scheduling
  effects), with the contention component diffed per contender stage;
* per-group (EchelonFlow) completion delta;
* per-link busy-seconds delta from the recorded rate segments.

This automates the paper's Fig. 2 diagnosis: diffing the Coflow run
against fair sharing shows the later micro-batch flows' contention on
the earlier ones growing -- Coflow's all-finish-together allocation
serializes the pipeline where fair sharing lets the head micro-batch
out early.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .artifacts import FlowFact, RunArtifacts
from .attribution import FlowAttribution, attribute_run, overlap_integral


def _match_flows(
    a: RunArtifacts, b: RunArtifacts
) -> Tuple[List[Tuple[FlowFact, FlowFact]], List[FlowFact], List[FlowFact]]:
    """Pair flows across runs by structural key (start order on dups)."""

    def bucket(artifacts: RunArtifacts) -> Dict:
        out: Dict = {}
        for flow in artifacts.delivered_flows():
            out.setdefault(flow.structural_key, []).append(flow)
        for flows in out.values():
            flows.sort(key=lambda f: (f.start or 0.0, f.flow_id))
        return out

    buckets_a, buckets_b = bucket(a), bucket(b)
    matched: List[Tuple[FlowFact, FlowFact]] = []
    only_a: List[FlowFact] = []
    only_b: List[FlowFact] = []
    for key in sorted(set(buckets_a) | set(buckets_b), key=repr):
        flows_a = buckets_a.get(key, [])
        flows_b = buckets_b.get(key, [])
        paired = min(len(flows_a), len(flows_b))
        matched.extend(zip(flows_a[:paired], flows_b[:paired]))
        only_a.extend(flows_a[paired:])
        only_b.extend(flows_b[paired:])
    return matched, only_a, only_b


def _delta_map(
    left: Dict[str, float], right: Dict[str, float]
) -> Dict[str, float]:
    """right - left per key, dropping exact zeros."""
    out = {}
    for key in set(left) | set(right):
        delta = right.get(key, 0.0) - left.get(key, 0.0)
        if delta != 0.0:
            out[key] = delta
    return dict(sorted(out.items(), key=lambda kv: -abs(kv[1])))


def _link_busy(artifacts: RunArtifacts) -> Dict[str, float]:
    """Per-link utilization-seconds (rate integral / capacity).

    A rerouted flow's bytes count on the path it was pinned to when it
    sent them (see ``FlowFact.path_epochs``).
    """
    busy: Dict[str, float] = {}
    for flow in artifacts.delivered_flows():
        for since, until, path in flow.path_spans():
            carried = overlap_integral(flow.segments, since, until)
            if carried <= 0.0:
                continue
            for key, capacity in path:
                if capacity > 0:
                    busy[key] = busy.get(key, 0.0) + carried / capacity
    return busy


def diff_runs(a: RunArtifacts, b: RunArtifacts, top: int = 20) -> Dict:
    """The run-diff report; see module docstring. JSON-able."""
    attribution_a = {
        attr.flow_id: attr for attr in attribute_run(a)["flows"]
    }
    attribution_b = {
        attr.flow_id: attr for attr in attribute_run(b)["flows"]
    }
    matched, only_a, only_b = _match_flows(a, b)

    stages: List[Dict] = []
    group_finish_a: Dict[str, float] = {}
    group_finish_b: Dict[str, float] = {}
    for flow_a, flow_b in matched:
        attr_a: Optional[FlowAttribution] = attribution_a.get(flow_a.flow_id)
        attr_b: Optional[FlowAttribution] = attribution_b.get(flow_b.flow_id)
        row: Dict = {
            "stage": flow_a.stage,
            "job": flow_a.job,
            "group": flow_a.group,
            "finish_a": flow_a.finish,
            "finish_b": flow_b.finish,
            "delta": flow_b.finish - flow_a.finish,
            "start_delta": (flow_b.start or 0.0) - (flow_a.start or 0.0),
        }
        if (
            attr_a is not None
            and attr_b is not None
            and attr_a.stretch is not None
            and attr_b.stretch is not None
        ):
            row["stretch_delta"] = attr_b.stretch - attr_a.stretch
            row["contention_delta"] = _delta_map(
                attr_a.contention, attr_b.contention
            )
            row["contention_delta_total"] = (
                attr_b.contention_total - attr_a.contention_total
            )
            if attr_a.residual is not None and attr_b.residual is not None:
                row["residual_delta"] = attr_b.residual - attr_a.residual
            row["bottleneck"] = attr_b.bottleneck or attr_a.bottleneck
        stages.append(row)
        if flow_a.group is not None and flow_a.finish is not None:
            group_finish_a[flow_a.group] = max(
                group_finish_a.get(flow_a.group, float("-inf")), flow_a.finish
            )
        if flow_b.group is not None and flow_b.finish is not None:
            group_finish_b[flow_b.group] = max(
                group_finish_b.get(flow_b.group, float("-inf")), flow_b.finish
            )
    stages.sort(key=lambda row: -abs(row["delta"]))

    jobs: Dict[str, Dict] = {}
    for job in sorted(set(a.jobs()) | set(b.jobs())):
        jct_a = a.job_completion(job)
        jct_b = b.job_completion(job)
        entry: Dict = {"jct_a": jct_a, "jct_b": jct_b}
        if jct_a is not None and jct_b is not None:
            entry["delta"] = jct_b - jct_a
            entry["winner"] = (
                "tie" if jct_a == jct_b else ("a" if jct_a < jct_b else "b")
            )
        jobs[job] = entry

    groups = {
        group: {
            "finish_a": group_finish_a.get(group),
            "finish_b": group_finish_b.get(group),
            "delta": group_finish_b[group] - group_finish_a[group],
        }
        for group in sorted(set(group_finish_a) & set(group_finish_b))
    }

    deltas = [entry.get("delta") for entry in jobs.values()]
    deltas = [d for d in deltas if d is not None]
    return {
        "jobs": jobs,
        "verdict": {
            "end_time_a": a.end_time,
            "end_time_b": b.end_time,
            "jobs_faster_in_a": sum(1 for d in deltas if d > 0),
            "jobs_faster_in_b": sum(1 for d in deltas if d < 0),
        },
        "flows": {
            "matched": len(matched),
            "only_a": len(only_a),
            "only_b": len(only_b),
        },
        "stages": stages[:top],
        "groups": groups,
        "links": _delta_map(_link_busy(a), _link_busy(b)),
    }

"""Tardiness attribution: *why* was this flow (EchelonFlow) late?

The paper defines a flow's tardiness as ``T_j = e_j - d_j`` (Eq. 1,
actual finish minus ideal finish) and an EchelonFlow's tardiness as the
max over its members (Eq. 2). This module decomposes each delivered
flow's tardiness into three exactly-summing components:

``upstream``
    ``(start + size/C) - d`` where ``C`` is the flow's bottleneck
    capacity (the min-capacity hop of its pinned path): the tardiness
    the flow would have shown had it run alone at full bottleneck rate
    from the moment it actually started. Captures late injection --
    upstream compute/dependency lateness relative to the recalibrated
    deadline (the Fig. 6 story). Negative when the flow started with
    slack in hand.

``contention[g]``
    ``(1/C) * integral of r_g(t) dt`` over the flow's lifetime, for
    every other flow ``g`` sharing the bottleneck link: seconds of the
    victim's ideal-rate time that contender ``g``'s allocation consumed.
    When a fault rerouted either flow, only the time both were pinned
    to the link counts (``FlowFact.path_epochs``).

``residual``
    ``(1/C) * integral of (C - sum of all allocations on the bottleneck
    link) dt`` over the flow's lifetime: bottleneck bandwidth the
    scheduler left idle while the flow was active -- the scheduler-
    decision residual (often bandwidth the flow could not use because a
    *different* hop of its path was the binding constraint, or because
    the scheduler deliberately throttled it).

The identity is exact, not approximate: the flow delivers its full size
over its lifetime, so ``(1/C) * integral of r_f dt = size/C``, and
``duration = size/C + sum(contention) + residual`` follows by splitting
``C`` into own rate + contenders + idle. Hence::

    tardiness = upstream + sum(contention.values()) + residual

up to the network's relative finish epsilon. Each component is computed
*independently* from the recorded rate segments (nothing is derived by
subtraction), so the sum is a real consistency check on the recording --
the property test in ``tests/test_diagnosis.py`` exercises it across
paradigms and schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .artifacts import SLOTS, FlowFact, RunArtifacts, group_by_link

#: Components must re-add to the total within this (relative) tolerance.
SUM_TOL = 1e-6


@dataclass(**SLOTS)
class FlowAttribution:
    """One flow's tardiness, decomposed; see module docstring."""

    flow_id: int
    stage: str
    job: Optional[str]
    group: Optional[str]
    start: float
    finish: float
    ideal_finish: Optional[float]
    tardiness: Optional[float]
    bottleneck: Optional[str]
    bottleneck_capacity: Optional[float]
    #: ``None`` when the flow has no recorded path (no deadline math).
    upstream: Optional[float] = None
    stretch: Optional[float] = None
    #: contender stage label -> seconds of delay imposed on this flow.
    contention: Dict[str, float] = field(default_factory=dict)
    #: contender job id -> seconds (same mass, job granularity).
    contention_by_job: Dict[str, float] = field(default_factory=dict)
    residual: Optional[float] = None
    #: upstream + sum(contention) + residual; ~= tardiness when exact.
    explained: Optional[float] = None

    @property
    def contention_total(self) -> float:
        return sum(self.contention.values())

    def to_dict(self) -> Dict:
        return {
            "flow_id": self.flow_id,
            "stage": self.stage,
            "job": self.job,
            "group": self.group,
            "start": self.start,
            "finish": self.finish,
            "ideal_finish": self.ideal_finish,
            "tardiness": self.tardiness,
            "bottleneck": self.bottleneck,
            "bottleneck_capacity": self.bottleneck_capacity,
            "upstream": self.upstream,
            "stretch": self.stretch,
            "contention": dict(
                sorted(self.contention.items(), key=lambda kv: -kv[1])
            ),
            "contention_by_job": dict(sorted(self.contention_by_job.items())),
            "contention_total": self.contention_total,
            "residual": self.residual,
            "explained": self.explained,
        }


def bottleneck_of(flow: FlowFact) -> Optional[Tuple[str, float]]:
    """The min-capacity hop of the flow's pinned path (first on ties)."""
    best = None
    for hop in flow.path:
        # (capacity, key) order, compared without building the pairs.
        if (
            best is None
            or hop[1] < best[1]
            or (hop[1] == best[1] and hop[0] < best[0])
        ):
            best = hop
    return best


def overlap_integral(segments, lo: float, hi: float) -> float:
    """Integral of a piecewise-constant rate over the window [lo, hi].

    ``segments`` are time-ordered, so the scan stops at the first one
    starting at or after ``hi``: neither it nor any later one overlaps
    the window.
    """
    total = 0.0
    for start, end, rate in segments:
        if start >= hi:
            break
        left = start if start > lo else lo
        right = end if end < hi else hi
        if right > left:
            total += rate * (right - left)
    return total


_INF = float("inf")
_UNSEEN = object()
#: Pinned spans of a flow that never moved: its one path, all the time.
_ALWAYS = ((-_INF, _INF),)


def _pinned_spans(flow: FlowFact, key: str) -> Sequence[Tuple[float, float]]:
    """The (since, until) spans during which ``flow`` was pinned to ``key``."""
    if not flow.path_epochs:
        return _ALWAYS
    return [
        (since, until)
        for since, until, path in flow.path_spans()
        if any(hop[0] == key for hop in path)
    ]


def _overlapping(
    windows: Sequence[Tuple[float, float]],
    extents: Sequence[Optional[Tuple[float, float]]],
) -> List[List[int]]:
    """For each window, the indices of the extents it overlaps.

    Overlap means an intersection of positive length, the only kind
    :func:`overlap_integral` can turn into a nonzero share. One sweep
    over the sorted endpoints of both sets, ends before starts at equal
    times, pairs each window with every extent open when it opens and
    each extent with every window open when it opens: every overlapping
    pair is found exactly once, in O(n log n + pairs). ``None`` or
    zero-length entries overlap nothing.
    """
    # Event k < m ends entry ``entries[k]``, event m + k starts it;
    # entry w < len(windows) is window w, entry n + i is extent i. A
    # stable sort on the time alone keeps every end before every start
    # at equal times.
    n = len(windows)
    entries: List[int] = []
    starts: List[float] = []
    ends: List[float] = []
    for offset, spans in ((0, windows), (n, extents)):
        for index, span in enumerate(spans):
            if span is not None and span[0] < span[1]:
                entries.append(offset + index)
                starts.append(span[0])
                ends.append(span[1])
    m = len(entries)
    times = ends + starts
    found: List[List[int]] = [[] for _ in windows]
    open_windows: Dict[int, None] = {}
    open_extents: Dict[int, None] = {}
    for event in sorted(range(2 * m), key=times.__getitem__):
        if event < m:
            entry = entries[event]
            if entry < n:
                del open_windows[entry]
            else:
                del open_extents[entry - n]
            continue
        entry = entries[event - m]
        if entry < n:
            found[entry].extend(open_extents)
            open_windows[entry] = None
        else:
            index = entry - n
            for window in open_windows:
                found[window].append(index)
            open_extents[index] = None
    return found


def _prepare(
    flow: FlowFact, hop: Optional[Tuple[str, float]]
) -> Tuple[FlowAttribution, Optional[str]]:
    """The flow's Eq. 1 numbers, bottleneck, stretch and upstream term.

    ``hop`` is the flow's :func:`bottleneck_of`. Also returns the
    bottleneck link whose contenders are still to be integrated, or
    ``None`` when the flow has no recorded path, no endpoints, no size
    or no bottleneck capacity.
    """
    start, finish = flow.start, flow.finish
    out = FlowAttribution(
        flow.flow_id,
        flow.stage,
        flow.job,
        flow.group,
        start if start is not None else 0.0,
        finish if finish is not None else 0.0,
        flow.ideal_finish,
        flow.tardiness,
        None,
        None,
    )
    if hop is None or flow.finish is None or flow.start is None:
        return out, None
    key, capacity = hop
    out.bottleneck = key
    out.bottleneck_capacity = capacity
    if capacity <= 0 or flow.size is None:
        return out, None
    ideal_duration = flow.size / capacity
    out.stretch = (flow.finish - flow.start) - ideal_duration
    if flow.ideal_finish is not None:
        out.upstream = (flow.start + ideal_duration) - flow.ideal_finish
    return out, key


def _attribute_link(
    key: str,
    victims: Sequence[Tuple[FlowAttribution, FlowFact]],
    crossing: Sequence[FlowFact],
) -> None:
    """Contention and residual of every victim whose bottleneck is ``key``.

    ``crossing`` lists the delivered flows pinned to ``key``, in flow-id
    order. Every recorded allocation on the link during a victim's
    lifetime counts: contenders get named shares, the victim's own share
    re-derives its ideal duration, and what no one used is the residual.
    A contender whose recorded extent does not overlap the victim's
    lifetime would contribute exactly ``0.0``, so only overlapping pairs
    are integrated, still in flow-id order. A contender counts only
    while both it and the victim were pinned to ``key`` (path epochs);
    the victim's own share covers its whole lifetime. Each contender's
    pinned spans, stage label and job are resolved once per link, on
    its first overlapping pair, and a victim's own pinned windows on its
    first contender.
    """
    found = _overlapping(
        [(flow.start, flow.finish) for _, flow in victims],
        [
            (other.segments[0][0], other.segments[-1][1])
            if other.segments
            else None
            for other in crossing
        ],
    )
    position = {other.flow_id: j for j, other in enumerate(crossing)}
    #: crossing index -> (pinned spans on ``key``, stage label, job).
    contenders: Dict[int, Tuple[Sequence[Tuple[float, float]], str, str]] = {}
    for (out, flow), hits in zip(victims, found):
        lo, hi = flow.start, flow.finish
        capacity = out.bottleneck_capacity
        own = position.get(flow.flow_id)
        if own is not None and own not in hits:
            hits.append(own)
        hits.sort()
        windows = None
        contention = out.contention
        by_job = out.contention_by_job
        used = 0.0
        for j in hits:
            segments = crossing[j].segments
            if j == own:
                used += overlap_integral(segments, lo, hi)
                continue
            known = contenders.get(j)
            if known is None:
                other = crossing[j]
                known = contenders[j] = (
                    _pinned_spans(other, key),
                    other.stage,
                    other.job or "?",
                )
            spans, stage, job = known
            if windows is None:
                windows = [
                    (since if since > lo else lo, until if until < hi else hi)
                    for since, until in _pinned_spans(flow, key)
                ]
            share = 0.0
            for a, b in windows:
                for c, d in spans:
                    left = a if a > c else c
                    right = b if b < d else d
                    if right > left:
                        share += overlap_integral(segments, left, right)
            if share <= 0.0:
                continue
            used += share
            seconds = share / capacity
            contention[stage] = contention.get(stage, 0.0) + seconds
            by_job[job] = by_job.get(job, 0.0) + seconds
        out.residual = (hi - lo) - used / capacity
        if out.upstream is not None:
            out.explained = out.upstream + out.contention_total + out.residual


def attribute_flow(
    flow: FlowFact,
    on_link: Dict[str, List[FlowFact]],
) -> FlowAttribution:
    """Decompose one delivered flow's tardiness (see module docstring).

    ``on_link`` maps link key -> delivered flows crossing it (from
    :meth:`RunArtifacts.flows_on_link`). Flows without a recorded path
    or rate segments degrade to the bare Eq. 1 numbers.
    """
    out, key = _prepare(flow, bottleneck_of(flow))
    if key is not None:
        _attribute_link(key, [(out, flow)], on_link.get(key, ()))
    return out


def attribute_run(artifacts: RunArtifacts) -> Dict:
    """Attribution for every delivered flow, plus the Eq. 2 group view.

    Returns ``{"flows": [FlowAttribution...], "echelonflows": {group:
    {...}}, "coverage": {...}}``. The EchelonFlow entry reports the
    straggler member (the max-tardiness flow that *defines* the group's
    tardiness under Eq. 2) and its decomposition.
    """
    attributions = []
    victims: Dict[str, List[Tuple[FlowAttribution, FlowFact]]] = {}
    delivered = artifacts.delivered_flows()
    #: id of a path tuple -> its bottleneck hop. Flows recorded on one
    #: path share its tuple, so each distinct path is scanned once.
    bottlenecks: Dict[int, Optional[Tuple[str, float]]] = {}
    for flow in delivered:
        hop = bottlenecks.get(id(flow.path), _UNSEEN)
        if hop is _UNSEEN:
            hop = bottlenecks[id(flow.path)] = bottleneck_of(flow)
        out, key = _prepare(flow, hop)
        attributions.append(out)
        if key is not None:
            victims.setdefault(key, []).append((out, flow))
    on_link = group_by_link(delivered)
    for key, group in victims.items():
        _attribute_link(key, group, on_link.get(key, ()))
    by_group: Dict[str, List[FlowAttribution]] = {}
    for attribution in attributions:
        if attribution.group is not None and attribution.tardiness is not None:
            by_group.setdefault(attribution.group, []).append(attribution)
    echelonflows: Dict[str, Dict] = {}
    for group, members in sorted(by_group.items()):
        straggler = max(members, key=lambda a: (a.tardiness, a.flow_id))
        echelonflows[group] = {
            "members": len(members),
            "tardiness": straggler.tardiness,
            "straggler": straggler.stage,
            "straggler_attribution": straggler.to_dict(),
        }
    with_rates = sum(1 for a in attributions if a.residual is not None)
    coverage = {
        "flows": len(attributions),
        "with_rate_data": with_rates,
        "evicted_flows": artifacts.meta.get("evicted_flows", 0),
    }
    return {
        "flows": attributions,
        "echelonflows": echelonflows,
        "coverage": coverage,
    }

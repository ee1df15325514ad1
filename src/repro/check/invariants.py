"""The invariant catalog: what the sanitizer checks, anchored to the paper.

Each entry names one property that must hold at an event boundary of the
co-simulation. The catalog is data (name -> description + paper anchor) so
``docs/correctness.md``, violation reports, and the ``invariants=`` config
allow-list all share one source of truth. The pure helper functions below
implement the checks that are useful outside the sanitizer too (property
tests recompute accounting from scratch through the same code path).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..simulator.allocation import FlowDemand

#: invariant name -> (summary, paper anchor).
INVARIANTS: Dict[str, Tuple[str, str]] = {
    "rate_sanity": (
        "scheduler output is finite, non-negative, and names only active flows",
        "Fig. 7: the coordinator returns bandwidth allocations for live flows",
    ),
    "capacity": (
        "per-link allocated load stays within capacity (recomputed from "
        "scratch, independent of the residual accounting)",
        "fluid-flow model / Property 4: adapted MADD must fit link capacities",
    ),
    "accounting": (
        "the residual LinkAccounting (loads, memberships, nonzero counts) "
        "matches a from-scratch recomputation over active flows",
        "hot-path residual-accounting invariant (docs/performance.md)",
    ),
    "finish_index": (
        "the finish heap's earliest_finish_interval equals a plain scan "
        "of every active flow's time_to_finish",
        "fluid-flow model: the next departure is the first flow to drain "
        "(docs/performance.md)",
    ),
    "work_conservation": (
        "a scheduler that declares itself work-conserving leaves no flow "
        "with headroom on every link of its path",
        "Section 3.2: MADD's slowest-acceptable pacing needs a "
        "work-conserving backfill to avoid idle capacity",
    ),
    "conservation": (
        "bytes drain exactly as injected: per-flow residuals vanish at "
        "completion and global delivered bytes match the flow sizes",
        "fluid-flow model: flows carry `size` bytes, no loss or duplication",
    ),
    "causality": (
        "no task completes before its dependencies; compute starts after "
        "every dependency; flows never finish before they start",
        "Def. 3.1: flows are released by the computation arrangement",
    ),
    "arrangement": (
        "ideal finish times per EchelonFlow are non-decreasing in the "
        "arrangement index, and cached per-flow deadlines agree with the "
        "group's arrangement-derived values; no active member of a group "
        "whose reference is pinned is left without a date",
        "Def. 3.1 / Eqs. 5-7: g(D, r) offsets are monotone",
    ),
    "group_tardiness": (
        "Eq. 2 EchelonFlow tardiness derived from the trace matches the "
        "core implementation and is >= 0 whenever the head flow pinned "
        "the reference (d_0 = r = s_0 implies e_0 - d_0 >= 0)",
        "Defs. 3.2/3.3, Eqs. 1-2",
    ),
    "twin": (
        "the scheduler invocation agrees rate-for-rate with a shadow "
        "execution against a freshly reconstructed network running the "
        "other max-min kernel",
        "hot-path and kernel bit-equivalence guarantee "
        "(docs/performance.md)",
    ),
}


def invariant_names() -> List[str]:
    return sorted(INVARIANTS)


def scan_earliest_finish(network) -> float:
    """:meth:`~repro.simulator.network.NetworkModel.earliest_finish_interval`
    by brute force: the smallest per-flow ``time_to_finish`` over every
    active flow, read flow by flow and never through the finish heap."""
    best = float("inf")
    for state in network.iter_active():
        interval = network.time_to_finish(state.flow.flow_id)
        if interval < best:
            best = interval
    return best


def scan_finishing(network, t: float) -> List[int]:
    """Ids (ascending) of the active flows that drain to their finish
    threshold by time ``t`` -- what ``advance`` up to ``t`` must retire,
    found by a scan over ``projected_remaining`` instead of the heap."""
    return [
        state.flow.flow_id
        for state in network.iter_active()
        if network.projected_remaining(state.flow.flow_id, t)
        <= state.flow.finish_epsilon
    ]


def infeasible_links(
    demands: Sequence[FlowDemand],
    rates: Mapping[int, float],
    tolerance: float = 1e-6,
) -> List[Dict]:
    """Links whose aggregate allocated rate exceeds capacity (with slack).

    The detailed sibling of :func:`repro.simulator.allocation.feasible`:
    instead of a bool it returns one record per oversubscribed link with
    the load, the capacity, and the crossing flows -- what a violation
    report needs. Recomputes usage from scratch, deliberately not reading
    the residual accounting it is used to audit.
    """
    usage: Dict[Tuple[str, str], float] = {}
    capacities: Dict[Tuple[str, str], float] = {}
    crossing: Dict[Tuple[str, str], List[int]] = {}
    for demand in demands:
        rate = rates.get(demand.flow_id, 0.0)
        for link in demand.path:
            key = link.key
            capacities[key] = link.capacity
            usage[key] = usage.get(key, 0.0) + rate
            if rate > 0.0:
                crossing.setdefault(key, []).append(demand.flow_id)
    problems: List[Dict] = []
    for key in sorted(usage):
        used = usage[key]
        capacity = capacities[key]
        if used > capacity * (1.0 + tolerance) + tolerance:
            problems.append(
                {
                    "link": key,
                    "load": used,
                    "capacity": capacity,
                    "excess": used - capacity,
                    "flows": sorted(crossing.get(key, [])),
                }
            )
    return problems


def unserved_flows(
    demands: Sequence[FlowDemand],
    rates: Mapping[int, float],
    remaining: Mapping[int, float],
    finish_threshold: Mapping[int, float],
    tolerance: float = 1e-6,
) -> List[Dict]:
    """Flows a work-conserving allocation should have served harder.

    A flow with bytes left (above its finish threshold) violates work
    conservation when *every* link on its path has residual capacity above
    ``tolerance * capacity``: the scheduler could raise its rate without
    displacing anyone. Flows at their demand cap are exempt.
    """
    usage: Dict[Tuple[str, str], float] = {}
    capacities: Dict[Tuple[str, str], float] = {}
    for demand in demands:
        rate = rates.get(demand.flow_id, 0.0)
        for link in demand.path:
            key = link.key
            capacities[key] = link.capacity
            usage[key] = usage.get(key, 0.0) + rate
    problems: List[Dict] = []
    for demand in demands:
        flow_id = demand.flow_id
        if remaining.get(flow_id, 0.0) <= finish_threshold.get(flow_id, 0.0):
            continue
        rate = rates.get(flow_id, 0.0)
        if demand.cap is not None and rate >= demand.cap - tolerance:
            continue
        headroom = float("inf")
        for link in demand.path:
            key = link.key
            capacity = capacities[key]
            slack = capacity - usage[key]
            allowance = tolerance * max(1.0, capacity)
            if slack <= allowance:
                headroom = 0.0
                break
            headroom = min(headroom, slack)
        if headroom > 0.0:
            problems.append(
                {
                    "flow": flow_id,
                    "rate": rate,
                    "headroom": headroom,
                    "remaining": remaining.get(flow_id, 0.0),
                }
            )
    return problems

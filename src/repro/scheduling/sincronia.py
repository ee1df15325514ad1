"""Sincronia-style Coflow scheduling (BSSI ordering + greedy rates).

Sincronia [Agarwal et al., SIGCOMM '18] showed that a good *ordering* of
coflows plus any order-respecting per-flow mechanism is within 4x of the
optimal weighted CCT. The ordering is computed by BSSI
(Bottleneck-Select-Scale-Iterate):

1. find the bottleneck port (largest total unscheduled load);
2. among coflows with data on that port, *schedule last* the one with the
   largest scaled weight ratio ``load_c(b) / w_c`` (equivalently, minimum
   ``w_c / load_c(b)``);
3. scale the weights of the remaining coflows on that port down by the
   chosen coflow's share;
4. iterate on the rest.

We generalize "port" to any directed link (the big-switch ingress/egress
ports are the special case) and enforce the order with the same greedy
priority fill used elsewhere, making this a drop-in third Coflow baseline
next to Varys. Like the other Coflow schedulers it aims for simultaneous
finishes within each coflow (flows inherit their coflow's rank), so it
shares Coflow's blind spot on PP/FSDP -- which is the point of comparing
against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.flow import FlowState
from ..core.units import EPS
from ..simulator.allocation import greedy_priority_fill
from ..simulator.network import NetworkModel
from .base import Scheduler, SchedulerView, register_scheduler


def bssi_order(
    coflows: Dict[str, List[FlowState]],
    network: NetworkModel,
    weights: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Compute the BSSI coflow permutation (first = highest priority).

    ``coflows`` maps coflow id to its unfinished flow states. Returns the
    ids ordered for scheduling; deterministic (ties by id).
    """
    weights = dict(weights or {})
    remaining = {cid: list(states) for cid, states in coflows.items() if states}
    scaled_weight = {cid: weights.get(cid, 1.0) for cid in remaining}
    # Per-coflow per-link loads, computed once.
    load: Dict[str, Dict[Tuple[str, str], float]] = {}
    for cid, states in remaining.items():
        per_link: Dict[Tuple[str, str], float] = {}
        for state in states:
            for link in network.path(state.flow.flow_id):
                per_link[link.key] = per_link.get(link.key, 0.0) + state.remaining
        load[cid] = per_link

    reverse_order: List[str] = []
    active = set(remaining)
    while active:
        # 1. bottleneck link over unscheduled coflows.
        total: Dict[Tuple[str, str], float] = {}
        for cid in active:
            for key, value in load[cid].items():
                total[key] = total.get(key, 0.0) + value
        bottleneck = max(sorted(total), key=lambda key: total[key])
        # 2. schedule last: max load/weight on the bottleneck.
        candidates = [cid for cid in active if load[cid].get(bottleneck, 0.0) > 0]
        if not candidates:
            # No coflow touches the bottleneck (can't happen unless all
            # loads are zero); fall back to arbitrary deterministic pick.
            candidates = sorted(active)
        chosen = max(
            sorted(candidates),
            key=lambda cid: load[cid].get(bottleneck, 0.0)
            / max(scaled_weight[cid], EPS),
        )
        # 3. scale weights of the others on that link.
        chosen_load = load[chosen].get(bottleneck, 0.0)
        if chosen_load > 0:
            factor = scaled_weight[chosen] / chosen_load
            for cid in active:
                if cid == chosen:
                    continue
                scaled_weight[cid] = max(
                    0.0,
                    scaled_weight[cid] - factor * load[cid].get(bottleneck, 0.0),
                )
        reverse_order.append(chosen)
        active.remove(chosen)
    reverse_order.reverse()
    return reverse_order


@register_scheduler
class SincroniaScheduler(Scheduler):
    """BSSI coflow ordering enforced by greedy order-respecting rates."""

    name = "sincronia"
    #: The order-respecting greedy fill bottlenecks every flow it serves.
    work_conserving = True

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self.weights = dict(weights or {})

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        network = view.network
        coflows: Dict[str, List[FlowState]] = {}
        # Incremental group buckets; BSSI's own deterministic tie-breaks
        # (sorted ids everywhere) make enumeration order irrelevant.
        for group_id, states in view.groups():
            if group_id is None:
                for state in states:
                    coflows[f"_flow{state.flow.flow_id}"] = [state]
            else:
                coflows[group_id] = states
        order = bssi_order(coflows, network, self.weights)
        ordered_states: List[FlowState] = []
        for cid in order:
            ordered_states.extend(
                sorted(coflows[cid], key=lambda s: (s.remaining, s.flow.flow_id))
            )
        return greedy_priority_fill(
            view.fill_order(ordered_states), list(network.column_capacities())
        )

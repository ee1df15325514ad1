"""Coflow scheduling: Varys' SEBF + MADD, generalized to arbitrary paths.

This is the Fig. 2b comparison point and the algorithmic substrate that
Property 4 adapts. Two pieces:

* **MADD** (Minimum Allocation for Desired Duration): give every flow of a
  coflow the smallest rate finishing it exactly at the coflow's bottleneck
  completion time ``Gamma``, so all flows finish together (the Coflow
  philosophy the paper argues against for PP/FSDP).
* **SEBF** (Smallest Effective Bottleneck First): order coflows by their
  remaining ``Gamma``; earlier coflows allocate on fresher capacity.

On a big switch ``Gamma`` is the classic port-load bound; on general
topologies we use the equivalent per-link form
``Gamma = max_link sum(remaining bytes crossing link) / capacity``.

The kernels run over link *columns* (dense integer link indices the
network's residual accounting hands out, see
:class:`~repro.simulator.allocation.LinkAccounting`): a coflow's load is
built once per decision as a ``{column: bytes}`` map by :func:`link_load`,
and :func:`remaining_gamma` evaluates it against any capacity list --
the full capacities for SEBF ordering, the residual left by earlier
coflows for pacing.

A final work-conserving backfill hands leftover capacity to flows in SEBF
order so no link idles while a flow wants it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.flow import FlowState
from ..core.units import EPS
from ..simulator.allocation import greedy_priority_fill
from .base import Scheduler, SchedulerView, register_scheduler

#: A load: bytes per link column, in first-crossing order.
Load = Dict[int, float]


def link_load(remaining: Sequence[float], columns: Sequence[Sequence[int]]) -> Load:
    """Remaining bytes per link column over a set of flows.

    ``remaining[i]`` and ``columns[i]`` are flow ``i``'s bytes left and
    path as link columns. Bytes accumulate in (flow, path position)
    order, so a flow crossing a link twice counts twice and every build
    of the same load is bit-identical.
    """
    load: Load = {}
    for left, path in zip(remaining, columns):
        for column in path:
            load[column] = load.get(column, 0.0) + left
    return load


def remaining_gamma(load: Load, capacities: Sequence[float]) -> float:
    """Bottleneck completion time of a load on (residual) capacities.

    ``inf`` when some needed link has no residual capacity at all.
    """
    gamma = 0.0
    for column, total in load.items():
        capacity = capacities[column]
        if capacity <= EPS:
            return float("inf")
        ratio = total / capacity
        if ratio > gamma:
            gamma = ratio
    return gamma


def madd_rates(
    states: Sequence[FlowState], load: Load, capacities: Sequence[float]
) -> Dict[int, float]:
    """Minimum allocation finishing every flow at the coflow's ``Gamma``.

    ``load`` is the coflow's :func:`link_load`. A finite ``Gamma`` paces
    every flow however small it is; only ``Gamma == 0`` (nothing left to
    send) gives rate 0.
    """
    gamma = remaining_gamma(load, capacities)
    if gamma == float("inf") or gamma <= 0.0:
        return {state.flow.flow_id: 0.0 for state in states}
    return {state.flow.flow_id: state.remaining / gamma for state in states}


def _consume(
    rates: Dict[int, float],
    columns: Sequence[Sequence[int]],
    residual: List[float],
) -> None:
    """Take each flow's rate off its path, clamping at zero.

    ``columns`` is parallel to ``rates``' iteration order.
    """
    for rate, path in zip(rates.values(), columns):
        for column in path:
            left = residual[column] - rate
            residual[column] = left if left > 0.0 else 0.0


@register_scheduler
class CoflowMaddScheduler(Scheduler):
    """Varys: SEBF inter-coflow ordering + MADD intra-coflow allocation.

    Ungrouped flows are treated as singleton coflows. ``backfill`` toggles
    the work-conserving pass (on by default, as in Varys).
    """

    name = "coflow"

    def __init__(self, backfill: bool = True) -> None:
        self.backfill = backfill
        # MADD pacing alone deliberately idles capacity; only the
        # backfill pass makes the allocation work-conserving.
        self.work_conserving = backfill

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        network = view.network
        coflows: List[Tuple[str, List[FlowState]]] = []
        # Incremental group buckets; the SEBF sort below fully determines
        # the final order, so bucket enumeration order is irrelevant.
        for group_id, states in view.groups():
            if group_id is None:
                for state in states:  # singleton pseudo-coflows
                    coflows.append((f"_flow{state.flow.flow_id}", [state]))
            else:
                coflows.append((group_id, states))

        # Maintained by the network's residual accounting; a (harmless)
        # superset of the links under the currently-active flows.
        capacities = network.column_capacities()
        columns_of = network.columns
        # SEBF: smallest remaining bottleneck first, on *full* capacities.
        # Each coflow's load is built once and reused for pacing below.
        keyed = []
        for group_id, states in coflows:
            columns = [columns_of(state.flow.flow_id) for state in states]
            load = link_load([state.remaining for state in states], columns)
            gamma = remaining_gamma(load, capacities)
            keyed.append((gamma, group_id, states, columns, load))
        keyed.sort(key=lambda item: (item[0], item[1]))

        rates: Dict[int, float] = {}
        residual = list(capacities)
        ordered_states: List[FlowState] = []
        for _gamma, _group_id, states, columns, load in keyed:
            group_rates = madd_rates(states, load, residual)
            _consume(group_rates, columns, residual)
            rates.update(group_rates)
            ordered_states.extend(
                sorted(states, key=lambda s: (s.remaining, s.flow.flow_id))
            )

        if self.backfill:
            rates = greedy_priority_fill(
                view.fill_order(ordered_states), residual, rates
            )
        return rates

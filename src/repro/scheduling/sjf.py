"""Baseline: size-based per-flow priority (pFabric-style).

Flows are served in ascending remaining-size order; each grabs the residual
bottleneck of its path (strict priority with spatial reuse). This is the
classic individual-flow-scheduling point in the design space the paper's
related work starts from (pFabric / PIAS / PDQ): it minimizes mean FCT but
is oblivious to application semantics.
"""

from __future__ import annotations

from typing import Dict

from ..simulator.allocation import greedy_priority_fill
from .base import Scheduler, SchedulerView, register_scheduler


@register_scheduler
class ShortestFlowFirstScheduler(Scheduler):
    """Smallest-remaining-size-first strict priority."""

    name = "sjf"
    #: Greedy fill serves every flow in order; each either drains its
    #: path bottleneck to zero or was already blocked: work-conserving.
    work_conserving = True

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        states = view.active_states()
        ordered = sorted(states, key=lambda s: (s.remaining, s.flow.flow_id))
        return greedy_priority_fill(
            view.fill_order(ordered), list(view.network.column_capacities())
        )


@register_scheduler
class FifoFlowScheduler(Scheduler):
    """Earliest-start-first strict priority (per-flow FIFO baseline)."""

    name = "fifo"
    work_conserving = True

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        states = view.active_states()
        ordered = sorted(states, key=lambda s: (s.start_time, s.flow.flow_id))
        return greedy_priority_fill(
            view.fill_order(ordered), list(view.network.column_capacities())
        )

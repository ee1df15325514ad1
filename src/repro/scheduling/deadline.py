"""Per-flow EDF: deadlines without the group structure (ablation).

EchelonFlow's scheduler uses arrangement deadlines *and* group structure
(stages paced MADD-style, groups ranked together). This baseline keeps
only the deadlines: every flow is served independently by earliest ideal
finish time, strict priority, no pacing. Comparing it against the full
scheduler isolates what the *grouping* buys:

* without stage-level MADD, the flows of one Coflow stage serialize
  instead of finishing together, delaying barriers behind the last flow;
* without group ranking, a flow with a late deadline from an urgent group
  can be starved by unrelated earlier-deadline flows.

``EdfFlowScheduler`` still honours the recalibration story (deadlines
pinned to references), so differences against ``EchelonMaddScheduler``
are attributable to structure, not information.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.flow import FlowState
from ..simulator.allocation import greedy_priority_fill
from .base import Scheduler, SchedulerView, register_scheduler


@register_scheduler
class EdfFlowScheduler(Scheduler):
    """Strict per-flow earliest-deadline-first on ideal finish times."""

    name = "edf-flow"
    work_conserving = True

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        keyed: List[Tuple[float, int, FlowState]] = []
        for state in view.active_states():
            deadline = view.ideal_finish_time(state)
            if deadline is None:
                deadline = state.start_time  # ungrouped: finish ASAP
            keyed.append((deadline, state.flow.flow_id, state))
        keyed.sort(key=lambda item: item[:2])
        return greedy_priority_fill(
            view.fill_order(state for _d, _fid, state in keyed),
            list(view.network.column_capacities()),
        )

"""EchelonFlow scheduling: MADD adapted to arrangement-derived deadlines.

Property 4 of the paper states that Coflow algorithms adapt to EchelonFlow
"with a different metric for evaluating flows": intra-EchelonFlow we pace
against the *latest flow with the largest tardiness* instead of the longest
completion time; inter-EchelonFlow we rank groups by their tardiness instead
of their CCT. This module is that adaptation, concretely:

**Intra-EchelonFlow.** Flows sharing one arrangement index form a stage
(a Coflow inside the EchelonFlow -- e.g. one all-gather in FSDP) and share
an ideal finish time ``d_g``. Stages are served in ideal-finish order
(earliest deadline first; offsets are non-decreasing so this is also index
order). Each stage is paced MADD-style to finish at

    ``T_g = max(d_g, now + Gamma_g)``

where ``Gamma_g`` is the stage's bottleneck duration on the capacity left by
earlier stages. A stage behind the formation (``d_g`` unreachable or past)
therefore runs flat-out to catch up -- the recalibration of Fig. 6b -- while
a stage ahead of the formation is paced to land exactly on its ideal finish
time, leaving bandwidth for everyone else (the "minimum allocation" idea of
MADD). For an Eq.-5 arrangement (single stage) this degenerates to *exactly*
Varys' MADD, which is Property 2 in executable form.

**Inter-EchelonFlow.** The default policy is two-level. Across tenants,
jobs rank ascending by their least weighted projected tardiness -- the
cross-tenant analog of Varys' SEBF with Smith's-rule weighting, which
minimizes the Eq.-4 sum and keeps small tenants from convoying behind a
structurally-late bulk job; registered tenants always outrank
unregistered best-effort traffic. Within a job, EchelonFlows rank by
*current* tardiness ``now - d_earliest``, most tardy first: the
EchelonFlow furthest behind its formation catches up first, which is
group-level earliest-deadline-first -- simultaneously the literal reading
of the paper's "rank EchelonFlows by each EchelonFlow's tardiness" and a
classically sound deadline policy that ages naturally and never mistakes
a *large* group (big ``Gamma``) for a *late* one. Five alternative
orderings are provided for ablation E12/E23.

**Work conservation.** A final backfill pass hands leftover capacity to
flows in schedule order, so pacing never idles a link that has demand.

**Kernels.** Each decision builds every stage's ``{column: bytes}`` load
once (:func:`~repro.scheduling.coflow_madd.link_load`, over the link
columns the network's residual accounting numbers) and evaluates it with
:func:`~repro.scheduling.coflow_madd.remaining_gamma` twice: on the full
capacities for ordering and on the residual for pacing. Pacing and the
backfill (:func:`~repro.simulator.allocation.greedy_priority_fill`) then
update one column-indexed residual list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.echelonflow import EchelonFlow
from ..core.flow import FlowState
from ..simulator.allocation import greedy_priority_fill
from .base import Scheduler, SchedulerView, register_scheduler
from .coflow_madd import Load, link_load, remaining_gamma

#: Inter-EchelonFlow ordering policies (ablation E12).
ORDERINGS = ("tardiness", "projected", "hybrid", "tardiness-asc", "sebf", "fifo")

#: Deadline anchors (ablation E14).
ANCHORS = ("arrangement", "flow_start")


class _Stage:
    """Flows of one EchelonFlow sharing one arrangement index.

    Each decision reads a flow's state once, into the parallel lists
    ``flow_ids``, ``remaining`` and ``columns`` (its path as link
    columns), and builds the stage's load once; Gamma evaluates that
    load against the full capacities and again on the residual.
    """

    __slots__ = ("deadline", "flow_ids", "remaining", "columns", "load")

    def __init__(
        self,
        deadline: float,
        flow_ids: List[int],
        remaining: List[float],
        columns: List[Tuple[int, ...]],
    ) -> None:
        self.deadline = deadline
        self.flow_ids = flow_ids
        self.remaining = remaining
        self.columns = columns
        self.load = link_load(remaining, columns)

    def gamma(self, capacities: Sequence[float]) -> float:
        return remaining_gamma(self.load, capacities)


class _Group:
    """One EchelonFlow's active stages, in deadline order."""

    def __init__(
        self,
        group_id: str,
        stages: List[_Stage],
        job_id: Optional[str] = None,
        weight: float = 1.0,
        registered: bool = True,
    ) -> None:
        self.group_id = group_id
        self.stages = sorted(stages, key=lambda s: s.deadline)
        self.job_id = job_id
        self.weight = weight
        #: Whether an EchelonFlow was reported for this traffic (Fig. 7's
        #: agent registration); unregistered flows are best-effort.
        self.registered = registered

    def load(self) -> Load:
        """The whole EchelonFlow's load: every stage, in deadline order."""
        if len(self.stages) == 1:
            return self.stages[0].load
        return link_load(
            [left for stage in self.stages for left in stage.remaining],
            [path for stage in self.stages for path in stage.columns],
        )

    def projected_tardiness(self, now: float, capacities: Sequence[float]) -> float:
        """``max_g (now + Gamma_g - d_g)``: lateness if served alone now."""
        worst = float("-inf")
        for stage in self.stages:
            gamma = stage.gamma(capacities)
            if gamma == float("inf"):
                return float("inf")
            worst = max(worst, now + gamma - stage.deadline)
        return worst

    def current_tardiness(self, now: float) -> float:
        """``now - d_earliest``: how far behind the formation the group's
        most imminent stage already is. Positive lateness is amplified by
        the EchelonFlow's weight (the Eq.-4 weighted-sum variant);
        negative slack is left unweighted so early groups compare by pure
        deadline (EDF)."""
        lateness = now - min(stage.deadline for stage in self.stages)
        if lateness > 0:
            lateness *= self.weight
        return lateness


@register_scheduler
class EchelonMaddScheduler(Scheduler):
    """The EchelonFlow coordinator algorithm (adapted MADD, Property 4).

    Parameters
    ----------
    ordering:
        Inter-EchelonFlow ranking policy, all ranking "by each
        EchelonFlow's tardiness" as the paper prescribes, differing in
        direction and tenant awareness (ablation E12):

        * ``"hybrid"`` (default) -- two-level. Registered tenants outrank
          unregistered best-effort traffic; jobs rank ascending by their
          least weighted projected tardiness (the cross-tenant SEBF/SJF
          analog: minimizes the Eq.-4 sum and mean JCT, and keeps small
          tenants from convoying behind a structurally-late bulk job --
          Jain 0.93 vs 0.52 in E23); within a job, the most *currently*
          tardy EchelonFlow first (group-level EDF), which preserves the
          formation that gates the job's computation. Wins or ties every
          experiment in the battery.
        * ``"tardiness"`` -- globally most *currently* tardy first
          (``now - d_earliest``, weight-amplified when late). Group-level
          EDF: starvation-free across arbitrary traffic, maximally
          protective of the most-behind tenant, but convoys small tenants
          behind a structurally-late bulk job (E23).
        * ``"projected"`` -- most *projected* tardy first
          (``now + Gamma - d``): the naive transliteration; its Gamma
          term lets freshly-started bulk coflows outrank time-critical
          staggered flows (see E12b and the 3D hybrid workload).
        * ``"tardiness-asc"`` -- least projected tardiness first, flat
          (no job level, no registration tiering).
        * ``"sebf"`` -- ignore deadlines, rank by bottleneck duration.
        * ``"fifo"`` -- rank by group id.
    backfill:
        Work-conserving leftover pass (default on).
    anchor:
        ``"arrangement"`` anchors deadlines on arrangement ideal finish
        times (Eq. 1); ``"flow_start"`` anchors each flow on its own start
        time, which turns the objective into classic completion time and
        loses the recovery property (ablation E14).
    """

    name = "echelon"

    def __init__(
        self,
        ordering: str = "hybrid",
        backfill: bool = True,
        anchor: str = "arrangement",
    ) -> None:
        if ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {ordering!r}; options: {ORDERINGS}")
        if anchor not in ANCHORS:
            raise ValueError(f"unknown anchor {anchor!r}; options: {ANCHORS}")
        self.ordering = ordering
        self.backfill = backfill
        self.anchor = anchor
        # Adapted MADD paces stages to their deadlines (idling capacity
        # on purpose); work conservation comes from the backfill pass.
        self.work_conserving = backfill

    # ------------------------------------------------------------------

    def _deadlines(
        self, states: List[FlowState], echelonflow: Optional[EchelonFlow]
    ) -> List[float]:
        """The stage deadline of each flow of one bucket (``echelonflow``
        is ``None`` when ungrouped or unregistered): its arrangement ideal
        finish time (:meth:`SchedulerView.ideal_finish_time`, with the
        group lookup hoisted out of the per-flow loop), else its start
        time -- finish-ASAP semantics for flows without a deadline yet."""
        if self.anchor == "flow_start":
            return [state.start_time for state in states]
        if echelonflow is not None and echelonflow.reference_time is not None:
            ideal_of = echelonflow.ideal_finish_time_of
            ideals = [ideal_of(state.flow) for state in states]
        else:
            ideals = [state.ideal_finish_time for state in states]
        return [
            state.start_time if ideal is None else ideal
            for state, ideal in zip(states, ideals)
        ]

    def _build_groups(self, view: SchedulerView) -> List[_Group]:
        groups: List[_Group] = []
        network = view.network
        columns_of = network.columns
        # The network's incremental buckets, already sorted by group id
        # with ungrouped flows last, each bucket fid-sorted -- so every
        # stage below lists its flows in fid order too.
        for group_id, states in view.groups():
            flow_ids = network.group_flow_ids(group_id)
            echelonflow = (
                view.echelonflows.get(group_id) if group_id is not None else None
            )
            deadlines = self._deadlines(states, echelonflow)
            if group_id is None:
                # Every ungrouped flow is its own singleton group.
                for flow_id, state, deadline in zip(flow_ids, states, deadlines):
                    stage = _Stage(
                        deadline, [flow_id], [state.remaining], [columns_of(flow_id)]
                    )
                    groups.append(
                        _Group(
                            f"_flow{flow_id}",
                            [stage],
                            job_id=state.flow.job_id,
                            registered=False,
                        )
                    )
                continue
            if deadlines.count(deadlines[0]) == len(deadlines):
                # One stage (a Coflow-like or not yet dated EchelonFlow).
                stages = [
                    _Stage(
                        deadlines[0],
                        list(flow_ids),
                        [state.remaining for state in states],
                        [columns_of(flow_id) for flow_id in flow_ids],
                    )
                ]
            else:
                members: Dict[float, Tuple[List[int], List[float], List]] = {}
                for flow_id, state, deadline in zip(flow_ids, states, deadlines):
                    stage_members = members.get(deadline)
                    if stage_members is None:
                        stage_members = members[deadline] = ([], [], [])
                    stage_members[0].append(flow_id)
                    stage_members[1].append(state.remaining)
                    stage_members[2].append(columns_of(flow_id))
                stages = [_Stage(d, *lists) for d, lists in members.items()]
            job_id = echelonflow.job_id if echelonflow is not None else None
            weight = echelonflow.weight if echelonflow is not None else 1.0
            if job_id is None:
                job_id = states[0].flow.job_id
            groups.append(_Group(group_id, stages, job_id=job_id, weight=weight))
        return groups

    @staticmethod
    def _weighted(group: _Group, tau: float) -> float:
        """Scale a tardiness key by the EchelonFlow's weight (Eq. 4's
        weighted-sum variant) for *descending* (most-urgent-first) sorts:
        a weight-w group that is t behind counts as w*t of objective, so
        it sorts as if w times more urgent."""
        if tau == float("inf") or tau == float("-inf"):
            return tau
        return group.weight * tau

    @staticmethod
    def _weighted_ascending(group: _Group, tau: float) -> float:
        """Weight adjustment for *ascending* (smallest-key-first) sorts --
        Smith's rule: a heavier group must sort earlier, so positive
        lateness divides by the weight and negative slack multiplies."""
        if tau == float("inf") or tau == float("-inf"):
            return tau
        if tau >= 0:
            return tau / group.weight
        return tau * group.weight

    def _order_groups(
        self,
        groups: List[_Group],
        now: float,
        capacities: Sequence[float],
    ) -> List[_Group]:
        if self.ordering == "fifo":
            return groups
        if self.ordering == "tardiness":
            # Most currently-tardy first (weight-amplified lateness); ties
            # broken toward heavier groups, then by id for determinism.
            keyed_current = [
                (-g.current_tardiness(now), -g.weight, g.group_id, g)
                for g in groups
            ]
            keyed_current.sort(key=lambda item: item[:3])
            return [g for *_key, g in keyed_current]
        if self.ordering == "hybrid":
            # Two-level: jobs ranked ascending by their *projected* lateness
            # (the Varys-SEBF analog across tenants: nearly-on-time jobs
            # first, which both minimizes the Eq.-4 sum and keeps small
            # tenants from convoying behind a structurally-late bulk job --
            # measured as Jain 0.93 vs 0.52 in E23); within a job, the most
            # *currently* tardy EchelonFlow first (group-level EDF), which
            # preserves the formation that gates the job's computation.
            tau = {
                g.group_id: self._weighted_ascending(
                    g, g.projected_tardiness(now, capacities)
                )
                for g in groups
            }
            job_key: Dict[Optional[str], float] = {}
            for g in groups:
                value = tau[g.group_id]
                if value == float("inf"):
                    continue  # blocked groups don't define a job's urgency
                current = job_key.get(g.job_id, float("inf"))
                job_key[g.job_id] = min(current, value)
            keyed = [
                (
                    # Registered tenants (those whose frameworks reported
                    # EchelonFlows through the agent) outrank best-effort
                    # unregistered traffic -- the coordinator protects what
                    # it was asked to schedule.
                    0 if g.registered else 1,
                    job_key.get(g.job_id, float("inf")),
                    g.job_id or "",
                    # Most currently-behind first within the job.
                    -g.current_tardiness(now),
                    g.group_id,
                    g,
                )
                for g in groups
            ]
            keyed.sort(key=lambda item: item[:5])
            return [g for *_key, g in keyed]
        if self.ordering == "sebf":
            keyed = [
                (remaining_gamma(g.load(), capacities), g.group_id, g)
                for g in groups
            ]
        else:
            keyed = [
                (
                    self._weighted(g, g.projected_tardiness(now, capacities)),
                    g.group_id,
                    g,
                )
                for g in groups
            ]
            if self.ordering == "projected":
                # Most projected-behind first; +inf (blocked) groups sort
                # last either way since negation keeps them extreme.
                keyed = [(-value, gid, g) for value, gid, g in keyed]
        keyed.sort(key=lambda item: (item[0], item[1]))
        return [g for _value, _gid, g in keyed]

    # ------------------------------------------------------------------

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        now = view.now
        # Maintained by the network's residual accounting; a (harmless)
        # superset of the links under the currently-active flows.
        capacities = view.network.column_capacities()

        groups = self._build_groups(view)
        ordered = self._order_groups(groups, now, capacities)

        rates: Dict[int, float] = {}
        residual = list(capacities)
        fill_ids: List[int] = []
        fill_columns: List[Tuple[int, ...]] = []
        for group in ordered:
            for stage in group.stages:
                fill_ids.extend(stage.flow_ids)
                fill_columns.extend(stage.columns)
                gamma = remaining_gamma(stage.load, residual)
                if gamma == float("inf"):
                    for flow_id in stage.flow_ids:
                        rates[flow_id] = 0.0
                    continue
                # Pace the stage to land on max(deadline, earliest feasible).
                target = max(stage.deadline, now + gamma)
                horizon = target - now
                for flow_id, remaining, path in zip(
                    stage.flow_ids, stage.remaining, stage.columns
                ):
                    # Any positive horizon paces, however short: a stage
                    # of a few bytes must not starve at rate 0.
                    rate = remaining / horizon if horizon > 0.0 else 0.0
                    rates[flow_id] = rate
                    for column in path:
                        left = residual[column] - rate
                        residual[column] = left if left > 0.0 else 0.0

        if self.backfill:
            rates = greedy_priority_fill(
                zip(fill_ids, fill_columns), residual, rates
            )
        return rates

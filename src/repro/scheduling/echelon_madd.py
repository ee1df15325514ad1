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

**Kernels.** What a decision derives from a group's *shape* -- stage
deadlines, the stage partition, flow ids, link-column tuples, each
stage's split into link sets
(:func:`~repro.scheduling.coflow_madd.link_sets`) and each set's least
full capacity -- is kept across decisions as one immutable template per
network bucket, keyed by the bucket's revision token
(:meth:`~repro.simulator.network.NetworkModel.group_token`), the
EchelonFlow's ``(reference_time, weight, job_id)`` and the network's
``capacity_epoch``; a changed key rebuilds only the stages whose
members or paths changed, and a bucket that is gone is dropped. A
decision then makes one pass per stage: it reads ``remaining`` by bucket
position, sums it per link set
(:func:`~repro.scheduling.coflow_madd.set_totals`: one value per flow
plus the few shared columns) and, for the orderings that rank by
projected tardiness, evaluates
:func:`~repro.scheduling.coflow_madd.remaining_gamma` on the cached
full-capacity minima. The pass yields one flat record per group, which
every ordering sorts by its key. Pacing evaluates Gamma again on each
set's least residual; pacing and the backfill
(:func:`~repro.simulator.allocation.greedy_priority_fill`) update one
column-indexed residual list.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.echelonflow import EchelonFlow
from ..core.flow import FlowState
from ..simulator.allocation import greedy_priority_fill
from .base import Scheduler, SchedulerView, register_scheduler
from .coflow_madd import (
    Floors,
    LinkSets,
    bottlenecks,
    link_load,
    link_sets,
    remaining_gamma,
    set_totals,
)

#: Inter-EchelonFlow ordering policies (ablation E12).
ORDERINGS = ("tardiness", "projected", "hybrid", "tardiness-asc", "sebf", "fifo")

#: Deadline anchors (ablation E14).
ANCHORS = ("arrangement", "flow_start")

_INF = float("inf")

#: Orderings whose key reads each group's projected tardiness, i.e. Gamma
#: of every stage on the full capacities.
_PROJECTED = ("hybrid", "projected", "tardiness-asc")


#: One stage of a template: ``(deadline, flow_ids, positions, columns,
#: plan, floors)``. The stage's flow ids, their positions in the
#: network's bucket (where a decision reads ``remaining``) and their
#: paths as link columns, all fid-ordered; the paths' link sets
#: (:func:`~repro.scheduling.coflow_madd.link_sets`) and their least full
#: capacities at the template's capacity epoch.
_Stage = Tuple[
    float,
    Tuple[int, ...],
    Tuple[int, ...],
    Tuple[Tuple[int, ...], ...],
    LinkSets,
    Floors,
]


class _Template(NamedTuple):
    """The decision-invariant shape of one EchelonFlow (or one ungrouped
    flow): everything a decision derives from bucket membership, paths,
    capacities and the EchelonFlow's ``(reference_time, weight, job_id)``.

    ``stages`` holds one ``_Stage`` per stage, in deadline order.
    """

    group_id: str
    job_id: Optional[str]
    weight: float
    #: Whether an EchelonFlow was reported for this traffic (Fig. 7's
    #: agent registration); ungrouped flows are best-effort.
    registered: bool
    earliest: float
    stages: Tuple[_Stage, ...]


def _stage(
    deadline: float,
    flow_ids: Tuple[int, ...],
    positions: Tuple[int, ...],
    old: Optional[_Stage],
    columns_of,
    capacities: Sequence[float],
    floors_valid: bool,
) -> _Stage:
    """One stage of a rebuilt template. It keeps ``old``'s link sets when
    ``old`` has the same deadline, flow ids and paths, and its floors too
    when ``floors_valid``; otherwise the paths are split again."""
    columns = tuple([columns_of(flow_id) for flow_id in flow_ids])
    if (
        old is not None
        and old[0] == deadline
        and old[1] == flow_ids
        and old[3] == columns
    ):
        plan = old[4]
        if floors_valid:
            return (deadline, flow_ids, positions, columns, plan, old[5])
    else:
        plan = link_sets(columns)
    return (deadline, flow_ids, positions, columns, plan, bottlenecks(plan, capacities))


def _lateness(template: _Template, now: float) -> float:
    """Current tardiness ``now - d_earliest``: how far behind the formation
    the group's most imminent stage already is. Positive lateness is
    amplified by the EchelonFlow's weight (the Eq.-4 weighted-sum
    variant); negative slack is left unweighted so early groups compare by
    pure deadline (EDF)."""
    lateness = now - template.earliest
    if lateness > 0:
        lateness *= template.weight
    return lateness


def _weighted(weight: float, tau: float) -> float:
    """Scale a tardiness key by the EchelonFlow's weight (Eq. 4's
    weighted-sum variant) for *descending* (most-urgent-first) sorts:
    a weight-w group that is t behind counts as w*t of objective, so
    it sorts as if w times more urgent."""
    if tau == _INF or tau == -_INF:
        return tau
    return weight * tau


def _weighted_ascending(weight: float, tau: float) -> float:
    """Weight adjustment for *ascending* (smallest-key-first) sorts --
    Smith's rule: a heavier group must sort earlier, so positive
    lateness divides by the weight and negative slack multiplies."""
    if tau == _INF or tau == -_INF:
        return tau
    if tau >= 0:
        return tau / weight
    return tau * weight


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
        #: group id -> (key, templates) of every bucket seen at the last
        #: decision; the key is the bucket's revision token, the
        #: network's ``capacity_epoch`` and the EchelonFlow's
        #: ``reference_time``, ``weight`` and ``job_id``.
        self._templates: Dict[Optional[str], Tuple] = {}
        #: The capacity list every template's floors were read from.
        self._capacities: Optional[List[float]] = None

    def fork(self) -> "EchelonMaddScheduler":
        """A copy that shares the parent's templates instead of copying
        them: they are immutable, and a forked network keeps the bucket
        tokens, column numbering, capacities and capacity epoch they were
        keyed on, until it changes one of them."""
        twin = copy.copy(self)
        twin._templates = dict(self._templates)
        return twin

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

    def _build_templates(
        self,
        group_id: Optional[str],
        states: List[FlowState],
        flow_ids: List[int],
        echelonflow: Optional[EchelonFlow],
        columns_of,
        capacities: Sequence[float],
        previous: Tuple[_Template, ...],
        floors_valid: bool,
    ) -> Tuple[_Template, ...]:
        """One bucket's templates: a single template for an EchelonFlow
        bucket, one singleton template per flow for the ungrouped
        (``None``) bucket.

        A stage of ``previous`` (the bucket's last templates) with the
        same deadline, flow ids and paths keeps its link sets, and its
        floors too when ``floors_valid`` (same capacities and epoch);
        only its positions are re-read.
        """
        deadlines = self._deadlines(states, echelonflow)
        if group_id is None:
            old_stages = {
                template.stages[0][1][0]: template.stages[0] for template in previous
            }
            return tuple(
                _Template(
                    f"_flow{flow_id}",
                    state.flow.job_id,
                    1.0,
                    False,
                    deadline,
                    (
                        _stage(
                            deadline,
                            (flow_id,),
                            (position,),
                            old_stages.get(flow_id),
                            columns_of,
                            capacities,
                            floors_valid,
                        ),
                    ),
                )
                for position, (flow_id, state, deadline) in enumerate(
                    zip(flow_ids, states, deadlines)
                )
            )
        members: Dict[float, List[int]] = {}
        for position, deadline in enumerate(deadlines):
            positions = members.get(deadline)
            if positions is None:
                positions = members[deadline] = []
            positions.append(position)
        old_stages = {old[0]: old for old in previous[0].stages} if previous else {}
        stages = tuple(
            _stage(
                deadline,
                tuple([flow_ids[p] for p in positions]),
                tuple(positions),
                old_stages.get(deadline),
                columns_of,
                capacities,
                floors_valid,
            )
            for deadline, positions in sorted(members.items())
        )
        job_id = echelonflow.job_id if echelonflow is not None else None
        weight = echelonflow.weight if echelonflow is not None else 1.0
        if job_id is None:
            job_id = states[0].flow.job_id
        return (_Template(group_id, job_id, weight, True, stages[0][0], stages),)

    def _rank(self, view: SchedulerView, capacities: Sequence[float]) -> List[Tuple]:
        """This decision's groups in service order, as
        ``(template, value, stages)`` records.

        Each stage is ``(deadline, flow_ids, remaining, columns, totals,
        plan)``, ``(totals, plan)`` being its load: one pass per stage
        reads ``remaining`` by bucket position, sums it per link set and,
        for the orderings that read it, evaluates Gamma on the template's
        full-capacity floors. ``value`` is the
        group's projected tardiness (``max_g (now + Gamma_g - d_g)``,
        ``inf`` once a stage is blocked) or, under ``"sebf"``, the whole
        group's bottleneck. Templates are rebuilt only for buckets whose
        key changed, and forgotten once their bucket is gone.
        """
        now = view.now
        ordering = self.ordering
        projected = ordering in _PROJECTED
        network = view.network
        echelonflows = view.echelonflows
        epoch = network.capacity_epoch
        cached = self._templates
        same_capacities = capacities is self._capacities
        self._capacities = capacities
        kept: Dict[Optional[str], Tuple] = {}
        records: List[Tuple] = []
        # The network's buckets come sorted by group id with ungrouped
        # flows last, each bucket fid-sorted.
        for group_id, states in view.groups():
            echelonflow = (
                echelonflows.get(group_id) if group_id is not None else None
            )
            token = network.group_token(group_id)
            if echelonflow is None:
                key = (token, epoch, None, None, None)
            else:
                ef = echelonflow
                key = (token, epoch, ef.reference_time, ef.weight, ef.job_id)
            entry = cached.get(group_id)
            if entry is None or entry[0] != key:
                entry = (
                    key,
                    self._build_templates(
                        group_id,
                        states,
                        network.group_flow_ids(group_id),
                        echelonflow,
                        network.columns,
                        capacities,
                        () if entry is None else entry[1],
                        same_capacities
                        and entry is not None
                        and entry[0][1] == epoch,
                    ),
                )
            kept[group_id] = entry
            for template in entry[1]:
                stages = []
                value = -_INF
                for stage in template.stages:
                    deadline, flow_ids, positions, columns, plan, floors = stage
                    remaining = [states[p].remaining for p in positions]
                    totals = set_totals(plan, remaining)
                    stages.append(
                        (deadline, flow_ids, remaining, columns, totals, plan)
                    )
                    if projected and value != _INF:
                        gamma = remaining_gamma((totals, plan), capacities, floors)
                        if gamma == _INF:
                            value = _INF
                        else:
                            value = max(value, now + gamma - deadline)
                if ordering == "sebf":
                    if len(stages) == 1:  # the one stage's load and floors
                        value = remaining_gamma((totals, plan), capacities, floors)
                    else:
                        load = link_load(
                            [left for stage in stages for left in stage[2]],
                            [path for stage in stages for path in stage[3]],
                        )
                        value = remaining_gamma(load, capacities)
                records.append((template, value, stages))
        self._templates = kept

        if ordering == "tardiness":
            # Most currently-tardy first (weight-amplified lateness); ties
            # broken toward heavier groups, then by id for determinism.
            records.sort(
                key=lambda r: (-_lateness(r[0], now), -r[0].weight, r[0].group_id)
            )
        elif ordering == "hybrid":
            # Two-level: jobs ranked ascending by their *projected* lateness
            # (the Varys-SEBF analog across tenants: nearly-on-time jobs
            # first, which both minimizes the Eq.-4 sum and keeps small
            # tenants from convoying behind a structurally-late bulk job --
            # measured as Jain 0.93 vs 0.52 in E23); within a job, the most
            # *currently* tardy EchelonFlow first (group-level EDF), which
            # preserves the formation that gates the job's computation.
            job_key: Dict[Optional[str], float] = {}
            for template, value, _stages in records:
                value = _weighted_ascending(template.weight, value)
                if value == _INF:
                    continue  # blocked groups don't define a job's urgency
                current = job_key.get(template.job_id, _INF)
                job_key[template.job_id] = min(current, value)
            records.sort(
                key=lambda r: (
                    # Registered tenants (those whose frameworks reported
                    # EchelonFlows through the agent) outrank best-effort
                    # unregistered traffic -- the coordinator protects
                    # what it was asked to schedule.
                    0 if r[0].registered else 1,
                    job_key.get(r[0].job_id, _INF),
                    r[0].job_id or "",
                    # Most currently-behind first within the job.
                    -_lateness(r[0], now),
                    r[0].group_id,
                )
            )
        elif ordering == "sebf":
            records.sort(key=lambda r: (r[1], r[0].group_id))
        elif ordering == "projected":
            # Most projected-behind first; +inf (blocked) groups sort
            # last either way since negation keeps them extreme.
            records.sort(key=lambda r: (-_weighted(r[0].weight, r[1]), r[0].group_id))
        elif ordering == "tardiness-asc":
            records.sort(key=lambda r: (_weighted(r[0].weight, r[1]), r[0].group_id))
        return records

    # ------------------------------------------------------------------

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        now = view.now
        # Maintained by the network's residual accounting; a (harmless)
        # superset of the links under the currently-active flows.
        capacities = view.network.column_capacities()

        rates: Dict[int, float] = {}
        residual = list(capacities)
        fill_ids: List[int] = []
        fill_columns: List[Tuple[int, ...]] = []
        for _template, _value, stages in self._rank(view, capacities):
            for deadline, flow_ids, remaining, columns, totals, plan in stages:
                fill_ids.extend(flow_ids)
                fill_columns.extend(columns)
                gamma = remaining_gamma((totals, plan), residual)
                if gamma == _INF:
                    for flow_id in flow_ids:
                        rates[flow_id] = 0.0
                    continue
                # Pace the stage to land on max(deadline, earliest feasible).
                target = max(deadline, now + gamma)
                horizon = target - now
                for flow_id, flow_left, path in zip(flow_ids, remaining, columns):
                    # Any positive horizon paces, however short: a stage
                    # of a few bytes must not starve at rate 0.
                    rate = flow_left / horizon if horizon > 0.0 else 0.0
                    rates[flow_id] = rate
                    for column in path:
                        left = residual[column] - rate
                        residual[column] = left if left > 0.0 else 0.0

        if self.backfill:
            rates = greedy_priority_fill(
                zip(fill_ids, fill_columns), residual, rates
            )
        return rates

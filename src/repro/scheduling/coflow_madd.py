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
:class:`~repro.simulator.allocation.LinkAccounting`), grouped into *link
sets*. :func:`link_sets` splits a coflow's paths once: a flow's
*private* columns, which no other flow of the coflow crosses (nor the
flow itself twice), carry exactly that flow's bytes, and every other
column is *shared*, carrying the bytes of its crossers. A private set of
two or more columns is kept whole; a lone private column and a shared
column are *singles*. :func:`link_load` (or :func:`set_totals`, given a
split) adds the flows' remaining bytes -- one value per private set,
one per single -- and :func:`remaining_gamma` evaluates the load against
any capacity list: the full capacities for SEBF ordering, the residual
left by earlier coflows for pacing.

Splitting is exact, not an approximation. For bytes ``r >= 0`` the
quotient ``r / c`` is monotone in ``c`` under IEEE division, so the
maximum of ``r / c`` over a flow's private columns is ``r / min(c)``
bit for bit (and for ``r < 0`` every such quotient loses to Gamma's
floor of 0 either way); a shared column sums its crossers in (flow, path
position) order, the order a per-column ``{column: bytes}`` accumulation
used, and Gamma is a maximum, whatever order it visits sets in. A set's
least capacity (:func:`bottlenecks`) is what the echelon scheduler
caches per template for the full capacities.

A final work-conserving backfill hands leftover capacity to flows in SEBF
order so no link idles while a flow wants it.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ..core.flow import FlowState
from ..core.units import EPS
from ..simulator.allocation import greedy_priority_fill
from .base import Scheduler, SchedulerView, register_scheduler


class LinkSets(NamedTuple):
    """How a list of paths splits into link sets (see the module
    docstring): the half of a load that holds while the paths hold.

    A load has one entry per single column, then one per private set.
    ``singles`` holds the shared columns, in the order their second
    crossings come in, then the lone private columns; ``sets`` the private sets of two or more
    columns. ``owners`` holds the path owning each lone column, then
    each set, or is ``None`` when path ``k`` owns set ``k`` for every
    path (nothing shared, no empty path: the common case). ``crossings``
    lists the shared columns' crossings as flat ``(entry, path)`` pairs:
    each adds the path's bytes to that entry, in (path, position) order,
    so a path crossing a column twice adds twice.

    A split that shares something keeps its integers in arrays: a
    template holds one per stage, and arrays are objects the cyclic
    collector neither tracks nor counts towards its next pass.
    """

    singles: Sequence[int]
    sets: Tuple[Tuple[int, ...], ...]
    owners: Optional[Sequence[int]]
    crossings: Sequence[int]


#: A load: bytes per single column, then per private set, and the split
#: they follow.
Load = Tuple[List[float], LinkSets]

#: A split's least capacities (:func:`bottlenecks`): one per entry of a
#: load, parallel to its bytes, or one capacity standing for them all.
Floors = Union[float, Tuple[float, ...]]

_INF = float("inf")


def link_sets(columns: Sequence[Tuple[int, ...]]) -> LinkSets:
    """Split paths (``columns[i]`` is path ``i`` as link columns) into
    single columns and private sets."""
    flat = [column for path in columns for column in path]
    if len(set(flat)) == len(flat) and all(columns):
        return LinkSets((), tuple(columns), None, ())
    # Each column's first crossing path; a column crossed again (by
    # another path or the same one) is shared, its entry numbered in
    # order of its second crossing.
    first: Dict[int, int] = {}
    shared: Dict[int, int] = {}
    crossings: List[int] = []
    for index, path in enumerate(columns):
        for column in path:
            if column not in first:
                first[column] = index
                continue
            entry = shared.get(column)
            if entry is None:
                entry = shared[column] = len(shared)
                crossings += (entry, first[column])
            crossings += (entry, index)
    singles = list(shared)
    owners: List[int] = []
    sets: List[Tuple[int, ...]] = []
    set_owners: List[int] = []
    # A path's private columns are first crossed by that path, so they
    # form one run of the first-crossing order (shared columns skipped);
    # a sentinel ends the last run.
    private: List[int] = []
    owner = -1
    start = 0
    for column, index in chain(first.items(), ((-1, -1),)):
        if column in shared:
            continue
        if index != owner:
            run = len(private) - start
            if run > 1:
                set_owners.append(owner)
                sets.append(tuple(private[start:]))
            elif run:
                owners.append(owner)
                singles.append(private[start])
            owner = index
            start = len(private)
        private.append(column)
    owners += set_owners
    return LinkSets(
        array("l", singles), tuple(sets), array("l", owners), array("l", crossings)
    )


def set_totals(plan: LinkSets, remaining: List[float]) -> List[float]:
    """Bytes per single column, then per private set, of the paths
    ``plan`` split when path ``i`` has ``remaining[i]`` bytes left
    (``remaining`` itself when each path owns its own set)."""
    owners = plan.owners
    if owners is None:
        return remaining
    crossings = plan.crossings
    if not crossings:
        return [remaining[index] for index in owners]
    totals = [0.0] * (len(plan.singles) + len(plan.sets) - len(owners))
    pairs = iter(crossings)
    for entry, index in zip(pairs, pairs):
        totals[entry] += remaining[index]
    totals += [remaining[index] for index in owners]
    return totals


def link_load(remaining: List[float], columns: Sequence[Tuple[int, ...]]) -> Load:
    """Remaining bytes per link set over a set of flows.

    ``remaining[i]`` and ``columns[i]`` are flow ``i``'s bytes left and
    path as link columns. A shared column's bytes accumulate in (flow,
    path position) order, so a flow crossing a link twice counts twice
    and every build of the same load is bit-identical.
    """
    plan = link_sets(columns)
    return set_totals(plan, remaining), plan


def bottlenecks(plan: LinkSets, capacities: Sequence[float]) -> Floors:
    """Each single column's capacity, then each private set's least
    capacity; just the one capacity when they are all equal (a uniform
    fabric)."""
    floors = [capacities[column] for column in plan.singles]
    for columns in plan.sets:
        least = capacities[columns[0]]
        for column in columns:
            capacity = capacities[column]
            if capacity < least:
                least = capacity
        floors.append(least)
    if len(set(floors)) == 1:
        return float(floors[0])
    return tuple(floors)


def remaining_gamma(
    load: Load,
    capacities: Sequence[float],
    floors: Optional[Floors] = None,
) -> float:
    """Bottleneck completion time of a load on (residual) capacities.

    ``floors``, when given, are the load's :func:`bottlenecks` on
    ``capacities`` already (a template's cached minima); otherwise each
    set's least capacity is found here. ``inf`` when some needed link
    has no residual capacity at all.
    """
    totals, plan = load
    gamma = 0.0
    if floors.__class__ is float:
        # One capacity for every entry: ``t / c`` is monotone in ``t``.
        if not totals:
            return gamma
        if floors <= EPS:
            return _INF
        gamma = max(totals) / floors
        return gamma if gamma > 0.0 else 0.0
    if floors is not None:
        for capacity, total in zip(floors, totals):
            if capacity <= EPS:
                return _INF
            ratio = total / capacity
            if ratio > gamma:
                gamma = ratio
        return gamma
    # Singles, then sets, each pulling its bytes from one iterator over
    # ``totals`` (zip asks the plan's side first, so it stops cleanly).
    left = iter(totals)
    for column, total in zip(plan.singles, left):
        capacity = capacities[column]
        if capacity <= EPS:
            return _INF
        ratio = total / capacity
        if ratio > gamma:
            gamma = ratio
    for columns, total in zip(plan.sets, left):
        least = capacities[columns[0]]
        for column in columns:
            capacity = capacities[column]
            if capacity < least:
                least = capacity
        if least <= EPS:
            return _INF
        ratio = total / least
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

"""Rate-allocation primitives shared by all schedulers.

The fluid-flow model reduces scheduling to: given active flows, each pinned
to a path of capacitated links, choose per-flow rates with per-link capacity
constraints. This module implements the building blocks:

* :func:`max_min_fair` -- progressive filling (classic water-filling), with
  optional per-flow weights and per-flow rate caps.
* :func:`greedy_priority_fill` -- strict-priority allocation in a given flow
  order (used by SJF-style and backfill passes), over column-indexed
  links (see :class:`LinkAccounting`).
* :func:`feasible` -- validate an allocation against link capacities.
* :func:`residual_capacities` -- leftover capacity after an allocation.
* :class:`LinkAccounting` -- stateful per-link residual bookkeeping kept
  current by the network model, so feasibility checks and utilization
  sampling cost O(links touched) instead of O(flows x path length). It
  also numbers every link with a dense integer *column*, the index the
  scheduler kernels (stage Gamma, MADD pacing, greedy fill) use into
  plain capacity lists instead of dicts keyed by link name pairs.
* :class:`DemandSet` -- a demand list that carries a kernel hint; when it
  asks for the vector path (and numpy is available), :func:`max_min_fair`
  and :func:`feasible` dispatch to the dense-array kernels in
  :mod:`repro.simulator.vector`, which are bit-identical to the scalar
  ones by a shared reduction order (see that module's docstring).

All functions are pure: they take explicit flow descriptors and return new
rate dictionaries, which keeps them unit-testable and hypothesis-friendly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.units import EPS
from ..topology.graph import Link


@dataclass(frozen=True)
class FlowDemand:
    """What the allocator needs to know about one flow.

    ``cap`` optionally limits the flow's rate (e.g. an application pacing
    limit); ``weight`` scales its share under weighted max-min.
    """

    flow_id: int
    path: Tuple[Link, ...]
    weight: float = 1.0
    cap: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError(f"flow {self.flow_id} has an empty path")
        if self.weight <= 0:
            raise ValueError(f"flow {self.flow_id} weight must be positive")
        if self.cap is not None and self.cap < 0:
            raise ValueError(f"flow {self.flow_id} cap must be >= 0")


class DemandSet(list):
    """A list of :class:`FlowDemand` carrying a kernel hint.

    Built by :meth:`NetworkModel.demands` and cached per structural
    revision. ``use_vector`` records the network's kernel decision
    (engine mode and the auto-select flow-count threshold); the dense
    :class:`~repro.simulator.vector.DenseIncidence` interning is built
    lazily on first vector dispatch and shared by every kernel call
    until the flow set changes structurally.

    Plain lists (ad-hoc demand sets built by schedulers) never dispatch
    to the vector path, so reference-mode runs and weighted schedulers
    keep their pure-python cost model untouched.

    ``base`` is the last dense interning the network built for an
    earlier revision; the first :meth:`incidence` call patches it
    (see :class:`~repro.simulator.vector.DenseIncidence`) and lets go of
    it. A set that never reaches the vector kernel never touches it.
    """

    __slots__ = ("use_vector", "_incidence", "_base")

    def __init__(
        self,
        demands: Iterable[FlowDemand] = (),
        use_vector: bool = False,
        base=None,
    ):
        super().__init__(demands)
        self.use_vector = use_vector
        self._incidence = None
        self._base = base

    def incidence(self):
        """The cached dense interning (requires numpy)."""
        if self._incidence is None:
            from .vector import DenseIncidence

            self._incidence = DenseIncidence(self, self._base)
            self._base = None
        return self._incidence

    def latest_incidence(self):
        """The interning built for this set, else the one it would patch."""
        if self._incidence is not None:
            return self._incidence
        return self._base


def _vector_dispatch(demands) -> bool:
    """Should this call use the dense kernels?"""
    if not getattr(demands, "use_vector", False):
        return False
    from .vector import HAVE_NUMPY

    return HAVE_NUMPY


def link_capacities(demands: Iterable[FlowDemand]) -> Dict[Tuple[str, str], float]:
    """Collect the capacity of every link that appears on some path."""
    capacities: Dict[Tuple[str, str], float] = {}
    for demand in demands:
        for link in demand.path:
            capacities[link.key] = link.capacity
    return capacities


def feasible(
    demands: Sequence[FlowDemand],
    rates: Mapping[int, float],
    tolerance: float = 1e-6,
) -> bool:
    """True when ``rates`` respects every link capacity (with slack)."""
    if _vector_dispatch(demands):
        from .vector import feasible_vector

        return feasible_vector(demands.incidence(), rates, tolerance)
    usage: Dict[Tuple[str, str], float] = {}
    capacities = link_capacities(demands)
    for demand in demands:
        rate = rates.get(demand.flow_id, 0.0)
        if rate < -tolerance:
            return False
        if demand.cap is not None and rate > demand.cap + tolerance:
            return False
        for link in demand.path:
            usage[link.key] = usage.get(link.key, 0.0) + rate
    for key, used in usage.items():
        capacity = capacities[key]
        if used > capacity * (1.0 + tolerance) + tolerance:
            return False
    return True


def residual_capacities(
    demands: Sequence[FlowDemand],
    rates: Mapping[int, float],
) -> Dict[Tuple[str, str], float]:
    """Capacity left on each link after the given allocation (clamped >= 0)."""
    residual = link_capacities(demands)
    for demand in demands:
        rate = rates.get(demand.flow_id, 0.0)
        for link in demand.path:
            residual[link.key] = residual[link.key] - rate
    return {key: max(0.0, value) for key, value in residual.items()}


class LinkAccounting:
    """Incrementally-maintained per-link load and membership state.

    The network model feeds this one delta per flow-rate change (plus one
    registration per flow lifecycle event), and in exchange every consumer
    of "how loaded is each link right now" -- the feasibility gate in
    ``set_rates``, the lenient-mode capacity relaxation, and the
    observer's utilization sampling -- reads an always-current map instead
    of re-aggregating all active flows.

    Loads are float accumulators: they drift from a fresh summation by
    ulp-level error. The ``nonzero`` counters (integer counts of flows at
    a strictly positive rate per link) are exact, so membership questions
    ("does any live flow cross this link?") never depend on float drift;
    a link whose flow set empties has its accumulator hard-reset to 0.

    Columns are handed out in first-``watch`` order and never reused or
    renumbered (links are never forgotten), so a column stays valid for
    the accounting's lifetime and :meth:`clone` carries the numbering
    over unchanged: a forked model resolves every flow to the columns its
    parent did.

    ``moved`` is off (``None``) unless a consumer sets it to a set; from
    then on every method that changes a link's load, nonzero count or
    capacity adds that link's key to it, and the consumer clears it.
    The observer's link timeline uses it to sample only what moved.
    """

    __slots__ = (
        "loads",
        "capacities",
        "links",
        "flows_on",
        "nonzero",
        "columns",
        "column_capacities",
        "moved",
    )

    def __init__(self) -> None:
        #: link key -> sum of current rates of flows crossing it.
        self.loads: Dict[Tuple[str, str], float] = {}
        self.capacities: Dict[Tuple[str, str], float] = {}
        #: link key -> the Link object (for observer-facing views).
        self.links: Dict[Tuple[str, str], Link] = {}
        #: link key -> ids of active flows whose path crosses it.
        self.flows_on: Dict[Tuple[str, str], set] = {}
        #: link key -> count of crossing flows with rate > 0.
        self.nonzero: Dict[Tuple[str, str], int] = {}
        #: link key -> dense column index, append-only.
        self.columns: Dict[Tuple[str, str], int] = {}
        #: column -> current capacity (mirrors ``capacities``).
        self.column_capacities: List[float] = []
        #: Keys whose load, nonzero count or capacity changed since the
        #: consumer last cleared the set; ``None`` records nothing.
        self.moved: Optional[set] = None

    def watch(self, flow_id: int, path: Sequence[Link]) -> None:
        """Register a newly-injected (rate-0) flow on its path's links."""
        for link in path:
            key = link.key
            if key not in self.loads:
                self.loads[key] = 0.0
                self.capacities[key] = link.capacity
                self.links[key] = link
                self.flows_on[key] = set()
                self.nonzero[key] = 0
                self.columns[key] = len(self.column_capacities)
                self.column_capacities.append(link.capacity)
            self.flows_on[key].add(flow_id)

    def columns_of(self, path: Sequence[Link]) -> Tuple[int, ...]:
        """The column of each link of a watched path, in path order."""
        columns = self.columns
        return tuple([columns[link.key] for link in path])

    def set_capacity(self, key: Tuple[str, str], capacity: float) -> None:
        """Record a watched link's new capacity (fault injection/repair)."""
        self.capacities[key] = capacity
        self.column_capacities[self.columns[key]] = capacity
        if self.moved is not None:
            self.moved.add(key)

    def unwatch(self, flow_id: int, path: Sequence[Link], rate: float) -> None:
        """Retire a flow: release its rate and drop it from link sets."""
        for link in path:
            key = link.key
            members = self.flows_on[key]
            members.discard(flow_id)
            if rate > 0.0:
                self.loads[key] -= rate
                self.nonzero[key] -= 1
            if not members:
                # Kill accumulated drift the moment a link goes idle.
                self.loads[key] = 0.0
                self.nonzero[key] = 0
        if self.moved is not None:
            self.moved.update([link.key for link in path])

    def apply(self, path: Sequence[Link], old_rate: float, new_rate: float) -> None:
        """Move a flow's contribution from ``old_rate`` to ``new_rate``."""
        delta = new_rate - old_rate
        step = (1 if new_rate > 0.0 else 0) - (1 if old_rate > 0.0 else 0)
        for link in path:
            key = link.key
            self.loads[key] += delta
            if step:
                self.nonzero[key] += step
        if self.moved is not None:
            self.moved.update([link.key for link in path])

    def apply_bulk(
        self,
        link_deltas: Mapping[Tuple[str, str], float],
        nonzero_steps: Mapping[Tuple[str, str], int],
    ) -> None:
        """Apply per-link aggregate deltas from one bulk rate change.

        The network's vector ``set_rates`` path pre-aggregates each
        link's load delta (one ``bincount``) and nonzero-count step, then
        lands them here in O(links) instead of O(flows x path length).
        Loads are tolerance-audited accumulators (module docstring), so
        the one-sum-per-link association is as valid as the scalar
        per-flow sequence; the integer counters stay exact either way.
        """
        loads = self.loads
        for key, delta in link_deltas.items():
            loads[key] += delta
        nonzero = self.nonzero
        for key, step in nonzero_steps.items():
            nonzero[key] += step
        if self.moved is not None:
            self.moved.update(link_deltas)
            self.moved.update(nonzero_steps)

    def clone(
        self, link_map: Optional[Mapping[Tuple[str, str], Link]] = None
    ) -> "LinkAccounting":
        """An exact copy of the residual state (snapshot/fork support).

        The float load accumulators are copied *verbatim*, never
        recomputed: a forked run must resume with bit-identical residuals
        or its feasibility decisions could diverge from the parent's.
        ``link_map`` (link key -> Link) re-points the ``links`` values at
        a cloned topology's objects; keys are name pairs and carry over
        unchanged.
        """
        twin = LinkAccounting()
        twin.loads = dict(self.loads)
        twin.capacities = dict(self.capacities)
        if link_map is None:
            twin.links = dict(self.links)
        else:
            twin.links = {key: link_map[key] for key in self.links}
        twin.flows_on = {key: set(members) for key, members in self.flows_on.items()}
        twin.nonzero = dict(self.nonzero)
        twin.columns = dict(self.columns)
        twin.column_capacities = list(self.column_capacities)
        return twin

    def usage(self) -> Dict[Link, float]:
        """Aggregate rate per link, restricted to links carrying traffic."""
        links = self.links
        nonzero = self.nonzero
        return {
            links[key]: load
            for key, load in self.loads.items()
            if nonzero[key] > 0
        }

    def feasible_with_deltas(
        self,
        deltas: Mapping[Tuple[str, str], float],
        tolerance: float = 1e-6,
    ) -> bool:
        """Would the current loads, shifted by ``deltas``, fit capacity?

        Only the shifted links are examined: the invariant that the
        *current* allocation is feasible makes untouched links safe.
        """
        loads = self.loads
        capacities = self.capacities
        for key, delta in deltas.items():
            used = loads[key] + delta
            capacity = capacities[key]
            if used > capacity * (1.0 + tolerance) + tolerance:
                return False
        return True


def max_min_fair(
    demands: Sequence[FlowDemand],
    available: Optional[Mapping[Tuple[str, str], float]] = None,
) -> Dict[int, float]:
    """Weighted max-min fair rates via progressive filling.

    Water level rises uniformly (scaled by weight) for all unfrozen flows;
    when a link saturates, flows crossing it freeze at their current rate.
    Flow caps act as per-flow bottlenecks. Terminates in at most
    ``len(demands)`` rounds since every round freezes at least one flow.

    The reduction order is pinned so the scalar and vector kernels agree
    bit for bit: per-round link-weight sums and per-link consumption are
    accumulated in (flow, path position) order, and each link's residual
    is decremented *once* per round by the round's consumption sum (then
    clamped at zero) -- the association the ``bincount``-based vector
    kernel reproduces exactly. See :mod:`repro.simulator.vector`.
    """
    if not demands:
        return {}
    if _vector_dispatch(demands):
        from .vector import max_min_fair_vector

        return max_min_fair_vector(demands.incidence(), available)
    capacities = dict(available) if available is not None else link_capacities(demands)
    # Links outside `available` (when provided) fall back to full capacity.
    for demand in demands:
        for link in demand.path:
            capacities.setdefault(link.key, link.capacity)

    rates: Dict[int, float] = {demand.flow_id: 0.0 for demand in demands}
    active = {demand.flow_id: demand for demand in demands}
    remaining = dict(capacities)

    while active:
        # How much can the water level rise before some constraint binds?
        link_weight: Dict[Tuple[str, str], float] = {}
        for demand in active.values():
            for link in demand.path:
                link_weight[link.key] = link_weight.get(link.key, 0.0) + demand.weight
        rise = float("inf")
        for key, weight_sum in link_weight.items():
            if weight_sum > 0:
                rise = min(rise, remaining[key] / weight_sum)
        for demand in active.values():
            if demand.cap is not None:
                headroom = (demand.cap - rates[demand.flow_id]) / demand.weight
                rise = min(rise, headroom)
        if rise == float("inf"):
            raise RuntimeError("unbounded max-min allocation (no constraints)")
        rise = max(0.0, rise)

        # Apply the rise; consumption is accumulated per link in (flow,
        # path position) order and subtracted once per link per round.
        consumed: Dict[Tuple[str, str], float] = {}
        for demand in active.values():
            rates[demand.flow_id] += rise * demand.weight
            for link in demand.path:
                key = link.key
                consumed[key] = consumed.get(key, 0.0) + rise * demand.weight
        for key, used in consumed.items():
            residual = remaining[key] - used
            remaining[key] = residual if residual > 0.0 else 0.0

        # Freeze flows on saturated links or at their caps.
        frozen = []
        for flow_id, demand in active.items():
            at_cap = demand.cap is not None and rates[flow_id] >= demand.cap - EPS
            on_full_link = any(remaining[link.key] <= EPS for link in demand.path)
            if at_cap or on_full_link:
                frozen.append(flow_id)
        if not frozen:
            # Numerical corner: force-freeze the most constrained flow.
            frozen = [min(active)]
        for flow_id in frozen:
            del active[flow_id]
    return rates


def greedy_priority_fill(
    ordered: Iterable[Tuple[int, Sequence[int]]],
    residual: List[float],
    rates: Optional[Dict[int, float]] = None,
    caps: Optional[Mapping[int, float]] = None,
) -> Dict[int, float]:
    """Strict-priority allocation: each flow grabs its path bottleneck.

    ``ordered`` yields ``(flow_id, columns)`` in priority order, where
    ``columns`` are the flow's path links as indices into ``residual``
    (see :class:`LinkAccounting`). Each flow receives the minimum
    residual capacity along its path, bounded by its entry in ``caps``
    (if any) minus what it already has. ``residual`` is consumed in
    place. With ``rates`` the pass *adds* to an existing allocation,
    extending that dict in place -- this is the work-conserving backfill
    step used after MADD.
    """
    if rates is None:
        rates = {}
    for flow_id, columns in ordered:
        # min() over the path, as a loop: cheaper than a call per flow.
        grant = residual[columns[0]]
        for column in columns:
            left = residual[column]
            if left < grant:
                grant = left
        if caps is not None and flow_id in caps:
            headroom = caps[flow_id] - rates.get(flow_id, 0.0)
            grant = min(grant, max(0.0, headroom))
        if grant <= EPS:
            rates.setdefault(flow_id, 0.0)
            continue
        rates[flow_id] = rates.get(flow_id, 0.0) + grant
        for column in columns:
            residual[column] -= grant
    return rates

"""The fluid-flow network model.

Active flows drain at scheduler-chosen rates between events. The model owns
per-flow :class:`~repro.core.flow.FlowState`, the pinned path of each flow,
and byte accounting; it validates that the scheduler's allocation respects
link capacities before accepting it.

The model is deliberately ignorant of *why* flows exist (jobs, EchelonFlows,
collectives) -- it exposes exactly what the paper's coordinator would see:
flow sizes, endpoints, paths, remaining bytes, and ideal finish times.

Incremental core
----------------

The hot path is O(changed flows) per event, not O(active flows):

* **Lazy drain.** Each flow carries a sync anchor (the last time its
  ``remaining`` was materialized). Advancing time only touches flows that
  finish now; everyone else drains implicitly along ``remaining - rate *
  elapsed`` and is materialized on demand (scheduler reads, rate changes,
  direct state access).
* **Finish-time heap.** Projected finish times are pushed into a lazily
  invalidated min-heap whenever a rate changes. ``earliest_finish_interval``
  and ``advance`` pop candidates instead of scanning; keys conservatively
  lower-bound the true finish (they are the epsilon-threshold crossing),
  and every candidate is re-checked with the exact per-flow arithmetic, so
  the heap only ever narrows *where* to look, never *what* is computed.
* **Residual accounting.** A :class:`~repro.simulator.allocation.LinkAccounting`
  tracks per-link load deltas as rates change, so the ``set_rates``
  feasibility gate inspects only the links whose load moved, lenient-mode
  scaling relaxes without rebuilding usage maps, and the observer samples
  the accounting itself rather than a usage map built per advance.
* **Dirty-set rates.** ``set_rates`` applies only rates that actually
  changed; unchanged flows keep their anchors, heap entries, and link
  contributions untouched. A vector allocation is applied in bulk:
  change detection, heap keys and accounting deltas are array
  operations, and a reused solve on the incidence last applied is
  recognized without reading any flow's old rate.
* **Lazy retirement order.** Retiring a flow leaves its id in the
  fid-ordered active list; the next ordered read (``sync_active`` in
  the scheduler view's refresh, before the scheduler runs) compacts the
  list in one pass, so a departure costs O(1) list work.

The finish heap and the residual accounting are audited from outside:
the ``repro.check`` sanitizer compares :meth:`earliest_finish_interval`
with a plain scan over :meth:`time_to_finish` (the ``finish_index``
invariant) and the accounting with :meth:`verify_accounting`.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, insort
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.flow import Flow, FlowState
from ..core.units import EPS
from ..topology.graph import Link, Topology
from .allocation import DemandSet, FlowDemand, LinkAccounting

#: Relative slack used when popping heap candidates. Heap keys are float
#: projections of per-flow finish times; the slack absorbs rounding drift
#: between a key computed at anchor time and the exact per-flow arithmetic
#: re-evaluated now. Extra candidates cost a re-check and a re-push, never
#: a wrong answer.
_HEAP_SLACK = 1e-9

#: Rebuild the finish heap once stale (lazily invalidated) entries dominate.
_HEAP_COMPACT_FACTOR = 4
_HEAP_COMPACT_MIN = 64

_INF = float("inf")


class CapacityViolation(Exception):
    """The scheduler proposed rates exceeding a link capacity."""


def _bad_rate_message(flow_id: int, rate: float) -> str:
    kind = "negative" if rate < 0.0 else "non-finite"
    return f"{kind} rate for flow {flow_id}: {rate!r}"


#: Process-global source of capacity-mutation tokens. Each runtime
#: capacity change appends one globally-unique token to the mutating
#: model's ``capacity_lineage``, so two models that diverged from a
#: common snapshot (a fork and its parent) can never reach the same
#: lineage by mutating different links the same *number* of times --
#: the staleness hazard a bare epoch counter has. Tokens feed cache
#: keys only (MemoizingScheduler fingerprints), never results, so their
#: process-global order does not perturb determinism.
_capacity_token_counter = itertools.count(1)

#: Process-global source of group-bucket revision tokens (see
#: :meth:`NetworkModel.group_token`). Global for the same reason as the
#: capacity tokens: a fork inherits its parent's tokens verbatim, and the
#: next change to a bucket on either side draws a token neither has seen.
_bucket_token_counter = itertools.count(1)


class NetworkModel:
    """Tracks active flows and enforces link-capacity-respecting rates."""

    def __init__(
        self,
        topology: Topology,
        router,
        strict: bool = True,
        allocation: str = "auto",
    ) -> None:
        self.topology = topology
        self.router = router
        self.strict = strict
        #: Max-min kernel selection: ``"scalar"`` keeps the scalar kernel,
        #: ``"vector"`` forces the numpy dense kernel, ``"auto"`` switches
        #: to it above :data:`~repro.simulator.vector.VECTOR_AUTO_THRESHOLD`
        #: active flows. All choices are bit-identical; the choice travels
        #: on the :class:`DemandSet` this model hands to schedulers.
        if allocation not in ("auto", "scalar", "vector"):
            raise ValueError(
                f"allocation must be one of 'auto', 'scalar', 'vector', "
                f"got {allocation!r}"
            )
        if allocation == "vector":
            from .vector import HAVE_NUMPY

            if not HAVE_NUMPY:
                raise RuntimeError(
                    "allocation='vector' requires numpy, which is not "
                    "installed; use allocation='scalar' instead"
                )
        self.allocation = allocation
        self._active: Dict[int, FlowState] = {}
        #: Pinned path of every flow, active or retired. A fork translates
        #: the active flows' paths and inherits retired ones untranslated;
        #: :meth:`path` re-keys those onto this model's links on first read.
        self._paths: Dict[int, Tuple[Link, ...]] = {}
        self._completed: Dict[int, FlowState] = {}
        #: Total bytes delivered, for conservation checks.
        self.bytes_delivered = 0.0
        #: Optional observer (repro.obs Instrumentation): handed
        #: (now, dt, the residual :class:`LinkAccounting`) on every
        #: nonzero advance, and told of admissions, rate changes,
        #: reroutes and capacity changes. ``None`` keeps the fluid loop
        #: free of observation overhead.
        self.observer = None
        #: Bumped on every runtime capacity mutation; consumers that cache
        #: anything derived from capacities (e.g. MemoizingScheduler
        #: fingerprints) fold this in to invalidate across faults.
        self.capacity_epoch = 0
        #: Tuple of globally-unique tokens, one appended per capacity
        #: mutation. Inherited by forks, so a fork and its parent share a
        #: lineage prefix exactly as long as they share capacity history;
        #: see :data:`_capacity_token_counter`.
        self.capacity_lineage: Tuple[int, ...] = ()

        # -- hot-path state ---------------------------------------------
        #: The model's own clock: the latest time seen by inject/advance.
        self._now = 0.0
        #: flow id -> time its ``remaining`` was last materialized.
        self._anchor: Dict[int, float] = {}
        #: Latest time every active flow is known to be materialized at;
        #: lets back-to-back scheduler reads in one round skip the scan.
        self._synced_at = float("-inf")
        #: Active flow ids in ascending order (the canonical iteration
        #: order everywhere a scan used to call ``sorted``). Retirement
        #: leaves ids behind and sets ``_order_stale``; read it through
        #: :meth:`_live_order`, which drops them.
        self._order: List[int] = []
        self._order_stale = False
        #: Active flow id -> its finish threshold (``Flow.finish_epsilon``),
        #: computed once at inject time.
        self._threshold: Dict[int, float] = {}
        #: Bumped whenever a flow's rate is stored outside the bulk path;
        #: with the incidence, it tells the bulk path that the array it
        #: applied last still holds every flow's rate.
        self._rates_rev = 0
        #: (incidence, ``_rates_rev``, rate array) of the last bulk
        #: application; see :meth:`_set_rates_bulk`.
        self._applied: Optional[Tuple[object, int, object]] = None
        #: Active flow id -> unit-weight FlowDemand built once at inject time.
        self._demands: Dict[int, FlowDemand] = {}
        #: Structural revision of the active flow set: bumped on every
        #: inject/retire/reroute. Keys the cached :class:`DemandSet` (and
        #: through it the vector kernel's dense incidence interning).
        self._demands_rev = 0
        self._demands_cache: Optional[Tuple[int, DemandSet]] = None
        #: Always-current per-link load/membership bookkeeping.
        self.accounting = LinkAccounting()
        #: flow id -> its path's link columns, filled on first request by
        #: :meth:`columns` (fair share never asks, so never pays for it).
        self._columns: Dict[int, Tuple[int, ...]] = {}
        #: flow id -> its path as link keys, filled on first request by
        #: :meth:`link_keys` (the memoizing scheduler's fingerprints).
        self._link_keys: Dict[int, Tuple[Tuple[str, str], ...]] = {}
        #: One shared tuple per distinct link-key path, for this model and
        #: its forks: flows on one path hand out one object, so long-lived
        #: fingerprints hold each path once.
        self._link_key_paths: Dict[Tuple, Tuple[Tuple[str, str], ...]] = {}
        #: Min-heap of (finish key, flow id, token); stale entries carry
        #: an outdated token and are dropped when popped.
        self._finish_heap: List[Tuple[float, int, int]] = []
        #: Active flow id -> its current heap token. Retirement drops the
        #: entry, so an entry is live iff its token is its flow's token
        #: here: a retired flow's leftovers never match.
        self._heap_token: Dict[int, int] = {}
        #: EchelonFlow buckets: group id -> (sorted fid list, state list).
        self._group_fids: Dict[Optional[str], List[int]] = {}
        self._group_states: Dict[Optional[str], List[FlowState]] = {}
        #: group id -> the bucket's revision token (:meth:`group_token`).
        self._group_tokens: Dict[Optional[str], int] = {}

    # ------------------------------------------------------------------
    # snapshot/fork support
    # ------------------------------------------------------------------

    def fork(self) -> "NetworkModel":
        """A fully independent copy of the model's run state.

        Copy-on-write at the object level: immutable heavy objects --
        :class:`~repro.core.flow.Flow` descriptions, retired
        :class:`~repro.core.flow.FlowState` (never mutated after
        ``_retire``), retired flows' pinned paths -- are shared by
        reference; everything mutable is copied. The topology is cloned
        (fresh :class:`Link` objects, since fault injection mutates
        ``Link.capacity`` in place) and every live link reference --
        active flows' paths and demands, residual accounting, the
        router's caches -- is translated onto the clone.

        Cost is O(active flows + links + cached routes) Python work: only
        the live flows are re-translated and re-wrapped; the retired
        history travels as two C-level dict copies (states and paths).
        A retired flow's path is re-keyed onto the clone's links lazily,
        by :meth:`path`, the first time someone asks for it.

        Exactness rules that make forked-and-resumed runs bit-identical
        to uninterrupted ones:

        * lazily-drained flows are *not* materialized: raw ``remaining``
          and drain anchors are copied as-is, so later materialization
          performs the identical float arithmetic;
        * the finish heap, its tokens, and the residual accounting's
          float accumulators are copied verbatim, never recomputed;
        * active :class:`FlowState` objects are duplicated field-for-field
          (the parent keeps mutating its own), and the group buckets are
          rebuilt to point at the duplicates.

        The observer is *not* carried over: instrumentation either
        detaches or is re-attached explicitly by the engine fork.
        """
        topology = self.topology.clone()
        if hasattr(self.router, "fork"):
            router = self.router.fork(topology)
        else:
            # Custom router: deepcopy with the topology identity pre-seeded
            # so its internal link references land on the clone's objects.
            import copy

            memo: Dict[int, object] = {id(self.topology): topology}
            for key, link in self.topology._links.items():
                memo[id(link)] = topology.link(*key)
            router = copy.deepcopy(self.router, memo)

        twin = NetworkModel(
            topology,
            router,
            strict=self.strict,
            allocation=self.allocation,
        )
        twin.capacity_epoch = self.capacity_epoch
        twin.capacity_lineage = self.capacity_lineage
        twin.bytes_delivered = self.bytes_delivered
        twin._now = self._now
        twin._synced_at = self._synced_at
        order = self._live_order()
        twin._order = list(order)
        twin._anchor = dict(self._anchor)
        twin._threshold = dict(self._threshold)
        #: Retired states are immutable from retirement on; share them.
        twin._completed = dict(self._completed)
        twin._active = {
            fid: FlowState(
                flow=state.flow,
                start_time=state.start_time,
                remaining=state.remaining,
                rate=state.rate,
                finish_time=state.finish_time,
                ideal_finish_time=state.ideal_finish_time,
            )
            for fid, state in self._active.items()
        }
        translate = topology.link
        paths = self._paths
        twin._paths = dict(paths)
        twin._demands = {}
        for fid in order:
            path = tuple(translate(*link.key) for link in paths[fid])
            twin._paths[fid] = path
            twin._demands[fid] = FlowDemand(flow_id=fid, path=path)
        link_map = {key: translate(*key) for key in self.accounting.links}
        twin.accounting = self.accounting.clone(link_map)
        twin._columns = dict(self._columns)
        twin._link_keys = dict(self._link_keys)
        twin._link_key_paths = self._link_key_paths
        twin._finish_heap = list(self._finish_heap)
        twin._heap_token = dict(self._heap_token)
        twin._group_fids = {
            gid: list(fids) for gid, fids in self._group_fids.items()
        }
        twin._group_states = {
            gid: [twin._active[fid] for fid in fids]
            for gid, fids in self._group_fids.items()
        }
        twin._group_tokens = dict(self._group_tokens)
        return twin

    # ------------------------------------------------------------------
    # flow lifecycle
    # ------------------------------------------------------------------

    def inject(
        self, flow: Flow, now: float, path: Optional[Tuple[Link, ...]] = None
    ) -> FlowState:
        """Admit a flow at time ``now``; its path is pinned immediately.

        ``path`` overrides route computation -- the differential twin oracle
        uses it to replay a run with the primary's pinned (possibly
        fault-rerouted) paths rather than re-deriving routes.
        """
        flow_id = flow.flow_id
        if flow_id in self._active or flow_id in self._completed:
            raise ValueError(f"flow {flow_id} already injected")
        if path is None:
            path = self.router.path(flow.src, flow.dst, flow_id)
        state = FlowState(flow=flow, start_time=now, remaining=flow.size)
        self._active[flow_id] = state
        self._demands_rev += 1
        self._paths[flow_id] = path
        self._demands[flow_id] = FlowDemand(flow_id=flow_id, path=path)
        self._anchor[flow_id] = now
        self._threshold[flow_id] = flow.finish_epsilon
        if now > self._now:
            self._now = now
        insort(self._order, flow_id)
        self.accounting.watch(flow_id, path)
        self._bucket_add(flow.group_id, flow_id, state)
        if self.observer is not None:
            self.observer.on_flow_injected(flow, path, now)
        return state

    def _retire(self, state: FlowState, finish_time: float) -> None:
        """Move a drained flow from the active set to the completed set.

        Everything only live flows need (demand, heap token, threshold,
        link columns, drain anchor) is dropped; only the pinned path
        stays, for :meth:`path`. The id stays in ``_order`` until the
        next ordered read compacts it. A fork never touches the flow
        again.
        """
        flow_id = state.flow.flow_id
        old_rate = state.rate
        state.finish_time = finish_time
        state.rate = 0.0
        self._rates_rev += 1
        self.accounting.unwatch(flow_id, self._paths[flow_id], old_rate)
        self._columns.pop(flow_id, None)
        self._link_keys.pop(flow_id, None)
        del self._demands[flow_id]
        del self._heap_token[flow_id]
        del self._threshold[flow_id]
        self._demands_rev += 1
        del self._active[flow_id]
        del self._anchor[flow_id]
        self._order_stale = True
        self._bucket_remove(state.flow.group_id, flow_id)
        self._completed[flow_id] = state

    def _live_order(self) -> List[int]:
        """Active flow ids in ascending order, retired ids compacted out."""
        if self._order_stale:
            active = self._active
            self._order = [fid for fid in self._order if fid in active]
            self._order_stale = False
        return self._order

    # -- group buckets --------------------------------------------------

    def _bucket_add(
        self, group_id: Optional[str], flow_id: int, state: FlowState
    ) -> None:
        fids = self._group_fids.setdefault(group_id, [])
        states = self._group_states.setdefault(group_id, [])
        index = bisect_left(fids, flow_id)
        fids.insert(index, flow_id)
        states.insert(index, state)
        self._group_tokens[group_id] = next(_bucket_token_counter)

    def _bucket_remove(self, group_id: Optional[str], flow_id: int) -> None:
        fids = self._group_fids[group_id]
        index = bisect_left(fids, flow_id)
        del fids[index]
        del self._group_states[group_id][index]
        if fids:
            self._group_tokens[group_id] = next(_bucket_token_counter)
        else:
            del self._group_fids[group_id]
            del self._group_states[group_id]
            del self._group_tokens[group_id]

    def group_buckets(self) -> List[Tuple[Optional[str], List[FlowState]]]:
        """Active flows bucketed by group id, each bucket fid-sorted.

        Buckets are the engine-maintained lists themselves (do not mutate);
        they are returned sorted by group id with the ungrouped (``None``)
        bucket last, the order every group-aware scheduler normalizes to.
        """
        self.sync_active()
        return [
            (group_id, self._group_states[group_id])
            for group_id in sorted(
                self._group_fids, key=lambda g: (g is None, g or "")
            )
        ]

    def group_flow_ids(self, group_id: Optional[str]) -> List[int]:
        """One bucket's flow ids, parallel to its states in
        :meth:`group_buckets` (do not mutate): lets a scheduler key its
        per-flow work without dereferencing every state's flow."""
        return self._group_fids[group_id]

    def group_token(self, group_id: Optional[str]) -> int:
        """One bucket's revision token: redrawn from a process-global
        counter whenever a member joins, leaves or is rerouted, and
        copied verbatim by :meth:`fork`. While it is unchanged, the
        bucket's flow ids, state positions and link columns are too, so
        a scheduler may key per-bucket derived data on it (the echelon
        scheduler's stage templates). Members' ``remaining`` and
        ``rate`` move without a new token."""
        return self._group_tokens[group_id]

    # -- lazy drain -----------------------------------------------------

    def _sync_flow(self, flow_id: int, t: float) -> None:
        """Materialize a flow's ``remaining`` at time ``t``."""
        anchor = self._anchor[flow_id]
        if t <= anchor:
            return
        state = self._active[flow_id]
        rate = state.rate
        if rate > 0.0:
            before = state.remaining
            after = before - rate * (t - anchor)
            if after < 0.0:
                after = 0.0
            state.remaining = after
            self.bytes_delivered += before - after
        self._anchor[flow_id] = t

    def sync_active(self, t: Optional[float] = None) -> None:
        """Materialize every active flow's ``remaining`` (scheduler reads).

        One pass in fid order with :meth:`_sync_flow`'s arithmetic,
        inlined; ``bytes_delivered`` accumulates in the same order. Also
        compacts the active order, even when nothing drains.
        """
        if t is None:
            t = self._now
        elif t > self._now:
            self._now = t
        order = self._live_order()
        if t <= self._synced_at:
            # Every anchor is already at or past t: nothing would drain.
            return
        active = self._active
        anchors = self._anchor
        delivered = self.bytes_delivered
        for flow_id in order:
            anchor = anchors[flow_id]
            if t <= anchor:
                continue
            state = active[flow_id]
            rate = state.rate
            if rate > 0.0:
                before = state.remaining
                after = before - rate * (t - anchor)
                if after < 0.0:
                    after = 0.0
                state.remaining = after
                delivered += before - after
            anchors[flow_id] = t
        self.bytes_delivered = delivered
        self._synced_at = t

    def _projected_remaining(self, state: FlowState, anchor: float, t: float) -> float:
        """``remaining`` the flow would have at ``t`` -- no mutation."""
        rate = state.rate
        if rate <= 0.0 or t <= anchor:
            return state.remaining
        after = state.remaining - rate * (t - anchor)
        return after if after > 0.0 else 0.0

    def _time_to_finish(self, state: FlowState, anchor: float) -> float:
        """Interval until the flow drains to zero at its current rate."""
        remaining = self._projected_remaining(state, anchor, self._now)
        if remaining <= self._threshold[state.flow.flow_id]:
            return 0.0
        if state.rate <= EPS:
            return _INF
        return remaining / state.rate

    def time_to_finish(self, flow_id: int) -> float:
        """An active flow's interval until it drains at its current rate.

        The exact per-flow arithmetic behind :meth:`earliest_finish_interval`,
        read without the finish heap and without materializing the drain.
        """
        return self._time_to_finish(self._active[flow_id], self._anchor[flow_id])

    def projected_remaining(self, flow_id: int, t: float) -> float:
        """An active flow's ``remaining`` at ``t`` -- the per-flow
        arithmetic :meth:`advance` retires by; no mutation."""
        return self._projected_remaining(
            self._active[flow_id], self._anchor[flow_id], t
        )

    # -- finish heap ----------------------------------------------------

    def _push_finish(self, flow_id: int, state: FlowState) -> None:
        """(Re)key a flow's heap entry after a rate change."""
        token = self._heap_token.get(flow_id, 0) + 1
        self._heap_token[flow_id] = token
        anchor = self._anchor[flow_id]
        slack = state.remaining - self._threshold[flow_id]
        if state.rate > EPS:
            key = anchor + slack / state.rate
        elif slack <= 0.0:
            # Zero-rate but already drained below threshold (e.g. paused
            # right at the finish line): retire-able immediately.
            key = anchor
        else:
            return
        heapq.heappush(self._finish_heap, (key, flow_id, token))
        if len(self._finish_heap) > max(
            _HEAP_COMPACT_MIN, _HEAP_COMPACT_FACTOR * len(self._active)
        ):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop stale entries. An entry is live iff its token is its
        flow's current one; retirement deletes the flow's token."""
        tokens = self._heap_token
        self._finish_heap = [
            entry
            for entry in self._finish_heap
            if tokens.get(entry[1]) == entry[2]
        ]
        heapq.heapify(self._finish_heap)

    # ------------------------------------------------------------------
    # read API
    # ------------------------------------------------------------------

    def active_states(self) -> List[FlowState]:
        """Unfinished flows, sorted by flow id for determinism."""
        self.sync_active()
        active = self._active
        return [active[fid] for fid in self._live_order()]

    def iter_active(self) -> Iterator[FlowState]:
        """Iterate active states (fid order) without materializing drains.

        For metadata-only consumers (group ids, deadlines); anyone reading
        ``remaining`` should go through :meth:`active_states` or
        :meth:`state` so lazily-drained bytes are materialized first.
        """
        active = self._active
        return (active[fid] for fid in self._live_order())

    def state(self, flow_id: int) -> FlowState:
        if flow_id in self._active:
            self._sync_flow(flow_id, self._now)
            return self._active[flow_id]
        return self._completed[flow_id]

    def path(self, flow_id: int) -> Tuple[Link, ...]:
        """A flow's pinned path, active or retired, on this model's links.

        A retired path inherited from a fork's parent still holds the
        parent's :class:`Link` objects; it is re-keyed onto this model's
        topology on first read and stored back, so a fork never hands
        out (or lets anyone mutate through) its parent's links.
        """
        path = self._paths[flow_id]
        translate = self.topology.link
        if path and translate(*path[0].key) is not path[0]:
            path = tuple(translate(*hop.key) for hop in path)
            self._paths[flow_id] = path
        return path

    def columns(self, flow_id: int) -> Tuple[int, ...]:
        """An active flow's path as link columns (see
        :class:`~repro.simulator.allocation.LinkAccounting`), cached until
        the flow retires or is rerouted."""
        columns = self._columns.get(flow_id)
        if columns is None:
            columns = self.accounting.columns_of(self._paths[flow_id])
            self._columns[flow_id] = columns
        return columns

    def link_keys(self, flow_id: int) -> Tuple[Tuple[str, str], ...]:
        """An active flow's path as link keys (name pairs), cached like
        :meth:`columns`. Unlike columns, keys name the same links in
        every fork, so a fork shares them."""
        keys = self._link_keys.get(flow_id)
        if keys is None:
            keys = tuple([link.key for link in self._paths[flow_id]])
            keys = self._link_key_paths.setdefault(keys, keys)
            self._link_keys[flow_id] = keys
        return keys

    def demand(self, flow_id: int, weight: float = 1.0) -> FlowDemand:
        if weight == 1.0:
            return self._demands[flow_id]
        return FlowDemand(flow_id=flow_id, path=self._paths[flow_id], weight=weight)

    def _vector_active(self) -> bool:
        """Does the current kernel decision land on the vector path?"""
        mode = self.allocation
        if mode == "scalar":
            return False
        from .vector import HAVE_NUMPY, VECTOR_AUTO_THRESHOLD

        if not HAVE_NUMPY:
            return False
        if mode == "vector":
            return True
        return len(self._active) >= VECTOR_AUTO_THRESHOLD

    def demands(self) -> DemandSet:
        """Unit-weight demands of every active flow, fid-ascending.

        Returns a :class:`DemandSet` cached per structural revision, so
        back-to-back scheduler reads within a round reuse both the list
        and -- in vector mode -- the dense incidence interning built on
        first kernel dispatch. The kernel hint is stamped at build time
        from :attr:`allocation` (and, in ``auto`` mode, the active flow
        count, which only changes when the revision does). A vector set
        inherits the previous set's interning to patch, so a revision
        step pays for what changed rather than for every live flow.
        """
        rev = self._demands_rev
        cache = self._demands_cache
        if cache is not None and cache[0] == rev:
            return cache[1]
        demands = self._demands
        use_vector = self._vector_active()
        demand_set = DemandSet(
            (demands[fid] for fid in self._live_order()),
            use_vector=use_vector,
            base=cache[1].latest_incidence() if use_vector and cache else None,
        )
        self._demands_cache = (rev, demand_set)
        return demand_set

    @property
    def active_count(self) -> int:
        return len(self._active)

    @property
    def completed_states(self) -> List[FlowState]:
        return [self._completed[fid] for fid in sorted(self._completed)]

    # ------------------------------------------------------------------
    # rates and time
    # ------------------------------------------------------------------

    def set_rates(self, rates: Mapping[int, float]) -> None:
        """Apply a rate allocation; unlisted active flows idle at rate 0.

        Only flows whose rate actually changes are touched: each is
        drained to the present at its old rate, re-keyed in the finish
        heap, and has its per-link contributions shifted. In ``strict``
        mode an infeasible allocation raises :class:`CapacityViolation`;
        otherwise rates are scaled down on each oversubscribed link
        (modelling switch fair-queueing backpressure).

        When the allocation arrives as a
        :class:`~repro.simulator.vector.VectorAllocation` still aligned
        to this model's live flow set, the whole application -- change
        detection, the delta feasibility gate, residual accounting, and
        the finish-heap rebuild -- runs through the array bulk path
        (:meth:`_set_rates_bulk`); the per-flow state mutations it
        performs are identical to this scalar path's.
        """
        if self._set_rates_bulk(rates):
            return
        changed: List[Tuple[int, FlowState, float]] = []
        for flow_id, state in self._active.items():
            rate = rates.get(flow_id, 0.0)
            if not 0.0 <= rate < _INF:
                raise ValueError(_bad_rate_message(flow_id, rate))
            if rate != state.rate:
                changed.append((flow_id, state, rate))

        if not self._feasible_changed(changed):
            if self.strict:
                raise CapacityViolation(
                    "scheduler allocation violates link capacities"
                )
            clean = {fid: rates.get(fid, 0.0) for fid in self._active}
            clean = self._scale_to_capacity(clean)
            changed = [
                (fid, state, clean[fid])
                for fid, state in self._active.items()
                if clean[fid] != state.rate
            ]

        if not changed:
            return
        self._rates_rev += 1
        apply_delta = self.accounting.apply
        for flow_id, state, rate in changed:
            self._sync_flow(flow_id, self._now)
            old = state.rate
            state.rate = rate
            apply_delta(self._paths[flow_id], old, rate)
            self._push_finish(flow_id, state)
        if self.observer is not None:
            self.observer.on_rates_applied(self._now, changed)

    def _set_rates_bulk(self, rates) -> bool:
        """Array fast path of :meth:`set_rates`; ``False`` = fall back.

        Handles allocations arriving as a
        :class:`~repro.simulator.vector.VectorAllocation` whose dense
        incidence is still the one cached for the current structural
        revision -- which guarantees row ``i`` is the ``i``-th active
        flow in fid order. Change detection, the delta feasibility gate,
        the finish-heap keys and the per-link residual-accounting
        aggregates are array operations; the per-flow state mutations
        are the scalar path's (sync, rate store as a python float, heap
        token bump, key ``anchor + (remaining - threshold) / rate`` --
        the same IEEE operations elementwise, so the same bits).

        The old rates come from the array this path applied last when
        the allocation's incidence is that one's and no rate was stored
        elsewhere since (``_rates_rev``), so a reused solve costs no
        per-flow read. A rekey of every live flow replaces the heap
        instead of extending it; otherwise entries are batch-appended
        and re-heapified once. Heap pops follow the total (key, fid,
        token) order, so layout differences never change what is
        popped.

        Infeasible allocations raise in strict mode exactly like the
        scalar path; in lenient mode the method backs off (returns
        ``False``) so the scalar rescale handles them.
        """
        from .vector import HAVE_NUMPY, VectorAllocation

        if not HAVE_NUMPY or not isinstance(rates, VectorAllocation):
            return False
        cache = self._demands_cache
        if (
            cache is None
            or cache[0] != self._demands_rev
            or rates.incidence is not cache[1]._incidence
        ):
            return False
        import numpy as np

        inc = rates.incidence
        order = self._live_order()
        new = rates.array
        if inc.n_flows != len(order):
            return False
        bad = ~((new >= 0.0) & (new < _INF))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise ValueError(
                _bad_rate_message(int(inc.fids[row]), float(new[row]))
            )
        active = self._active
        applied = self._applied
        states: Optional[List[FlowState]] = None
        if (
            applied is not None
            and applied[0] is inc
            and applied[1] == self._rates_rev
        ):
            old = applied[2]
        else:
            states = [active[fid] for fid in order]
            old = np.fromiter(
                (state.rate for state in states),
                dtype=np.float64,
                count=len(states),
            )
        changed_mask = new != old
        if not changed_mask.any():
            self._applied = (inc, self._rates_rev, old)
            return True
        delta = new - old
        links = inc.links
        link_delta = np.bincount(
            inc.cols, weights=delta[inc.rows], minlength=inc.n_links
        )
        moved = link_delta != 0.0
        if moved.any():
            loads = self.accounting.loads
            capacities = self.accounting.capacities
            moved_idx = np.nonzero(moved)[0].tolist()
            load_arr = np.fromiter(
                (loads[links[j].key] for j in moved_idx),
                dtype=np.float64,
                count=len(moved_idx),
            )
            cap_arr = np.fromiter(
                (capacities[links[j].key] for j in moved_idx),
                dtype=np.float64,
                count=len(moved_idx),
            )
            tol = 1e-6
            if (
                (load_arr + link_delta[moved]) > cap_arr * (1.0 + tol) + tol
            ).any():
                if self.strict:
                    raise CapacityViolation(
                        "scheduler allocation violates link capacities"
                    )
                return False

        rows = np.flatnonzero(changed_mask)
        count = len(rows)
        rekey_all = count == len(order)
        if rekey_all:
            fids = order
            if states is None:
                states = [active[fid] for fid in order]
            changed_states = states
            rate_arr = new
        else:
            row_list = rows.tolist()
            fids = [order[i] for i in row_list]
            if states is None:
                changed_states = [active[fid] for fid in fids]
            else:
                changed_states = [states[i] for i in row_list]
            rate_arr = new[rows]
        now = self._now
        if self._synced_at < now:
            sync = self._sync_flow
            for fid in fids:
                sync(fid, now)
        rate_list = rate_arr.tolist()
        for state, rate in zip(changed_states, rate_list):
            state.rate = rate
        tokens = self._heap_token
        token_of = tokens.get
        new_tokens = [token_of(fid, 0) + 1 for fid in fids]
        tokens.update(zip(fids, new_tokens))
        anchor_arr = np.fromiter(
            map(self._anchor.__getitem__, fids), dtype=np.float64, count=count
        )
        slack = np.fromiter(
            (state.remaining for state in changed_states),
            dtype=np.float64,
            count=count,
        ) - np.fromiter(
            map(self._threshold.__getitem__, fids), dtype=np.float64, count=count
        )
        moving = rate_arr > EPS
        with np.errstate(divide="ignore", invalid="ignore"):
            keys = np.where(moving, anchor_arr + slack / rate_arr, anchor_arr)
        keyed = moving | (slack <= 0.0)
        if keyed.all():
            entries = list(zip(keys.tolist(), fids, new_tokens))
        else:
            key_list = keys.tolist()
            entries = [
                (key_list[i], fids[i], new_tokens[i])
                for i in np.flatnonzero(keyed).tolist()
            ]
        if rekey_all:
            heapq.heapify(entries)
            self._finish_heap = entries
        else:
            heap = self._finish_heap
            heap.extend(entries)
            heapq.heapify(heap)
            if len(heap) > max(
                _HEAP_COMPACT_MIN, _HEAP_COMPACT_FACTOR * len(active)
            ):
                self._compact_heap()

        step = (new > 0.0).astype(np.float64) - (old > 0.0).astype(np.float64)
        nz_delta = np.bincount(
            inc.cols, weights=step[inc.rows], minlength=inc.n_links
        )
        link_delta_list = link_delta.tolist()
        nz_list = nz_delta.tolist()
        link_deltas: Dict[Tuple[str, str], float] = {}
        nz_steps: Dict[Tuple[str, str], int] = {}
        for j, link in enumerate(links):
            moved_load = link_delta_list[j]
            if moved_load != 0.0:
                link_deltas[link.key] = moved_load
            moved_count = nz_list[j]
            if moved_count:
                nz_steps[link.key] = int(moved_count)
        self.accounting.apply_bulk(link_deltas, nz_steps)
        # A private copy: the caller keeps the allocation's array.
        self._applied = (inc, self._rates_rev, new.copy())
        if self.observer is not None:
            self.observer.on_rates_applied(
                now, list(zip(fids, changed_states, rate_list))
            )
        return True

    def _feasible_changed(
        self, changed: Sequence[Tuple[int, FlowState, float]]
    ) -> bool:
        """Delta feasibility: examine only links whose load would move."""
        if not changed:
            return True
        deltas: Dict[Tuple[str, str], float] = {}
        for flow_id, state, rate in changed:
            delta = rate - state.rate
            for link in self._paths[flow_id]:
                key = link.key
                deltas[key] = deltas.get(key, 0.0) + delta
        return self.accounting.feasible_with_deltas(deltas, tolerance=1e-6)

    def validate_rates(self, rates: Mapping[int, float]) -> bool:
        """Would :meth:`set_rates` accept this allocation? No mutation.

        Used by :class:`repro.faults.ResilientScheduler` to pre-screen an
        inner scheduler's allocation before the engine commits it. Same
        delta-based cost profile as the ``set_rates`` gate.
        """
        changed: List[Tuple[int, FlowState, float]] = []
        for flow_id, state in self._active.items():
            rate = rates.get(flow_id, 0.0)
            if not 0.0 <= rate < _INF:
                return False
            if rate != state.rate:
                changed.append((flow_id, state, rate))
        return self._feasible_changed(changed)

    def _scale_to_capacity(self, rates: Dict[int, float]) -> Dict[int, float]:
        """Scale rates down uniformly per saturated link until feasible.

        The usage map is built once and relaxed in place; each pass finds
        the worst link by scanning links (not flows x path) and rescales
        only the flows crossing it, courtesy of the accounting's
        flows-per-link index. Per-pass usage corrections are accumulated
        per link in (flow, path position) order and applied once -- the
        same pinned reduction order as the max-min kernels, so a vector
        replay of the relaxation agrees float for float. The worst-link
        loop itself stays scalar: each pass depends on the previous
        one's rescale, an inherently sequential recurrence.
        """
        scaled = dict(rates)
        capacities = self.accounting.capacities
        flows_on = self.accounting.flows_on
        usage: Dict[Tuple[str, str], float] = {}
        for flow_id, rate in scaled.items():
            for link in self._paths[flow_id]:
                key = link.key
                usage[key] = usage.get(key, 0.0) + rate
        for _ in range(len(self._active) + 1):
            worst_ratio = 1.0
            worst_key: Optional[Tuple[str, str]] = None
            for key in sorted(usage):
                used = usage[key]
                capacity = capacities[key]
                if used > capacity * (1 + 1e-9):
                    ratio = capacity / used
                    if ratio < worst_ratio:
                        worst_ratio, worst_key = ratio, key
            if worst_key is None:
                return scaled
            corrections: Dict[Tuple[str, str], float] = {}
            for flow_id in sorted(flows_on[worst_key]):
                old = scaled[flow_id]
                new = old * worst_ratio
                scaled[flow_id] = new
                for link in self._paths[flow_id]:
                    key = link.key
                    corrections[key] = corrections.get(key, 0.0) + (new - old)
            for key, correction in corrections.items():
                usage[key] += correction
        return scaled

    # ------------------------------------------------------------------
    # runtime faults: capacity mutation and rerouting
    # ------------------------------------------------------------------

    def set_link_capacity(self, key: Tuple[str, str], capacity: float) -> float:
        """Mutate one link's capacity mid-run (fault injection / repair).

        Returns the previous capacity. Cost is O(flows crossing the link):
        the topology link object is mutated in place (every dynamic
        ``link.capacity`` read tracks it), the residual accounting's cached
        capacity is refreshed, and -- on a shrink below the link's current
        load -- the in-flight flows crossing it are scaled down
        proportionally (to zero when the link is downed) so the standing
        allocation stays feasible. That invariant is what lets the
        ``set_rates`` delta-feasibility gate keep trusting untouched links.
        The caller (fault injector / engine) is responsible for triggering
        a reschedule so the scheduler can react.
        """
        src, dst = key
        link = self.topology.link(src, dst)
        previous = link.capacity
        self.topology.set_link_capacity(src, dst, capacity)
        self.capacity_epoch += 1
        self.capacity_lineage = self.capacity_lineage + (
            next(_capacity_token_counter),
        )
        if key in self.accounting.capacities:
            self.accounting.set_capacity(key, capacity)
        if self.observer is not None:
            self.observer.on_link_capacity(link, self._now)
        load = self.accounting.loads.get(key, 0.0)
        if load > capacity * (1.0 + 1e-9) + 1e-12:
            ratio = 0.0 if capacity <= 0.0 else capacity / load
            changed: List[Tuple[int, FlowState, float]] = []
            for flow_id in sorted(self.accounting.flows_on.get(key, ())):
                state = self._active[flow_id]
                if state.rate <= 0.0:
                    continue
                self._sync_flow(flow_id, self._now)
                old = state.rate
                new = old * ratio
                state.rate = new
                self._rates_rev += 1
                self.accounting.apply(self._paths[flow_id], old, new)
                self._push_finish(flow_id, state)
                changed.append((flow_id, state, new))
            if self.observer is not None and changed:
                self.observer.on_rates_applied(self._now, changed)
        return previous

    def reroute_flows(self, keys) -> Tuple[List[int], List[int]]:
        """Migrate active flows crossing any link in ``keys`` to new paths.

        The router (whose blocked-link set the fault injector maintains)
        recomputes each affected flow's path; remaining bytes are preserved
        and the flow restarts at rate 0 on the new path, to be re-allocated
        by the fault-caused reschedule. Flows with no alternative route are
        left stranded on their old path (stalled until a restore). Returns
        ``(migrated, stranded)`` flow-id lists.
        """
        keyset = {tuple(k) for k in keys}
        affected = sorted(
            {
                fid
                for key in keyset
                for fid in self.accounting.flows_on.get(key, ())
            }
        )
        migrated: List[int] = []
        stranded: List[int] = []
        from ..topology.routing import RoutingError

        for flow_id in affected:
            state = self._active[flow_id]
            flow = state.flow
            old_path = self._paths[flow_id]
            try:
                new_path = self.router.path(flow.src, flow.dst, flow_id)
            except RoutingError:
                stranded.append(flow_id)
                continue
            if new_path == old_path:
                stranded.append(flow_id)
                continue
            self._sync_flow(flow_id, self._now)
            old_rate = state.rate
            self.accounting.unwatch(flow_id, old_path, old_rate)
            state.rate = 0.0
            self._rates_rev += 1
            self._paths[flow_id] = new_path
            self._columns.pop(flow_id, None)
            self._link_keys.pop(flow_id, None)
            self._demands[flow_id] = FlowDemand(flow_id=flow_id, path=new_path)
            self._demands_rev += 1
            self._group_tokens[flow.group_id] = next(_bucket_token_counter)
            self.accounting.watch(flow_id, new_path)
            self._push_finish(flow_id, state)
            migrated.append(flow_id)
            if self.observer is not None:
                notify = getattr(self.observer, "on_flow_rerouted", None)
                if notify is not None:
                    notify(flow_id, old_path, new_path, self._now)
        return migrated, stranded

    def verify_accounting(self, tolerance: float = 1e-6) -> List[Dict]:
        """Audit the residual accounting against a from-scratch recompute.

        Rebuilds per-link loads, nonzero-rate counts, and membership sets
        by walking every active flow's path, then diffs them against the
        incrementally-maintained :class:`LinkAccounting`. Loads are float
        accumulators, so they are compared with ``tolerance`` scaled by
        capacity; memberships and counts are exact. Returns one problem
        record per drifted link (empty = clean); the ``repro.check``
        sanitizer turns these into violations.
        """
        expected_loads: Dict[Tuple[str, str], float] = {}
        expected_nonzero: Dict[Tuple[str, str], int] = {}
        expected_flows: Dict[Tuple[str, str], set] = {}
        for flow_id in self._live_order():
            rate = self._active[flow_id].rate
            for link in self._paths[flow_id]:
                key = link.key
                expected_loads[key] = expected_loads.get(key, 0.0) + rate
                expected_flows.setdefault(key, set()).add(flow_id)
                if rate > 0.0:
                    expected_nonzero[key] = expected_nonzero.get(key, 0) + 1
        problems: List[Dict] = []
        for key in sorted(self.accounting.loads):
            capacity = self.accounting.capacities[key]
            allowance = tolerance * max(1.0, capacity)
            have_load = self.accounting.loads[key]
            want_load = expected_loads.get(key, 0.0)
            if abs(have_load - want_load) > allowance:
                problems.append(
                    {
                        "link": key,
                        "kind": "load",
                        "accounted": have_load,
                        "recomputed": want_load,
                    }
                )
            have_members = self.accounting.flows_on[key]
            want_members = expected_flows.get(key, set())
            if have_members != want_members:
                problems.append(
                    {
                        "link": key,
                        "kind": "membership",
                        "accounted": sorted(have_members),
                        "recomputed": sorted(want_members),
                    }
                )
            have_count = self.accounting.nonzero[key]
            want_count = expected_nonzero.get(key, 0)
            if have_count != want_count:
                problems.append(
                    {
                        "link": key,
                        "kind": "nonzero_count",
                        "accounted": have_count,
                        "recomputed": want_count,
                    }
                )
        return problems

    def column_capacities(self) -> List[float]:
        """Capacity per link column, for every link any flow has crossed.

        Maintained by the residual accounting (a superset of the links
        under the currently-active flows), so schedulers seeding their
        capacity lists never walk every active path. Treat as read-only:
        copy before mutating into a residual list.
        """
        return self.accounting.column_capacities

    def link_usage(self) -> Dict[Link, float]:
        """Aggregate allocated rate per link across the active flows.

        Only links carrying at least one nonzero-rate flow appear. Reads
        the maintained residual accounting -- O(links), not O(flows).
        """
        return self.accounting.usage()

    def earliest_finish_interval(self) -> float:
        """Time until the first active flow completes at current rates.

        Pops live heap candidates up to the best interval found (plus
        slack), re-checking each with the exact per-flow arithmetic, and
        pushes them back. When the top entry is live and both its
        children are live and keyed past that bound, nothing below them
        can be a candidate either, so the top's interval is returned
        without the pop/push round trip.
        """
        heap = self._finish_heap
        tokens = self._heap_token
        active = self._active
        anchors = self._anchor
        now = self._now
        if heap:
            _key, flow_id, token = heap[0]
            if tokens.get(flow_id) == token:
                best = self._time_to_finish(active[flow_id], anchors[flow_id])
                if best != _INF:
                    bound = now + best + _HEAP_SLACK * max(1.0, abs(now) + best)
                    for child in heap[1:3]:
                        if tokens.get(child[1]) != child[2] or child[0] <= bound:
                            break
                    else:
                        return best
        best = _INF
        popped: List[Tuple[float, int, int]] = []
        while heap:
            key, flow_id, token = heap[0]
            if tokens.get(flow_id) != token:
                heapq.heappop(heap)
                continue
            if key > now + best + _HEAP_SLACK * max(
                1.0, abs(now) + (best if best != _INF else 0.0)
            ):
                break
            popped.append(heapq.heappop(heap))
            interval = self._time_to_finish(active[flow_id], anchors[flow_id])
            if interval < best:
                best = interval
        for entry in popped:
            heapq.heappush(heap, entry)
        return best

    def advance(self, dt: float, now: float) -> List[FlowState]:
        """Advance time by ``dt`` and retire flows that finish by then.

        Returns the newly-finished flow states (sorted by flow id); their
        ``finish_time`` is stamped ``now + dt``. Unfinished flows are not
        touched -- they drain lazily and materialize on the next read.
        Candidates are the live heap entries keyed at or before the new
        time (plus slack), each re-checked with the exact per-flow
        arithmetic of :meth:`projected_remaining`.
        """
        if dt < -EPS:
            raise ValueError(f"cannot advance time by {dt}")
        if dt < 0.0:
            dt = 0.0
        if self.observer is not None and dt > 0.0 and self._active:
            self.observer.on_network_advance(now, dt, self.accounting)
        finish_time = now + dt
        if finish_time < self._now:
            finish_time = self._now
        self._now = finish_time
        heap = self._finish_heap
        tokens = self._heap_token
        bound = finish_time + _HEAP_SLACK * max(1.0, abs(finish_time))
        finished: List[FlowState] = []
        repush: List[Tuple[float, int, int]] = []
        while heap:
            entry = heap[0]
            flow_id = entry[1]
            if tokens.get(flow_id) != entry[2]:
                heapq.heappop(heap)
                continue
            if entry[0] > bound:
                break
            heapq.heappop(heap)
            state = self._active[flow_id]
            remaining = self._projected_remaining(
                state, self._anchor[flow_id], finish_time
            )
            if remaining <= self._threshold[flow_id]:
                finished.append(state)
            else:
                repush.append(entry)
        for entry in repush:
            heapq.heappush(heap, entry)
        if len(finished) > 1:
            finished.sort(key=lambda s: s.flow.flow_id)
        for state in finished:
            self._sync_flow(state.flow.flow_id, finish_time)
            self._retire(state, finish_time)
        return finished

    # ------------------------------------------------------------------
    # port capacities (big-switch view for Varys/MADD)
    # ------------------------------------------------------------------

    def egress_capacities(self) -> Dict[str, float]:
        return {h: self.topology.host_egress_capacity(h) for h in self.topology.hosts}

    def ingress_capacities(self) -> Dict[str, float]:
        return {h: self.topology.host_ingress_capacity(h) for h in self.topology.hosts}

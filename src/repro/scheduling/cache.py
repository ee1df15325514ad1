"""Decision reuse across iterations (Section 5's scalability proposal).

"We propose to improve the scalability by revising them to maintain the
scheduling decision throughout the DDLT lifetime leveraging the iterative
nature of DDLT jobs."

DDLT traffic repeats: iteration k+1's flows have the same sizes, paths,
group shapes, and relative deadlines as iteration k's. The
:class:`MemoizingScheduler` wrapper exploits exactly that: it fingerprints
the scheduling *situation* -- per active flow its pinned path (which
names its endpoints), arrangement index, remaining bytes, deadline slack
relative to now, and group weight, with group identities normalized to
order-of-appearance so per-iteration id suffixes do not matter -- and
replays the inner algorithm's allocation whenever the same situation
recurs.

Every call, hit or miss, pays for the fingerprint: O(active flows)
tuple work plus one quantization per distinct float (a decision repeats
a few remaining sizes, deadlines and weights over many flows), then a
dictionary lookup that hashes the O(active flows) key. A hit saves the
inner solve, no more; on steady multi-iteration jobs the hit rate
approaches (iterations - 1)/iterations.

Fingerprint floats are quantized to 9 significant digits so iteration
k+1's accumulated float fuzz still matches iteration k's situation. Two
situations within the quantum are treated as the same optimization
problem, so a replayed allocation can differ from a fresh solve of the
situation at hand by up to about the quantum: 1 part in 1e9, relative.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .base import Scheduler, SchedulerView


def _quantize(value: float) -> float:
    """Collapse float fuzz so recurring situations fingerprint equally."""
    return float(f"{value:.9g}")


class _QuantizedValues(dict):
    """value -> ``_quantize(value)``, filled on first lookup."""

    def __missing__(self, value: float) -> float:
        quantized = self[value] = _quantize(value)
        return quantized


class MemoizingScheduler(Scheduler):
    """Cache an inner scheduler's allocations by situation fingerprint."""

    name = "memoized"

    def __init__(self, inner: Scheduler, max_entries: int = 8192) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.inner = inner
        self.max_entries = max_entries
        self._cache: "OrderedDict[Tuple, Tuple[float, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def _fingerprint(self, view: SchedulerView) -> Tuple[Tuple, List[int]]:
        network = view.network
        now = view.now
        echelonflows = view.echelonflows
        # Runtime capacity mutations (fault injection) change the
        # optimization problem without changing any per-flow field; the
        # network's capacity *lineage* keys them into the fingerprint so
        # a pre-fault decision is never replayed post-fault. The lineage
        # (globally-unique token per mutation) rather than the bare epoch
        # counter is what makes the cache safe to share across forks: a
        # fork that mutated a link and a parent that mutated a different
        # one both sit at epoch N+1, but their lineages differ, so
        # neither can replay the other's allocation.
        entries = [
            ("epoch", getattr(network, "capacity_lineage", None)
             or network.capacity_epoch)
        ]
        flow_ids = []
        link_keys = network.link_keys
        # A decision repeats a few values over many flows: members of a
        # group share its weight and, per arrangement index, a deadline;
        # remaining bytes repeat across equal-sized flows. Each distinct
        # float is quantized once per call, and each group and each
        # (group, index) deadline resolved once per call.
        quantized = _QuantizedValues()
        # group id -> (order-of-appearance token, quantized weight, the
        # EchelonFlow that dates its members or None when each flow's own
        # cached deadline applies, index -> quantized slack).
        groups: Dict[Optional[str], Tuple] = {}
        for state in view.active_states():  # sorted by flow id
            flow = state.flow
            group_id = flow.group_id
            group = groups.get(group_id)
            if group is None:
                echelonflow = (
                    echelonflows.get(group_id) if group_id is not None else None
                )
                weight = echelonflow.weight if echelonflow is not None else 1.0
                if echelonflow is not None and echelonflow.reference_time is None:
                    echelonflow = None
                group = groups[group_id] = (
                    len(groups), quantized[weight], echelonflow, {}
                )
            token, q_weight, echelonflow, slacks = group
            index = flow.index_in_group
            if echelonflow is not None:
                slack = slacks.get(index)
                if slack is None:
                    slack = slacks[index] = quantized[
                        echelonflow.ideal_finish_time(index) - now
                    ]
            else:
                deadline = state.ideal_finish_time
                slack = quantized[
                    deadline - now if deadline is not None
                    else now - state.start_time
                ]
            flow_id = flow.flow_id
            # The path by link names (forks share them), which also names
            # the endpoints: with ECMP, equal endpoints do not imply
            # equal paths.
            entries.append(
                (
                    link_keys(flow_id),
                    token,
                    index,
                    quantized[state.remaining],
                    slack,
                    q_weight,
                )
            )
            flow_ids.append(flow_id)
        return tuple(entries), flow_ids

    def allocate(self, view: SchedulerView) -> Dict[int, float]:
        fingerprint, flow_ids = self._fingerprint(view)
        cached = self._cache.get(fingerprint)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(fingerprint)
            return dict(zip(flow_ids, cached))
        self.misses += 1
        rates = self.inner.allocate(view)
        ordered = tuple(rates.get(flow_id, 0.0) for flow_id in flow_ids)
        self._cache[fingerprint] = ordered
        if len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)  # LRU eviction
        return dict(zip(flow_ids, ordered))

    def fork(self) -> "MemoizingScheduler":
        """A fork that *shares* the fingerprint cache by reference.

        Equal fingerprints mean the same optimization problem up to the
        quantum, and fingerprints embed the capacity lineage, so parent,
        fork, and sibling forks can safely feed one another warm
        decisions: the what-if service's whole point. The
        inner scheduler is forked normally (independent state); hit/miss
        counters start fresh so per-fork hit rates are meaningful.
        """
        inner = self.inner.fork() if hasattr(self.inner, "fork") else self.inner
        twin = MemoizingScheduler(inner, max_entries=self.max_entries)
        twin._cache = self._cache
        return twin

    def __deepcopy__(self, memo) -> "MemoizingScheduler":
        # The twin oracle deep-copies engine.scheduler on every sampled
        # invocation. Fingerprints and allocations are immutable tuples,
        # so an independent cache only needs its own dict, not copies of
        # every key (each carries every active flow's path).
        twin = type(self)(copy.deepcopy(self.inner, memo), self.max_entries)
        twin._cache = OrderedDict(self._cache)
        twin.hits = self.hits
        twin.misses = self.misses
        memo[id(self)] = twin
        return twin

    # ------------------------------------------------------------------

    @property
    def work_conserving(self) -> bool:
        """Replayed allocations inherit the inner algorithm's contract."""
        return getattr(self.inner, "work_conserving", False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._cache.clear()
        self.hits = 0
        self.misses = 0

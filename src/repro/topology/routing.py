"""Routing: turn (src, dst) host pairs into link paths.

Flow scheduling allocates rates on links along a fixed path, so routes are
computed once per topology and cached. Two policies:

* :class:`ShortestPathRouter` -- deterministic shortest path (ties broken by
  node name for reproducibility).
* :class:`EcmpRouter` -- equal-cost multi-path; picks among shortest paths by
  a stable hash of the flow id, approximating per-flow ECMP spraying.

Both return paths as tuples of :class:`~repro.topology.graph.Link`.

Cost: a router keeps, per destination (and blocked-link set), the
shortest-path DAG into it -- a reverse BFS, O(links) in total, grown only
as far as the farthest source asked so far -- and enumerates a pair's
paths by walking that DAG, so a cold pair costs O(limit x hops) once its
destination's DAG reaches it, and a cached pair is a dictionary hit.
Routing every pair of an ``n``-host fabric is O(n x links + pairs x limit
x hops), never a search over nodes that cannot reach the destination.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .graph import Link, Topology


class RoutingError(Exception):
    """Raised when no path exists between requested endpoints."""


class _ShortestPathDag:
    """The shortest-path DAG into one destination, grown on demand.

    A reverse BFS over in-links: a link ``u -> v`` is on some shortest
    path to the destination exactly when ``hops(u) == hops(v) + 1``, so
    each node's next hops (``nexts``, sorted by name) are collected as the
    BFS scans the level below it. The BFS stops as soon as a level
    containing the requested source is complete and resumes from its
    frontier for a farther source, so a destination's DAG costs O(links)
    in total however many sources ask. Links in ``blocked`` are absent.
    Entries hold node names only: a forked router over a cloned topology
    shares them.
    """

    __slots__ = ("blocked", "hops", "nexts", "frontier")

    def __init__(self, dst: str, blocked: FrozenSet[Tuple[str, str]]) -> None:
        self.blocked = blocked
        self.hops: Dict[str, int] = {dst: 0}
        self.nexts: Dict[str, List[str]] = {dst: []}
        self.frontier: List[str] = [dst]

    def reach(self, topo: Topology, src: str) -> Dict[str, List[str]]:
        """Grow until ``src`` (if it can reach the destination) and every
        node nearer than it have their complete next-hop lists."""
        hops, nexts, blocked = self.hops, self.nexts, self.blocked
        while self.frontier and src not in hops:
            level = hops[self.frontier[0]] + 1
            found: List[str] = []
            for node in self.frontier:
                for link in topo.in_links(node):
                    if link.key in blocked:
                        continue
                    prev = link.src
                    seen = hops.get(prev)
                    if seen is None:
                        hops[prev] = level
                        nexts[prev] = [node]
                        found.append(prev)
                    elif seen == level:
                        nexts[prev].append(node)
            for prev in found:
                nexts[prev].sort()
            self.frontier = found
        return nexts


#: A router's DAGs, keyed by ``(destination, blocked-link set)``.
NextHopCache = Dict[Tuple[str, FrozenSet[Tuple[str, str]]], _ShortestPathDag]


def _all_shortest_paths(
    topo: Topology,
    src: str,
    dst: str,
    limit: int,
    blocked: FrozenSet[Tuple[str, str]],
    cache: NextHopCache,
) -> List[Tuple[str, ...]]:
    """Enumerate up to ``limit`` shortest hop-count node paths src -> dst.

    Paths come in lexicographic node order (deterministic tie-breaking).
    Links whose ``(src, dst)`` key is in ``blocked`` are treated as absent
    (downed). The walk follows the destination's shortest-path DAG
    (:class:`_ShortestPathDag`), so it only ever visits nodes on a
    shortest path: O(limit x hops) per pair once the DAG reaches ``src``.
    ``cache`` is the router's, so each DAG is built once per destination.
    """
    if src == dst:
        return [(src,)]
    dag = cache.get((dst, blocked))
    if dag is None:
        dag = cache[(dst, blocked)] = _ShortestPathDag(dst, blocked)
    nexts = dag.reach(topo, src)
    if src not in nexts:
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    paths: List[Tuple[str, ...]] = []
    # Depth-first over the DAG with an explicit stack of next-hop
    # iterators (one per node of ``path``), so nothing here forms a
    # reference cycle for the collector to find.
    path = [src]
    stack = [iter(nexts[src])]
    while stack and len(paths) < limit:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            path.pop()
        elif nxt == dst:
            paths.append((*path, nxt))
        else:
            path.append(nxt)
            stack.append(iter(nexts[nxt]))
    return paths


def _shortest_paths_or_degraded(
    topo: Topology,
    src: str,
    dst: str,
    limit: int,
    blocked: FrozenSet[Tuple[str, str]],
    cache: NextHopCache,
) -> List[Tuple[str, ...]]:
    """Prefer paths that avoid blocked links; fall back to ignoring them.

    When an outage disconnects a host pair entirely (single-path fabrics,
    or every equal-cost path down), flows admitted during the outage still
    need a pinned route: they take the downed path and stall at zero
    capacity until the link restores -- the same stranded semantics
    in-flight flows get -- rather than failing admission.
    """
    if blocked:
        try:
            return _all_shortest_paths(topo, src, dst, limit, blocked, cache)
        except RoutingError:
            pass
    return _all_shortest_paths(topo, src, dst, limit, frozenset(), cache)


def _translate_path(
    topo: Topology, path: Sequence[Link]
) -> Tuple[Link, ...]:
    """Re-key a link path onto another topology's link objects."""
    return tuple(topo.link(link.src, link.dst) for link in path)


def _links_of(topo: Topology, node_path: Sequence[str]) -> Tuple[Link, ...]:
    return tuple(
        topo.link(node_path[i], node_path[i + 1]) for i in range(len(node_path) - 1)
    )


class _BlockingMixin:
    """Shared blocked-link bookkeeping for the routers.

    Blocking a link excludes it from every subsequently computed path (downed
    links during fault injection); already-admitted flows keep their pinned
    paths until explicitly migrated. Both operations clear the route cache
    and the shortest-path DAGs.
    """

    _blocked: Set[Tuple[str, str]]
    _next_hops: NextHopCache

    def block_links(self, keys) -> None:
        changed = False
        for key in keys:
            key = tuple(key)
            if key not in self._blocked:
                self._blocked.add(key)
                changed = True
        if changed:
            self._cache.clear()
            self._next_hops.clear()

    def unblock_links(self, keys) -> None:
        changed = False
        for key in keys:
            key = tuple(key)
            if key in self._blocked:
                self._blocked.discard(key)
                changed = True
        if changed:
            self._cache.clear()
            self._next_hops.clear()

    @property
    def blocked_links(self) -> FrozenSet[Tuple[str, str]]:
        return frozenset(self._blocked)


class ShortestPathRouter(_BlockingMixin):
    """Deterministic single shortest path per host pair, cached."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cache: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        self._next_hops: NextHopCache = {}
        self._blocked: Set[Tuple[str, str]] = set()

    def fork(self, topology: Topology) -> "ShortestPathRouter":
        """An equivalent router over a cloned topology.

        The blocked-link set carries over (keys are name pairs, valid on
        any clone); the path cache is translated link-by-link so the
        fork serves identical routes without recomputation.
        """
        twin = ShortestPathRouter(topology)
        twin._blocked = set(self._blocked)
        twin._next_hops = dict(self._next_hops)
        twin._cache = {
            pair: _translate_path(topology, path)
            for pair, path in self._cache.items()
        }
        return twin

    def path(self, src: str, dst: str, flow_id: Optional[int] = None) -> Tuple[Link, ...]:
        path = self._cache.get((src, dst))
        if path is None:
            self.topology.validate_endpoints(src, dst)
            node_paths = _shortest_paths_or_degraded(
                self.topology, src, dst, 1, frozenset(self._blocked),
                self._next_hops,
            )
            path = _links_of(self.topology, node_paths[0])
            self._cache[(src, dst)] = path
        return path


class EcmpRouter(_BlockingMixin):
    """Flow-hashed equal-cost multi-path routing.

    All shortest paths between a host pair are enumerated once; a given flow
    always hashes to the same path, matching switch ECMP behaviour where a
    flow's five-tuple pins its path for its lifetime.
    """

    def __init__(self, topology: Topology, fanout_limit: int = 16) -> None:
        self.topology = topology
        self.fanout_limit = fanout_limit
        self._cache: Dict[Tuple[str, str], List[Tuple[Link, ...]]] = {}
        self._next_hops: NextHopCache = {}
        self._blocked: Set[Tuple[str, str]] = set()

    def fork(self, topology: Topology) -> "EcmpRouter":
        """An equivalent router over a cloned topology (see
        :meth:`ShortestPathRouter.fork`); candidate lists keep their
        order so flow-id hashing picks the same path on the fork."""
        twin = EcmpRouter(topology, fanout_limit=self.fanout_limit)
        twin._blocked = set(self._blocked)
        twin._next_hops = dict(self._next_hops)
        twin._cache = {
            pair: [_translate_path(topology, path) for path in paths]
            for pair, paths in self._cache.items()
        }
        return twin

    def paths(self, src: str, dst: str) -> List[Tuple[Link, ...]]:
        key = (src, dst)
        if key not in self._cache:
            self.topology.validate_endpoints(src, dst)
            node_paths = _shortest_paths_or_degraded(
                self.topology, src, dst, self.fanout_limit,
                frozenset(self._blocked), self._next_hops,
            )
            self._cache[key] = [_links_of(self.topology, p) for p in node_paths]
        return self._cache[key]

    def path(self, src: str, dst: str, flow_id: Optional[int] = None) -> Tuple[Link, ...]:
        candidates = self.paths(src, dst)
        if flow_id is None:
            return candidates[0]
        # A deterministic small-prime hash keeps runs reproducible across
        # processes (unlike built-in hash() with randomized seeds for str).
        index = (flow_id * 2654435761) % len(candidates)
        return candidates[index]


def widest_bottleneck(path: Sequence[Link]) -> float:
    """The minimum capacity along a path: a single flow's max rate."""
    if not path:
        raise ValueError("empty path has no bottleneck")
    return min(link.capacity for link in path)

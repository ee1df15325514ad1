"""Routers: shortest path, ECMP, determinism."""

import random
from typing import Dict, List, Tuple

import pytest

from repro.topology import (
    EcmpRouter,
    RoutingError,
    ShortestPathRouter,
    Topology,
    big_switch,
    fat_tree,
    leaf_spine,
    widest_bottleneck,
)
from repro.topology.routing import (
    _all_shortest_paths,
    _shortest_paths_or_degraded,
)


def test_shortest_path_on_big_switch():
    topo = big_switch(3, 10.0)
    router = ShortestPathRouter(topo)
    path = router.path("h0", "h1")
    assert [link.key for link in path] == [("h0", "core"), ("core", "h1")]


def test_path_is_cached_and_stable():
    topo = big_switch(3, 10.0)
    router = ShortestPathRouter(topo)
    assert router.path("h0", "h2") is router.path("h0", "h2")


def test_no_path_raises():
    topo = Topology("disconnected")
    topo.add_host("a")
    topo.add_host("b")
    topo.add_host("c")
    topo.add_duplex_link("a", "b", 1.0)
    router = ShortestPathRouter(topo)
    with pytest.raises(RoutingError):
        router.path("a", "c")


def test_router_validates_endpoints():
    topo = big_switch(2, 1.0)
    router = ShortestPathRouter(topo)
    with pytest.raises(ValueError):
        router.path("h0", "core")


def test_ecmp_enumerates_multiple_shortest_paths():
    topo = leaf_spine(2, 2, 10.0, n_spines=2)
    router = EcmpRouter(topo)
    # Cross-leaf pairs have one path per spine.
    hosts = topo.hosts
    cross = (hosts[0], hosts[2])
    assert len(router.paths(*cross)) == 2


def test_ecmp_is_deterministic_per_flow():
    topo = leaf_spine(2, 2, 10.0, n_spines=2)
    router = EcmpRouter(topo)
    a = router.path("h0", "h2", flow_id=5)
    b = router.path("h0", "h2", flow_id=5)
    assert a == b


def test_ecmp_spreads_flows_across_paths():
    topo = leaf_spine(2, 2, 10.0, n_spines=4)
    router = EcmpRouter(topo)
    chosen = {router.path("h0", "h2", flow_id=i) for i in range(32)}
    assert len(chosen) > 1


def test_ecmp_on_fat_tree_paths_have_consistent_length():
    topo = fat_tree(4, 1.0)
    router = EcmpRouter(topo)
    hosts = topo.hosts
    paths = router.paths(hosts[0], hosts[-1])
    lengths = {len(p) for p in paths}
    assert len(lengths) == 1  # all shortest


def test_widest_bottleneck():
    topo = Topology("t")
    topo.add_host("a")
    topo.add_switch("s")
    topo.add_host("b")
    topo.add_link("a", "s", 5.0)
    topo.add_link("s", "b", 2.0)
    router = ShortestPathRouter(topo)
    assert widest_bottleneck(router.path("a", "b")) == 2.0
    with pytest.raises(ValueError):
        widest_bottleneck([])


# ---------------------------------------------------------------------------
# Path enumeration against the unpruned enumerator
# ---------------------------------------------------------------------------


def _oracle_shortest_paths(topo, src, dst, limit=16, blocked=None):
    """The unpruned enumerator: BFS levels from ``src``, then a DFS into
    every node at the right level, whether or not it can reach ``dst``."""
    if src == dst:
        return [(src,)]
    blocked = blocked or frozenset()
    dist: Dict[str, int] = {src: 0}
    frontier = [src]
    while frontier and dst not in dist:
        next_frontier: List[str] = []
        for node in frontier:
            for link in topo.out_links(node):
                if link.key in blocked:
                    continue
                if link.dst not in dist:
                    dist[link.dst] = dist[node] + 1
                    next_frontier.append(link.dst)
        frontier = next_frontier
    if dst not in dist:
        raise RoutingError(f"no path from {src!r} to {dst!r}")
    target_len = dist[dst]
    paths: List[Tuple[str, ...]] = []

    def extend(path: List[str]) -> None:
        if len(paths) >= limit:
            return
        node = path[-1]
        if node == dst:
            paths.append(tuple(path))
            return
        if len(path) - 1 >= target_len:
            return
        for link in sorted(topo.out_links(node), key=lambda l: l.dst):
            if link.key in blocked:
                continue
            nxt = link.dst
            if dist.get(nxt, -1) == len(path):
                path.append(nxt)
                extend(path)
                path.pop()

    extend([src])
    return paths


def _oracle_or_degraded(topo, src, dst, limit, blocked):
    if blocked:
        try:
            return _oracle_shortest_paths(topo, src, dst, limit, blocked)
        except RoutingError:
            pass
    return _oracle_shortest_paths(topo, src, dst, limit)


def _reverse_named_clos():
    """Two tiers whose switches are added in reverse name order, so
    insertion order and lexicographic order disagree everywhere."""
    topo = Topology("reverse-named")
    spines = [f"spine{i}" for i in (9, 5, 1)]
    leaves = [f"leaf{i}" for i in (7, 3)]
    for name in spines + leaves:
        topo.add_switch(name)
    for leaf in leaves:
        for spine in spines:
            topo.add_duplex_link(leaf, spine, 10.0)
    for index, leaf in enumerate(leaves):
        for host in (f"h{9 - 2 * index}", f"h{8 - 2 * index}"):
            topo.add_host(host)
            topo.add_duplex_link(host, leaf, 10.0)
    return topo


_FABRICS = {
    "big_switch8": lambda: big_switch(8, 10.0),
    "reverse_named": _reverse_named_clos,
    "fat_tree4": lambda: fat_tree(4, 10.0),
    "leaf_spine": lambda: leaf_spine(3, 3, 10.0, n_spines=3),
}


def _blocked_sets(topo, seed):
    """The empty set plus random link subsets of growing density; the
    densest ones disconnect some pairs and exercise the fallback."""
    rng = random.Random(seed)
    keys = sorted(link.key for link in topo.links())
    sets = [frozenset()]
    for fraction in (0.05, 0.15, 0.4):
        sets.append(frozenset(k for k in keys if rng.random() < fraction))
    return sets


def _answer(fn, *args):
    try:
        return fn(*args)
    except RoutingError:
        return "unreachable"


@pytest.mark.parametrize("fabric", sorted(_FABRICS))
@pytest.mark.parametrize("limit", [1, 16])
def test_pruned_enumerator_matches_oracle(fabric, limit):
    topo = _FABRICS[fabric]()
    hosts = topo.hosts
    for blocked in _blocked_sets(topo, seed=limit):
        cache: dict = {}
        for src in hosts:
            for dst in hosts:
                assert _answer(
                    _all_shortest_paths, topo, src, dst, limit, blocked,
                    cache,
                ) == _answer(
                    _oracle_shortest_paths, topo, src, dst, limit, blocked
                ), (src, dst, sorted(blocked))
                assert _answer(
                    _shortest_paths_or_degraded, topo, src, dst, limit,
                    blocked, cache,
                ) == _answer(
                    _oracle_or_degraded, topo, src, dst, limit, blocked
                ), (src, dst, sorted(blocked))


@pytest.mark.parametrize("fabric", sorted(_FABRICS))
def test_routers_match_oracle_across_block_and_unblock(fabric):
    topo = _FABRICS[fabric]()
    hosts = topo.hosts
    ecmp = EcmpRouter(topo)
    single = ShortestPathRouter(topo)

    def check(blocked):
        for src in hosts:
            for dst in hosts:
                if src == dst:
                    continue
                want = _oracle_or_degraded(topo, src, dst, 16, blocked)
                got = [
                    tuple([path[0].src] + [link.dst for link in path])
                    for path in ecmp.paths(src, dst)
                ]
                assert got == want, (src, dst)
                first = single.path(src, dst)
                assert [first[0].src] + [l.dst for l in first] == list(
                    _oracle_or_degraded(topo, src, dst, 1, blocked)[0]
                )

    check(frozenset())
    for blocked in _blocked_sets(topo, seed=3)[1:]:
        # Routes follow the new blocked set; the DAGs built under the
        # old one are dropped rather than left to accumulate.
        ecmp.unblock_links(ecmp.blocked_links)
        single.unblock_links(single.blocked_links)
        ecmp.block_links(blocked)
        single.block_links(blocked)
        if blocked:
            assert not ecmp._next_hops and not single._next_hops
        check(blocked)
    ecmp.unblock_links(ecmp.blocked_links)
    single.unblock_links(single.blocked_links)
    check(frozenset())

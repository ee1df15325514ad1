"""Capacitated network topologies.

A :class:`Topology` is a directed multigraph of named nodes connected by
capacitated :class:`Link` objects. Hosts (GPU servers) are the only legal
flow endpoints; switches forward traffic. Routing (path selection) lives in
:mod:`repro.topology.routing`; this module only stores structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass(eq=False)
class Link:
    """A directed link with a capacity in bytes per second.

    Links hash by identity (``eq=False``): every link is owned by exactly one
    :class:`Topology` and shared by reference, so identity semantics survive
    runtime capacity mutation (fault injection) without invalidating any dict
    keyed by the link object.
    """

    src: str
    dst: str
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(
                f"link {self.src}->{self.dst} capacity must be positive, "
                f"got {self.capacity}"
            )
        if self.src == self.dst:
            raise ValueError(f"self-loop link at {self.src!r}")
        self.nominal_capacity = self.capacity
        #: ``(src, dst)``: the link's name pair, stored once because
        #: routing, residual accounting and rate application read it on
        #: every flow they touch.
        self.key: Tuple[str, str] = (self.src, self.dst)


class Topology:
    """Directed capacitated graph with host/switch node roles."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._hosts: Dict[str, dict] = {}
        self._switches: Dict[str, dict] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._out_links: Dict[str, List[Link]] = {}
        self._in_links: Dict[str, List[Link]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_host(self, name: str, **attrs) -> None:
        if name in self._hosts or name in self._switches:
            raise ValueError(f"duplicate node name {name!r}")
        self._hosts[name] = dict(attrs)

    def add_switch(self, name: str, **attrs) -> None:
        if name in self._hosts or name in self._switches:
            raise ValueError(f"duplicate node name {name!r}")
        self._switches[name] = dict(attrs)

    def add_link(self, src: str, dst: str, capacity: float) -> Link:
        """Add a directed link; both endpoints must already exist."""
        for node in (src, dst):
            if node not in self._hosts and node not in self._switches:
                raise KeyError(f"unknown node {node!r}")
        link = Link(src, dst, capacity)
        if link.key in self._links:
            raise ValueError(f"duplicate link {src!r}->{dst!r}")
        self._links[link.key] = link
        self._out_links.setdefault(src, []).append(link)
        self._in_links.setdefault(dst, []).append(link)
        return link

    def add_duplex_link(self, a: str, b: str, capacity: float) -> Tuple[Link, Link]:
        """Add a pair of directed links (full duplex)."""
        return self.add_link(a, b, capacity), self.add_link(b, a, capacity)

    def clone(self) -> "Topology":
        """An independent copy with fresh :class:`Link` objects.

        Current *and* nominal capacities are preserved, including the
        runtime-mutated ones fault injection leaves behind (a downed
        link's capacity 0 is legal at runtime but not at construction,
        so links are built at their nominal capacity and then restamped).
        Node attribute dicts are copied shallowly. Forked engines route
        and mutate capacities on the clone without touching the parent.
        """
        twin = Topology(self.name)
        for name, attrs in self._hosts.items():
            twin._hosts[name] = dict(attrs)
        for name, attrs in self._switches.items():
            twin._switches[name] = dict(attrs)
        for key, link in self._links.items():
            copied = twin.add_link(link.src, link.dst, link.nominal_capacity)
            copied.capacity = link.capacity
        return twin

    def set_link_capacity(self, src: str, dst: str, capacity: float) -> Link:
        """Mutate a link's capacity in place (fault injection / repair).

        Unlike construction, a runtime capacity of 0 is legal: it models a
        downed link. Negative capacities are rejected. Returns the link.
        """
        if capacity < 0:
            raise ValueError(
                f"link {src}->{dst} capacity must be >= 0, got {capacity}"
            )
        link = self.link(src, dst)
        link.capacity = capacity
        return link

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def hosts(self) -> List[str]:
        return sorted(self._hosts)

    @property
    def switches(self) -> List[str]:
        return sorted(self._switches)

    @property
    def nodes(self) -> List[str]:
        return sorted(list(self._hosts) + list(self._switches))

    def is_host(self, name: str) -> bool:
        return name in self._hosts

    def has_node(self, name: str) -> bool:
        return name in self._hosts or name in self._switches

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src!r}->{dst!r} in topology {self.name!r}")

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def out_links(self, node: str) -> List[Link]:
        return list(self._out_links.get(node, []))

    def in_links(self, node: str) -> List[Link]:
        return list(self._in_links.get(node, []))

    def host_egress_capacity(self, host: str) -> float:
        """Total uplink capacity of a host (its egress "port" in Varys terms)."""
        links = self._out_links.get(host, [])
        if not links:
            raise KeyError(f"host {host!r} has no outgoing links")
        return sum(link.capacity for link in links)

    def host_ingress_capacity(self, host: str) -> float:
        links = self._in_links.get(host, [])
        if not links:
            raise KeyError(f"host {host!r} has no incoming links")
        return sum(link.capacity for link in links)

    def validate_endpoints(self, src: str, dst: str) -> None:
        """Flow endpoints must be distinct hosts."""
        if not self.is_host(src):
            raise ValueError(f"flow source {src!r} is not a host")
        if not self.is_host(dst):
            raise ValueError(f"flow destination {dst!r} is not a host")
        if src == dst:
            raise ValueError(f"flow endpoints must differ ({src!r})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Topology<{self.name} hosts={len(self._hosts)} "
            f"switches={len(self._switches)} links={len(self._links)}>"
        )

"""Network container and static shortest-path routing.

:class:`Network` owns the nodes, wires up links (a bidirectional link is a
pair of :class:`~repro.net.link.Interface` objects), and fills every node's
next-hop table from shortest propagation-delay paths.  Routing is
static, matching the paper's setting of a single stable route per connection
(Table 1 / Table 2); dynamic effects are injected with
:class:`~repro.net.faults.RouteFlapFault`.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.errors import AddressError, ConfigurationError, RoutingError
from repro.net.host import Host
from repro.net.link import Interface
from repro.net.node import Node
from repro.net.queue import DropTailQueue, MODE_PACKETS
from repro.net.clocks import Clock
from repro.sim.kernel import Simulator

#: Default output buffer size, in packets, for newly created links.
DEFAULT_QUEUE_CAPACITY = 64
#: Longest path :meth:`Network.path` follows before reporting a loop.
MAX_PATH_HOPS = 64


class Network:
    """A collection of nodes, links, and their routing tables."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self._edges: list[tuple[str, str, Interface]] = []

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add_router(self, name: str, processing_delay: float = 0.0) -> Node:
        """Create and register a forwarding-only node."""
        node = Node(self.sim, name, processing_delay=processing_delay)
        self._register(node)
        return node

    def add_host(self, name: str, clock: Optional[Clock] = None) -> Host:
        """Create and register an end host (UDP stack + clock)."""
        host = Host(self.sim, name, clock=clock)
        self._register(host)
        return host

    def _register(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node

    def link(self, a: str, b: str, rate_bps: float, prop_delay: float,
             queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
             queue_mode: str = MODE_PACKETS,
             rate_bps_ba: Optional[float] = None,
             prop_delay_ba: Optional[float] = None,
             ) -> tuple[Interface, Interface]:
        """Create a bidirectional link between nodes ``a`` and ``b``.

        The reverse direction defaults to the forward parameters; pass the
        ``*_ba`` overrides for asymmetric links.  Returns the two interfaces
        ``(a->b, b->a)``.
        """
        node_a = self.node(a)
        node_b = self.node(b)
        # Both directions are built (and their parameters checked) before
        # either is wired in, so a rejected link leaves no half behind.
        iface_ab = self._make_interface(node_a, node_b, rate_bps, prop_delay,
                                        queue_capacity, queue_mode)
        iface_ba = self._make_interface(
            node_b, node_a,
            rate_bps if rate_bps_ba is None else rate_bps_ba,
            prop_delay if prop_delay_ba is None else prop_delay_ba,
            queue_capacity, queue_mode)
        for sender, receiver, interface in ((node_a, node_b, iface_ab),
                                            (node_b, node_a, iface_ba)):
            interface.attach_peer(receiver)
            sender.add_interface(receiver.name, interface)
            self._edges.append((sender.name, receiver.name, interface))
        return iface_ab, iface_ba

    def _make_interface(self, sender: Node, receiver: Node, rate_bps: float,
                        prop_delay: float, queue_capacity: int,
                        queue_mode: str) -> Interface:
        name = f"{sender.name}->{receiver.name}"
        queue = DropTailQueue(self.sim, capacity=queue_capacity,
                              mode=queue_mode, name=name)
        return Interface(self.sim, sender, rate_bps=rate_bps,
                         prop_delay=prop_delay, queue=queue, name=name)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Return the node called ``name``."""
        try:
            return self.nodes[name]
        except KeyError:
            raise AddressError(f"unknown node {name!r}") from None

    def host(self, name: str) -> Host:
        """Return the host called ``name`` (error if it is a plain router)."""
        node = self.node(name)
        if not isinstance(node, Host):
            raise AddressError(f"node {name!r} is a router, not a host")
        return node

    def interface(self, a: str, b: str) -> Interface:
        """Return the ``a -> b`` interface of the direct link between them."""
        return self.node(a).interface_to(b)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def compute_routes(self) -> None:
        """Fill every node's next-hop table with shortest-path routes.

        Dijkstra from every node, weighting each link by its propagation
        delay plus 1 µs: the tiny constant keeps zero-delay LANs from
        producing ties resolved arbitrarily, so hop count then dominates.
        Neighbors are scanned in link-creation order, a push counter breaks
        heap ties, and a first hop changes only on a strict improvement:
        networkx's ``shortest_path`` rules, so equal-cost ties resolve the
        same way.
        """
        adjacency: dict[str, dict[str, float]] = {name: {}
                                                  for name in self.nodes}
        for a, b, iface in self._edges:
            adjacency[a][b] = iface.prop_delay + 1e-6
        for source, node in self.nodes.items():
            settled: set[str] = set()
            best = {source: 0.0}
            first_hop: dict[str, str] = {}
            counter = itertools.count()
            fringe = [(0.0, next(counter), source)]
            while fringe:
                dist, _, name = heapq.heappop(fringe)
                if name in settled:
                    continue
                settled.add(name)
                if name != source:
                    node.set_next_hop(name, first_hop[name])
                for peer, weight in adjacency[name].items():
                    peer_dist = dist + weight
                    if peer not in settled and (peer not in best
                                                or peer_dist < best[peer]):
                        best[peer] = peer_dist
                        heapq.heappush(fringe,
                                       (peer_dist, next(counter), peer))
                        first_hop[peer] = (peer if name == source
                                           else first_hop[name])

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def audit(self) -> dict[str, int]:
        """Network-wide packet accounting totals.

        Returns the sums of every conservation-relevant counter:
        ``udp_sent``, ``udp_received``, ``queue_drops``, ``fault_drops``,
        ``no_route_drops``, ``ttl_drops``, and ``queued`` (packets still
        sitting in buffers).  On a quiesced network that carried only UDP
        (no ICMP errors generated), conservation holds:
        ``udp_sent = udp_received + all drops + queued``.
        """
        from repro.net.host import Host  # local import: avoid cycle at load

        totals = {"udp_sent": 0, "udp_received": 0, "queue_drops": 0,
                  "fault_drops": 0, "no_route_drops": 0, "ttl_drops": 0,
                  "queued": 0}
        for node in self.nodes.values():
            totals["no_route_drops"] += node.no_route_drops
            totals["ttl_drops"] += node.ttl_drops
            if isinstance(node, Host):
                totals["udp_sent"] += node.udp_sent
                totals["udp_received"] += node.udp_received
            for interface in node.interfaces.values():
                totals["queue_drops"] += interface.queue.drops
                totals["fault_drops"] += interface.fault_drops
                totals["queued"] += len(interface.queue)
        return totals

    def path(self, src: str, dst: str) -> list[str]:
        """Follow next-hop tables from ``src`` to ``dst``; detects loops."""
        self.node(src)
        self.node(dst)
        path = [src]
        current = src
        while current != dst:
            if len(path) > MAX_PATH_HOPS:
                raise RoutingError(
                    f"routing loop or path longer than {MAX_PATH_HOPS} hops "
                    f"from {src!r} to {dst!r}: {path}")
            next_hop = self.nodes[current].routing.get(dst)
            if next_hop is None:
                raise RoutingError(f"{current!r} has no route to {dst!r}")
            path.append(next_hop)
            current = next_hop
        return path

    def __repr__(self) -> str:
        return (f"<Network {len(self.nodes)} nodes, "
                f"{len(self._edges) // 2} links>")

"""Unit tests for the Network container and static routing."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError, ConfigurationError, RoutingError
from repro.net.routing import Network
from repro.sim.kernel import Simulator
from repro.topology.inria_umd import build_inria_umd
from repro.topology.nsfnet import build_nsfnet
from repro.topology.umd_pitt import build_umd_pitt
from repro.units import mbps, ms

from tests.topology.single_bottleneck import build_single_bottleneck


def diamond(sim):
    """a - (b | c) - d with a shorter delay through b."""
    network = Network(sim)
    for name in ("a", "d"):
        network.add_host(name)
    for name in ("b", "c"):
        network.add_router(name)
    network.link("a", "b", rate_bps=mbps(10), prop_delay=ms(1))
    network.link("b", "d", rate_bps=mbps(10), prop_delay=ms(1))
    network.link("a", "c", rate_bps=mbps(10), prop_delay=ms(10))
    network.link("c", "d", rate_bps=mbps(10), prop_delay=ms(10))
    network.compute_routes()
    return network


class TestBuilding:
    def test_duplicate_name_rejected(self, sim):
        network = Network(sim)
        network.add_host("x")
        with pytest.raises(ConfigurationError):
            network.add_router("x")

    def test_unknown_node_lookup(self, sim):
        with pytest.raises(AddressError):
            Network(sim).node("ghost")

    def test_host_lookup_rejects_router(self, sim):
        network = Network(sim)
        network.add_router("r")
        with pytest.raises(AddressError):
            network.host("r")

    def test_asymmetric_link_parameters(self, sim):
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")
        ab, ba = network.link("a", "b", rate_bps=1000.0, prop_delay=0.1,
                              rate_bps_ba=2000.0, prop_delay_ba=0.2)
        assert ab.rate_bps == 1000.0
        assert ba.rate_bps == 2000.0
        assert ba.prop_delay == 0.2

    def test_interface_lookup(self, sim):
        network = diamond(sim)
        iface = network.interface("a", "b")
        assert iface.node.name == "a"
        assert iface.peer.name == "b"


class TestRouting:
    def test_shortest_delay_path_chosen(self, sim):
        network = diamond(sim)
        assert network.path("a", "d") == ["a", "b", "d"]

    def test_routes_are_symmetric_here(self, sim):
        network = diamond(sim)
        assert network.path("d", "a") == ["d", "b", "a"]

    def test_path_unknown_node(self, sim):
        network = diamond(sim)
        with pytest.raises(AddressError):
            network.path("a", "ghost")

    def test_path_no_route(self, sim):
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")  # never linked
        network.compute_routes()
        with pytest.raises(RoutingError):
            network.path("a", "b")

    def test_route_recomputation_after_new_link(self, sim):
        network = diamond(sim)
        network.add_host("e")
        network.link("e", "d", rate_bps=mbps(10), prop_delay=ms(1))
        network.compute_routes()
        assert network.path("a", "e") == ["a", "b", "d", "e"]

    def test_loop_detection(self, sim):
        network = diamond(sim)
        # Create an artificial loop b -> a -> b for destination d.
        network.node("b").set_next_hop("d", "a")
        network.node("a").set_next_hop("d", "b")
        with pytest.raises(RoutingError):
            network.path("a", "d")

    def test_repr(self, sim):
        network = diamond(sim)
        assert "4 nodes" in repr(network)
        assert "4 links" in repr(network)


def networkx_next_hops(network):
    """The next-hop tables networkx's weighted shortest paths give.

    The oracle graph is built as routing weighs it: every interface, in
    each node's link-creation order, weighted by propagation delay + 1 µs.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(network.nodes)
    for name, node in network.nodes.items():
        for peer, iface in node.interfaces.items():
            graph.add_edge(name, peer, weight=iface.prop_delay + 1e-6)
    return {source: {destination: path[1]
                     for destination, path in nx.shortest_path(
                         graph, source=source, weight="weight").items()
                     if destination != source}
            for source in network.nodes}


def next_hops(network):
    return {name: dict(node.routing) for name, node in network.nodes.items()}


#: Propagation delays with repeats and zeros, so equal-cost paths occur.
DELAYS = [0.0, 0.0, ms(1), ms(1), ms(2), ms(3)]


@st.composite
def topologies(draw):
    """2-12 routers joined by random, possibly asymmetric or parallel links."""
    count = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    links = draw(st.lists(
        st.tuples(pairs.filter(lambda pair: pair[0] != pair[1]),
                  st.sampled_from(DELAYS), st.sampled_from(DELAYS)),
        max_size=3 * count))
    return count, links


class TestMatchesNetworkx:
    """Every next hop equals ``nx.shortest_path(..., weight=...)[1]``."""

    @pytest.mark.parametrize("build", [build_inria_umd, build_umd_pitt,
                                       build_single_bottleneck, build_nsfnet])
    def test_scenarios(self, build):
        network = build(seed=1).network
        assert next_hops(network) == networkx_next_hops(network)

    @given(topologies())
    def test_generated_graphs(self, topology):
        count, links = topology
        network = Network(Simulator())
        for index in range(count):
            network.add_router(f"r{index}")
        for (a, b), delay_ab, delay_ba in links:
            network.link(f"r{a}", f"r{b}", rate_bps=mbps(10),
                         prop_delay=delay_ab, prop_delay_ba=delay_ba)
        network.compute_routes()
        assert next_hops(network) == networkx_next_hops(network)

"""Network-wide packet conservation: nothing is silently created or lost."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import RandomDropFault
from repro.net.routing import Network
from repro.sim.kernel import Simulator
from repro.traffic.base import TrafficSink
from repro.traffic.poisson import PoissonSource
from repro.traffic.sizes import FixedSize
from repro.units import kbps, mbps, ms


def conservation_holds(totals: dict) -> bool:
    accounted = (totals["udp_received"] + totals["queue_drops"]
                 + totals["fault_drops"] + totals["no_route_drops"]
                 + totals["ttl_drops"] + totals["queued"])
    return totals["udp_sent"] == accounted


class TestConservation:
    def test_lossless_network(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")
        network.link("a", "b", rate_bps=mbps(10), prop_delay=ms(1))
        network.compute_routes()
        TrafficSink(network.host("b"))
        source = PoissonSource(network.host("a"), "b", rate_pps=100.0)
        source.start()
        sim.run(until=20.0)
        source.stop()
        sim.run()  # quiesce: drain in-flight packets
        totals = network.audit()
        assert totals["udp_sent"] == source.packets_sent
        assert conservation_holds(totals)
        assert totals["queue_drops"] == 0

    def test_congested_network_accounts_drops(self):
        sim = Simulator(seed=2)
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")
        network.link("a", "b", rate_bps=kbps(64), prop_delay=ms(1),
                     queue_capacity=4)
        network.compute_routes()
        TrafficSink(network.host("b"))
        source = PoissonSource(network.host("a"), "b", rate_pps=50.0,
                               sizes=FixedSize(500))
        source.start()
        sim.run(until=20.0)
        source.stop()
        sim.run()
        totals = network.audit()
        assert totals["queue_drops"] > 0
        assert conservation_holds(totals)

    def test_faulty_network_accounts_fault_drops(self):
        sim = Simulator(seed=3)
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")
        iface, _ = network.link("a", "b", rate_bps=mbps(10),
                                prop_delay=ms(1))
        iface.add_egress_fault(RandomDropFault(0.3, sim.streams.get("f")))
        network.compute_routes()
        TrafficSink(network.host("b"))
        source = PoissonSource(network.host("a"), "b", rate_pps=200.0)
        source.start()
        sim.run(until=10.0)
        source.stop()
        sim.run()
        totals = network.audit()
        assert totals["fault_drops"] > 0
        assert conservation_holds(totals)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), rate_pps=st.floats(5.0, 300.0),
       capacity=st.integers(1, 64), drop=st.floats(0.0, 0.5))
def test_conservation_property(seed, rate_pps, capacity, drop):
    """Conservation holds for arbitrary load, buffer, and fault levels."""
    sim = Simulator(seed=seed)
    network = Network(sim)
    network.add_host("a")
    network.add_host("b")
    iface, _ = network.link("a", "b", rate_bps=kbps(128), prop_delay=ms(5),
                            queue_capacity=capacity)
    if drop > 0:
        iface.add_egress_fault(RandomDropFault(drop, sim.streams.get("f")))
    network.compute_routes()
    TrafficSink(network.host("b"))
    source = PoissonSource(network.host("a"), "b", rate_pps=rate_pps,
                           sizes=FixedSize(200))
    source.start()
    sim.run(until=5.0)
    source.stop()
    sim.run()
    assert conservation_holds(network.audit())

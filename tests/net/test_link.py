"""Unit tests for interfaces/links: serialization, queueing, faults."""

import copy

import pytest

from repro.errors import ConfigurationError
from repro.net.faults import PeriodicStallFault, RandomDropFault
from repro.net.hooks import LifecycleObserver
from repro.net.link import Interface
from repro.net.node import Node
from repro.net.packet import Packet, next_packet_uid, reset_packet_uids
from repro.net.queue import DropTailQueue
from repro.net.routing import Network
from repro.sim.kernel import Simulator
from tests.net.link_reference import TwoEventInterface


def make_link(sim, rate_bps=8000.0, prop_delay=0.0, capacity=16):
    """A two-node network with one link; returns (net, a, b, iface_ab)."""
    network = Network(sim)
    network.add_host("a")
    network.add_host("b")
    iface_ab, _ = network.link("a", "b", rate_bps=rate_bps,
                               prop_delay=prop_delay,
                               queue_capacity=capacity)
    network.compute_routes()
    return network, network.host("a"), network.host("b"), iface_ab


def packet(size=100):
    return Packet(src="a", dst="b", size_bytes=size)


class TestSerialization:
    def test_transmission_delay(self, sim):
        # 100 B = 800 bits at 8000 b/s -> 0.1 s.
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=100 - 40)
        sim.run()
        assert arrivals == [pytest.approx(0.1)]

    def test_propagation_adds_latency(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0, prop_delay=0.25)
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert arrivals == [pytest.approx(0.1 + 0.25)]

    def test_back_to_back_packets_serialize(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=60)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert arrivals == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_transmitted_bits_counter(self, sim):
        _, a, b, iface = make_link(sim)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert iface.transmitted == 1
        assert iface.transmitted_bits == 800

    def test_utilization_estimate(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run(until=0.2)
        assert iface.utilization_estimate() == pytest.approx(0.5)
        assert iface.busy_time == pytest.approx(0.1)

    def test_utilization_counts_in_progress_transmission(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run(until=0.05)  # mid-serialization of the 0.1 s packet
        assert iface.busy_time == pytest.approx(0.05)
        assert iface.utilization_estimate() == pytest.approx(1.0)


class TestQueueing:
    def test_overflow_drops_excess(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=800.0, capacity=2)
        received = []
        b.bind_udp(9, received.append)
        # First starts transmitting (1 s each); next two queue; rest drop.
        for _ in range(6):
            a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert len(received) == 3
        assert iface.queue.drops == 3

    def test_queue_drains_in_order(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0, capacity=10)
        received = []
        b.bind_udp(9, lambda p: received.append(p.payload))
        for tag in ("x", "y", "z"):
            a.send_udp("b", 9, 9, payload=tag, payload_bytes=60)
        sim.run()
        assert received == ["x", "y", "z"]


class TestFaults:
    def test_egress_random_drop(self, sim):
        _, a, b, iface = make_link(sim)
        iface.add_egress_fault(RandomDropFault(1.0, sim.streams.get("f")))
        received = []
        b.bind_udp(9, received.append)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert received == []
        assert iface.fault_drops == 1

    def test_stall_delays_transmission(self, sim):
        _, a, b, iface = make_link(sim, rate_bps=8000.0)
        iface.add_egress_fault(PeriodicStallFault(period=100.0, stall=2.0))
        arrivals = []
        b.bind_udp(9, lambda p: arrivals.append(sim.now))
        a.send_udp("b", 9, 9, payload_bytes=60)  # sent at t=0, in stall
        sim.run()
        assert arrivals == [pytest.approx(2.0 + 0.1)]

    def test_zero_probability_fault_is_noop(self, sim):
        _, a, b, iface = make_link(sim)
        iface.add_egress_fault(RandomDropFault(0.0, sim.streams.get("f")))
        received = []
        b.bind_udp(9, received.append)
        a.send_udp("b", 9, 9, payload_bytes=60)
        sim.run()
        assert len(received) == 1


class TestValidation:
    def test_bad_rate_rejected(self, sim):
        node = Node(sim, "n")
        queue = DropTailQueue(sim, capacity=1)
        with pytest.raises(ConfigurationError):
            Interface(sim, node, rate_bps=0.0, prop_delay=0.0, queue=queue)

    def test_negative_delay_rejected(self, sim):
        node = Node(sim, "n")
        queue = DropTailQueue(sim, capacity=1)
        with pytest.raises(ConfigurationError):
            Interface(sim, node, rate_bps=1.0, prop_delay=-1.0, queue=queue)

    @pytest.mark.parametrize("rate_bps, prop_delay", [
        (float("nan"), 0.001), (float("inf"), 0.001), (-1.0, 0.001),
        (1e6, float("nan")), (1e6, float("inf")), (1e6, -0.001)])
    def test_non_finite_parameters_rejected(self, sim, rate_bps,
                                            prop_delay):
        node = Node(sim, "n")
        queue = DropTailQueue(sim, capacity=1)
        with pytest.raises(ConfigurationError, match="link n->x"):
            Interface(sim, node, rate_bps=rate_bps, prop_delay=prop_delay,
                      queue=queue, name="n->x")

    @pytest.mark.parametrize("rate_bps, prop_delay", [
        (float("nan"), 0.001), (1e6, float("nan")), (1e6, float("inf"))])
    def test_network_link_rejects_non_finite(self, sim, rate_bps,
                                             prop_delay):
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")
        with pytest.raises(ConfigurationError, match="link a->b"):
            network.link("a", "b", rate_bps=rate_bps, prop_delay=prop_delay)
        # Nothing of the rejected link is wired in.
        assert network.host("a").interfaces == {}

    def test_network_link_rejects_non_finite_reverse(self, sim):
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")
        with pytest.raises(ConfigurationError, match="link b->a"):
            network.link("a", "b", rate_bps=1e6, prop_delay=0.001,
                         prop_delay_ba=float("nan"))
        assert network.host("a").interfaces == {}

    def test_send_without_peer_rejected(self, sim):
        node = Node(sim, "n")
        queue = DropTailQueue(sim, capacity=1)
        iface = Interface(sim, node, rate_bps=1.0, prop_delay=0.0,
                          queue=queue)
        with pytest.raises(ConfigurationError):
            iface.send(packet())


# ----------------------------------------------------------------------
# The event rule: a transmission schedules its delivery when it starts;
# its finish instant gets a tx-done event only when a packet waits there
# or an observer listens.  tests/net/link_reference.py keeps the
# two-event interface (a tx-done at every finish) to compare against.
# ----------------------------------------------------------------------
class _Sink:
    """One end of a bare link: a name, and a log of what arrives."""

    def __init__(self, sim, name):
        self._sim = sim
        self.name = name
        self.deliveries = []

    def handle_packet(self, packet, ingress):
        self.deliveries.append((self._sim.now, packet.uid))


class _Labels:
    """Kernel observer: the label of every executed event."""

    def __init__(self):
        self.labels = []

    def on_event(self, time, label, priority, wall_s):
        self.labels.append(label.partition(" ")[0])


class _Milestones(LifecycleObserver):
    """Records each transmission's start, finish and delivery instant."""

    def __init__(self, sim):
        self._sim = sim
        self.milestones = []

    def on_tx_start(self, interface, packet):
        self.milestones.append(("start", self._sim.now, packet.uid))

    def on_tx_done(self, interface, packet):
        self.milestones.append(("done", self._sim.now, packet.uid))

    def on_delivered(self, interface, packet):
        self.milestones.append(("delivered", self._sim.now, packet.uid))


def bare_link(interface=Interface, hooked=False, capacity=4, seed=1):
    """One 8000 b/s link with 0.25 s of propagation: 1000 B take 1 s."""
    sim = Simulator(seed=seed)
    queue = DropTailQueue(sim, capacity=capacity)
    sink = _Sink(sim, "b")
    iface = interface(sim, _Sink(sim, "a"), 8000.0, 0.25, queue)
    iface.attach_peer(sink)
    observer = None
    if hooked:
        observer = _Milestones(sim)
        iface.lifecycle = observer
    return sim, iface, sink, observer


def send_1000(iface):
    return iface.send(Packet(src="a", dst="b", size_bytes=1000))


def link_state(sim, iface, sink, observer):
    queue = iface.queue
    return (sim.now, iface.transmitted, iface.transmitted_bits, iface.busy,
            iface.busy_time, iface.utilization_estimate(),
            queue.arrivals, queue.drops, queue.departures,
            queue.max_packets(), queue._packet_seconds, queue._byte_seconds,
            queue._last_change, list(sink.deliveries),
            None if observer is None else list(observer.milestones))


class TestEventRule:
    def test_idle_hop_executes_one_event(self):
        sim, iface, sink, _ = bare_link()
        labels = _Labels()
        sim.attach_observer(labels)
        send_1000(iface)
        sim.run()
        assert labels.labels == ["deliver"]
        assert sim.events_executed == 1
        assert sink.deliveries == [(1.25, 1)]

    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_busy_link_one_tx_done_per_dequeue(self, count):
        sim, iface, sink, _ = bare_link(capacity=8)
        labels = _Labels()
        sim.attach_observer(labels)
        for _ in range(count):
            send_1000(iface)
        sim.run()
        # The first packet crosses the idle link; each of the others is
        # dequeued by the tx-done event at its predecessor's finish.
        assert labels.labels.count("tx-done") == count - 1
        assert labels.labels.count("deliver") == count
        assert [at for at, _ in sink.deliveries] == \
            [k + 1.25 for k in range(count)]

    def test_observer_hears_every_finish_instant(self):
        sim, iface, _, observer = bare_link(hooked=True)
        labels = _Labels()
        sim.attach_observer(labels)
        send_1000(iface)
        sim.call_at(3.0, lambda: send_1000(iface))
        sim.run()
        assert labels.labels.count("tx-done") == 2
        assert observer.milestones == [
            ("start", 0.0, 1), ("done", 1.0, 1), ("delivered", 1.25, 1),
            ("start", 3.0, 2), ("done", 4.0, 2), ("delivered", 4.25, 2)]

    def test_observer_attached_mid_service_hears_from_next_start(self):
        # The packet in service has no event at its finish, so an observer
        # attached now hears its delivery (read when it fires) but not its
        # tx_done; the next transmission it hears whole.
        sim, iface, _, _ = bare_link()
        send_1000(iface)
        sim.run(until=0.5)
        observer = _Milestones(sim)
        iface.lifecycle = observer
        sim.call_at(2.0, lambda: send_1000(iface))
        sim.run()
        assert observer.milestones == [
            ("delivered", 1.25, 1),
            ("start", 2.0, 2), ("done", 3.0, 2), ("delivered", 3.25, 2)]

    @pytest.mark.parametrize("hooked", [False, True])
    @pytest.mark.parametrize("scheduled", ["before-start", "mid-service"])
    @pytest.mark.parametrize("waiting", [False, True])
    def test_arrival_at_finish_instant_matches_reference(
            self, hooked, scheduled, waiting):
        # A packet arrives at exactly t=1.0, the finish of the one in
        # service, scheduled either before that transmission started or
        # after the waiting packet (if any) was queued.
        def run(interface):
            sim, iface, sink, observer = bare_link(interface, hooked)
            if scheduled == "before-start":
                sim.call_at(1.0, lambda: send_1000(iface))
            sim.call_at(0.0, lambda: send_1000(iface))
            if waiting:
                sim.call_at(0.25, lambda: send_1000(iface))
            if scheduled == "mid-service":
                sim.call_at(0.5, lambda: sim.call_at(
                    1.0, lambda: send_1000(iface)))
            reads = []
            for until in (0.5, 1.0, 1.5, 2.0):
                sim.run(until=until)
                reads.append(link_state(sim, iface, sink, observer))
            sim.run()
            reads.append(link_state(sim, iface, sink, observer))
            return reads

        assert run(Interface) == run(TwoEventInterface)

    def test_tie_scheduled_between_start_and_first_wait(self):
        # The documented exception: an arrival at the finish instant whose
        # event was scheduled after the transmission started but before a
        # packet queued behind it.  The tx-done event now takes its
        # sequence number at that first enqueue, so the arrival runs first
        # and finds two packets queued where the two-event model, which
        # took it at the start, had dequeued one first.
        def run(interface):
            sim, iface, sink, observer = bare_link(interface)
            sim.call_at(0.0, lambda: send_1000(iface))
            sim.call_at(0.1, lambda: sim.call_at(
                1.0, lambda: send_1000(iface)))
            sim.call_at(0.25, lambda: send_1000(iface))
            sim.run()
            return iface.queue.max_packets(), sink.deliveries

        assert run(Interface) == (2.0, [(1.25, 1), (2.25, 2), (3.25, 3)])
        assert run(TwoEventInterface) == (1.0,
                                          [(1.25, 1), (2.25, 2), (3.25, 3)])

    @pytest.mark.parametrize("until", [0.0, 0.5, 1.0, 1.25, 1.75, 2.0, 9.0])
    def test_counters_at_run_boundaries(self, until):
        def run(interface):
            sim, iface, sink, observer = bare_link(interface)
            iface.add_egress_fault(PeriodicStallFault(10.0, 0.5))
            send_1000(iface)
            sim.call_at(1.0, lambda: send_1000(iface))
            sim.call_at(1.25, lambda: send_1000(iface))
            sim.run(until=until)
            return link_state(sim, iface, sink, observer)

        assert run(Interface) == run(TwoEventInterface)

    @pytest.mark.parametrize("copy_at", [0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("queued", [1, 2])
    def test_copy_mid_transmission_runs_like_fresh_build(self, copy_at,
                                                         queued):
        # One packet sent at t=0 is in service at 0.5 with no event at
        # its finish; with two, the second waits behind it on a tx-done.
        def build():
            sim, iface, sink, _ = bare_link(capacity=8, seed=7)
            for _ in range(queued):
                send_1000(iface)
            sim.run(until=copy_at)
            return sim, iface, sink

        def finish(sim, iface, sink):
            reset_packet_uids(uid)
            send_1000(iface)
            sim.run(until=sim.now + 0.25)
            send_1000(iface)
            sim.run()
            return link_state(sim, iface, sink, None), sim.events_executed

        fresh = build()
        template = build()
        uid = next_packet_uid()
        restored = copy.deepcopy(template)
        expected = finish(*fresh)
        assert finish(*restored) == expected
        # The copy's run leaves the template as it was.
        assert finish(*template) == expected

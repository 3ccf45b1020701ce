"""Differential test of the interface's idle-transmitter fast path.

A packet that finds its transmitter idle crosses the (empty) queue in one
``DropTailQueue.pass_through`` call instead of an enqueue and a dequeue.
Driving one ``Interface`` with the same arrivals with and without a
lifecycle observer must give the same queue statistics and the same
delivery times, float for float, and both must match the reference
time-weighted monitor of ``tests/sim/occupancy_reference.py``, fed from
the milestones the interface reports.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.faults import PeriodicStallFault
from repro.net.hooks import LifecycleObserver
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.net.queue import MODE_BYTES, MODE_PACKETS, DropTailQueue
from repro.sim.kernel import Simulator
from tests.sim.occupancy_reference import TimeWeightedValue

#: 1000 B take 1 s at this rate, so arrivals spaced up to 2 s apart find
#: the transmitter idle about as often as busy.
RATE_BPS = 8000.0


class _Endpoint:
    """The two ends of the link: a transmitter name and a recording sink."""

    def __init__(self, sim, name):
        self._sim = sim
        self.name = name
        self.deliveries = []

    def handle_packet(self, packet, ingress):
        self.deliveries.append((self._sim.now, packet.uid))


class _OccupancyMirror(LifecycleObserver):
    """Feeds the reference monitors after every occupancy change.

    Every change is an admission (``on_enqueued``) or the dequeue right
    before a transmission starts (``on_tx_start``).  A packet admitted
    onto an idle link never enters the deque, but it holds the queue
    alone for an instant: the mirror counts it as one packet (and its
    bytes) until its transmission starts at the same time.  It only reads
    queue state, so it leaves the simulation unchanged.
    """

    def __init__(self, sim, queue):
        self._queue = queue
        self.packets = TimeWeightedValue(sim, 0.0)
        self.bytes = TimeWeightedValue(sim, 0.0)

    def _update(self, packet=None):
        held = len(self._queue)
        held_bytes = self._queue._bytes
        if packet is not None and not held:
            held, held_bytes = 1, packet.size_bytes
        self.packets.update(float(held))
        self.bytes.update(float(held_bytes))

    def on_enqueued(self, queue, packet):
        self._update(packet)

    def on_tx_start(self, interface, packet):
        self._update()


def drive(mode, capacity, arrivals, stall, tail, hooked):
    """Run one interface over ``arrivals``; return its observable results."""
    sim = Simulator(seed=3)
    queue = DropTailQueue(sim, capacity=capacity, mode=mode)
    source, sink = _Endpoint(sim, "a"), _Endpoint(sim, "b")
    iface = Interface(sim, source, RATE_BPS, 0.01, queue)
    iface.attach_peer(sink)
    if stall is not None:
        iface.add_egress_fault(PeriodicStallFault(*stall))
    mirror = None
    if hooked:
        mirror = _OccupancyMirror(sim, queue)
        iface.lifecycle = mirror
    at = 0.0
    for dt, size in arrivals:
        at += dt
        sim.call_at(at, lambda size=size: iface.send(
            Packet(src="a", dst="b", size_bytes=size)))
    sim.run()
    sim.run(until=sim.now + tail)
    stats = (queue.arrivals, queue.drops, queue.departures,
             queue.mean_packets(), queue.mean_bytes(), queue.max_packets())
    # The integrals and the time of the last change, which the two paths
    # must also leave identical.
    state = (queue._packet_seconds, queue._byte_seconds, queue._last_change)
    return stats, state, sink.deliveries, mirror


#: One arrival: wait ``dt`` seconds (0.0 ties it to the previous one),
#: then send a packet of that many bytes.
_ARRIVALS = st.lists(
    st.tuples(st.one_of(st.just(0.0),
                        st.floats(0.0, 2.0, allow_subnormal=False)),
              st.integers(40, 1500)),
    max_size=40)

#: ``PeriodicStallFault(period, stall, phase)`` arguments, or no fault.
_STALLS = st.one_of(
    st.none(),
    st.tuples(st.floats(1.0, 5.0), st.floats(0.0, 0.9),
              st.floats(0.0, 5.0)).map(
        lambda p: (p[0], p[0] * p[1], p[2])))


@given(mode=st.sampled_from([MODE_PACKETS, MODE_BYTES]),
       capacity=st.integers(1, 6), arrivals=_ARRIVALS, stall=_STALLS,
       tail=st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
def test_fast_and_hooked_paths_agree(mode, capacity, arrivals, stall, tail):
    if mode == MODE_BYTES:
        # 300 B to 1800 B: packets larger than the whole buffer included.
        capacity *= 300
    fast, fast_state, fast_deliveries, _ = drive(
        mode, capacity, arrivals, stall, tail, hooked=False)
    hooked, hooked_state, hooked_deliveries, mirror = drive(
        mode, capacity, arrivals, stall, tail, hooked=True)
    assert fast == hooked
    assert fast_state == hooked_state
    assert fast_deliveries == hooked_deliveries
    arrived, dropped, departed, mean_packets, mean_bytes, peak = fast
    assert arrived == len(arrivals)
    assert departed == len(fast_deliveries) == arrived - dropped
    assert mean_packets == mirror.packets.mean()
    assert mean_bytes == mirror.bytes.mean()
    assert peak == mirror.packets.maximum()


def test_packet_larger_than_byte_buffer_dropped_on_idle_link():
    fast, _, deliveries, _ = drive(
        MODE_BYTES, 500, [(0.0, 600), (2.0, 400)], None, 0.0, hooked=False)
    arrived, dropped, departed, _, _, peak = fast
    assert (arrived, dropped, departed, peak) == (2, 1, 1, 1.0)
    assert [uid for _, uid in deliveries] == [2]


def test_queue_takes_no_observer():
    # Queue milestones come from the owning interface; a queue-level
    # observer would silently record nothing, so assigning one fails.
    queue = DropTailQueue(Simulator(seed=3), capacity=1)
    with pytest.raises(AttributeError):
        queue.lifecycle = _OccupancyMirror(queue._sim, queue)

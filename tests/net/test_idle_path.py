"""Differential tests of the interface's idle-transmitter fast path.

A packet that finds its transmitter idle crosses the (empty) queue in one
``DropTailQueue.pass_through`` call instead of an enqueue and a dequeue,
and its transmission schedules one event, its delivery: the finish
instant gets a ``tx-done`` event only when a packet waits or an observer
listens.  Driving one ``Interface`` with the same arrivals with and
without a lifecycle observer must give the same queue statistics and the
same delivery times, float for float, and both must match the reference
time-weighted monitor of ``tests/sim/occupancy_reference.py``, fed from
the milestones the interface reports.  Both must also match the
two-event reference interface of ``tests/net/link_reference.py``, which
executes a ``tx-done`` event at every finish instant, in every counter
read at any ``run(until=)`` boundary.
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
from tests.net.link_reference import TwoEventInterface
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


class _CountingQueue(DropTailQueue):
    """A drop-tail queue that counts its dequeues."""

    __slots__ = ("dequeues",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dequeues = 0

    def dequeue(self):
        self.dequeues += 1
        return super().dequeue()


def counters(iface):
    """Every counter the interface derives from its busy periods."""
    return (iface.transmitted, iface.transmitted_bits, iface.busy,
            iface.busy_time, iface.utilization_estimate())


def drive(mode, capacity, arrivals, stall, tail, hooked,
          interface=Interface, checkpoints=()):
    """Run one interface over ``arrivals``; return its observable results.

    The run stops at each of ``checkpoints`` (sorted, absolute times) and
    reads the interface's counters there; ``reads`` lists them, then the
    counters at the end of the run and the number of executed events.
    """
    sim = Simulator(seed=3)
    queue = _CountingQueue(sim, capacity=capacity, mode=mode)
    source, sink = _Endpoint(sim, "a"), _Endpoint(sim, "b")
    iface = interface(sim, source, RATE_BPS, 0.01, queue)
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
    reads = []
    for checkpoint in checkpoints:
        sim.run(until=checkpoint)
        reads.append((sim.now, counters(iface)))
    sim.run()
    sim.run(until=sim.now + tail)
    reads.append((sim.now, counters(iface), sim.events_executed,
                  queue.dequeues))
    stats = (queue.arrivals, queue.drops, queue.departures,
             queue.mean_packets(), queue.mean_bytes(), queue.max_packets())
    # The integrals and the time of the last change, which the two paths
    # must also leave identical.
    state = (queue._packet_seconds, queue._byte_seconds, queue._last_change)
    return stats, state, sink.deliveries, mirror, reads


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
    fast, fast_state, fast_deliveries, _, _ = drive(
        mode, capacity, arrivals, stall, tail, hooked=False)
    hooked, hooked_state, hooked_deliveries, mirror, _ = drive(
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
    fast, _, deliveries, _, _ = drive(
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


#: Arrivals on a 1/8 s grid with sizes in multiples of 125 B (1/8 s of
#: transmission each): every time is an exact dyadic double, so arrivals
#: land exactly on finish instants, stall edges and checkpoints often.
_GRID_ARRIVALS = st.lists(
    st.tuples(st.integers(0, 16).map(lambda k: k / 8),
              st.integers(1, 12).map(lambda k: 125 * k)),
    max_size=30)

_GRID_STALLS = st.one_of(
    st.none(),
    st.tuples(st.integers(8, 40), st.integers(0, 7), st.integers(0, 40)).map(
        lambda p: (p[0] / 8, p[0] * p[1] / 64, p[2] / 8)))


def _checkpoints(arrivals, picks):
    """Absolute run boundaries: picked arrival instants and grid times."""
    times, at = [], 0.0
    for dt, _ in arrivals:
        at += dt
        times.append(at)
    chosen = [times[pick % len(times)] if times and exact else pick / 16
              for pick, exact in picks]
    return sorted(chosen)


@given(mode=st.sampled_from([MODE_PACKETS, MODE_BYTES]),
       capacity=st.integers(1, 6),
       arrivals=st.one_of(_ARRIVALS, _GRID_ARRIVALS),
       stall=st.one_of(_STALLS, _GRID_STALLS),
       picks=st.lists(st.tuples(st.integers(0, 400), st.booleans()),
                      max_size=8),
       tail=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
       hooked=st.booleans())
def test_matches_two_event_reference(mode, capacity, arrivals, stall,
                                     picks, tail, hooked):
    # Every arrival is scheduled before the run, so at a tie it runs
    # before any finish or delivery event in both models, and the two
    # must agree on everything but the number of events executed.
    if mode == MODE_BYTES:
        capacity *= 300
    checkpoints = _checkpoints(arrivals, picks)
    new = drive(mode, capacity, arrivals, stall, tail, hooked,
                checkpoints=checkpoints)
    old = drive(mode, capacity, arrivals, stall, tail, hooked,
                interface=TwoEventInterface, checkpoints=checkpoints)
    new_stats, new_state, new_deliveries, _, new_reads = new
    old_stats, old_state, old_deliveries, _, old_reads = old
    assert new_stats == old_stats
    assert new_state == old_state
    assert new_deliveries == old_deliveries
    assert new_reads[:-1] == old_reads[:-1]
    new_end, new_counters, new_events, new_dequeues = new_reads[-1]
    old_end, old_counters, old_events, _ = old_reads[-1]
    assert (new_end, new_counters) == (old_end, old_counters)
    # Each arrival is an event of its own.
    arrived, _, departures = new_stats[:3]
    assert old_events == arrived + 2 * departures
    if hooked:
        # An observer hears on_tx_done at every finish instant, so a
        # traced run executes every event the two-event model does.
        assert new_events == old_events
    else:
        # One delivery per transmission, one tx-done per dequeue.
        assert new_events == arrived + departures + new_dequeues

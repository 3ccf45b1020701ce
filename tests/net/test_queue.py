"""Unit and property tests for the drop-tail queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, MODE_BYTES, MODE_PACKETS
from repro.sim.kernel import Simulator
from tests.sim.occupancy_reference import TimeWeightedValue


def make_packet(size=100):
    return Packet(src="a", dst="b", size_bytes=size)


class TestPacketMode:
    def test_fifo_order(self, sim):
        queue = DropTailQueue(sim, capacity=4)
        first, second = make_packet(), make_packet()
        queue.enqueue(first)
        queue.enqueue(second)
        assert queue.dequeue() is first
        assert queue.dequeue() is second

    def test_drop_when_full(self, sim):
        queue = DropTailQueue(sim, capacity=2)
        assert queue.enqueue(make_packet())
        assert queue.enqueue(make_packet())
        assert not queue.enqueue(make_packet())
        assert queue.drops == 1
        assert queue.arrivals == 3

    def test_dequeue_frees_space(self, sim):
        queue = DropTailQueue(sim, capacity=1)
        queue.enqueue(make_packet())
        queue.dequeue()
        assert queue.enqueue(make_packet())

    def test_dequeue_empty_returns_none(self, sim):
        assert DropTailQueue(sim, capacity=1).dequeue() is None

    def test_loss_fraction(self, sim):
        queue = DropTailQueue(sim, capacity=1)
        queue.enqueue(make_packet())
        queue.enqueue(make_packet())
        assert queue.loss_fraction == pytest.approx(0.5)

    def test_loss_fraction_no_arrivals(self, sim):
        assert DropTailQueue(sim, capacity=1).loss_fraction == 0.0


class TestByteMode:
    def test_capacity_counted_in_bytes(self, sim):
        queue = DropTailQueue(sim, capacity=250, mode=MODE_BYTES)
        assert queue.enqueue(make_packet(100))
        assert queue.enqueue(make_packet(100))
        assert not queue.enqueue(make_packet(100))
        assert queue.enqueue(make_packet(50))

    def test_small_packet_fits_where_large_does_not(self, sim):
        # The byte-mode asymmetry that protects small probes (DESIGN.md).
        queue = DropTailQueue(sim, capacity=600, mode=MODE_BYTES)
        queue.enqueue(make_packet(552))
        assert not queue.enqueue(make_packet(552))
        assert queue.enqueue(make_packet(40))

    def test_bytes_queued_tracks_content(self, sim):
        queue = DropTailQueue(sim, capacity=1000, mode=MODE_BYTES)
        queue.enqueue(make_packet(300))
        assert queue._bytes == 300
        queue.dequeue()
        assert queue._bytes == 0


class TestValidation:
    def test_zero_capacity_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            DropTailQueue(sim, capacity=0)

    def test_unknown_mode_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            DropTailQueue(sim, capacity=1, mode="liters")


class TestOccupancyStats:
    def test_time_weighted_occupancy(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity=10)
        sim.call_at(0.0, lambda: queue.enqueue(make_packet()))
        sim.call_at(10.0, lambda: queue.dequeue())
        sim.run(until=20.0)
        # 10 s at occupancy 1, 10 s at 0 -> mean 0.5.
        assert queue.mean_packets() == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(1, 20),
       operations=st.lists(st.one_of(st.just("deq"), st.integers(1, 1000)),
                           max_size=80))
def test_occupancy_never_exceeds_capacity(capacity, operations):
    """Invariant: whatever the op sequence, occupancy <= capacity."""
    sim = Simulator()
    queue = DropTailQueue(sim, capacity=capacity, mode=MODE_PACKETS)
    for op in operations:
        if op == "deq":
            queue.dequeue()
        else:
            queue.enqueue(make_packet(op))
        assert len(queue) <= capacity
    assert queue.arrivals == queue.drops + queue.departures + len(queue)


@settings(max_examples=60, deadline=None)
@given(capacity=st.integers(100, 5000),
       sizes=st.lists(st.integers(1, 1500), max_size=60))
def test_byte_mode_never_exceeds_capacity(capacity, sizes):
    """Byte-mode invariant: queued bytes <= capacity at all times."""
    sim = Simulator()
    queue = DropTailQueue(sim, capacity=capacity, mode=MODE_BYTES)
    for size in sizes:
        queue.enqueue(make_packet(size))
        assert queue._bytes <= capacity


#: One queue operation: wait ``dt`` seconds (0.0 ties it to the previous
#: one), then enqueue a packet of that many bytes, or dequeue.
_OPERATIONS = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_subnormal=False)),
    st.one_of(st.just("deq"), st.integers(1, 1500)))


@settings(deadline=None)
@given(mode=st.sampled_from([MODE_PACKETS, MODE_BYTES]),
       capacity=st.integers(1, 8), operations=st.lists(_OPERATIONS,
                                                       max_size=60),
       tail=st.one_of(st.just(0.0), st.floats(0.0, 5.0)))
def test_occupancy_matches_time_weighted_reference(mode, capacity,
                                                   operations, tail):
    """The queue's inline occupancy integrals equal a pair of reference
    time-weighted values updated after every change, float for float."""
    if mode == MODE_BYTES:
        capacity *= 400  # one to ~five 1500 B packets: drops included
    sim = Simulator()
    queue = DropTailQueue(sim, capacity=capacity, mode=mode)
    ref_packets = TimeWeightedValue(sim, 0.0)
    ref_bytes = TimeWeightedValue(sim, 0.0)
    held = []

    def check():
        assert queue.mean_packets() == ref_packets.mean()
        assert queue.max_packets() == ref_packets.maximum()
        assert queue.mean_bytes() == ref_bytes.mean()

    def apply(op):
        if op == "deq":
            if queue.dequeue() is None:
                return
            held.pop(0)
        elif queue.enqueue(make_packet(op)):
            held.append(op)
        else:
            return
        ref_packets.update(float(len(held)))
        ref_bytes.update(float(sum(held)))
        check()

    at = 0.0
    for dt, op in operations:
        at += dt
        sim.call_at(at, lambda op=op: apply(op))
    sim.run(until=at + tail)
    check()

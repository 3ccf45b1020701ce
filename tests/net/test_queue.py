"""Unit and property tests for the drop-tail queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue, MODE_BYTES, MODE_PACKETS
from repro.sim import Simulator


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
        assert queue.occupancy_bytes.value == 300
        queue.dequeue()
        assert queue.occupancy_bytes.value == 0


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
        assert queue.occupancy_packets.mean() == pytest.approx(0.5)


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
        assert queue.occupancy_bytes.value <= capacity

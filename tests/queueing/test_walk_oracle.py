"""Differential test: the drop-tail walk against the event engine itself.

:func:`~repro.queueing.fastforward.drop_tail_walk` replays the event
engine's :class:`~repro.net.link.Interface` and
:class:`~repro.net.queue.DropTailQueue`.  Here the same stream drives one
real interface and queue on a :class:`~repro.sim.kernel.Simulator`, as
``tests/net/test_idle_path.py`` does, and every probe exit instant, every
admission and every :func:`~repro.net.queue.queue_summary` value must be
equal as ``float.hex``, never within a tolerance.  Arrivals run after
any finish instant they tie with (a start at an arrival's instant goes
first), which is the walk's rule.  The example count comes from the
active hypothesis profile (``HYPOTHESIS_PROFILE``, see
``tests/conftest.py``).
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.net.queue import MODE_BYTES, MODE_PACKETS, DropTailQueue, \
    queue_summary
from repro.queueing.fastforward import drop_tail_walk
from repro.sim.kernel import DEFAULT_PRIORITY, Simulator
from repro.units import BITS_PER_BYTE

#: Service rates: the INRIA-UMd bottleneck, a round rate, one whose
#: reciprocal is inexact so finish instants round, and one at which
#: 125 B take 1/8 s, so grid arrivals land exactly on finish instants.
RATES = [128e3, 1e6, 10e6 / 3, 8000.0]
#: Wire sizes in bytes: a probe, cross packets, one over a 100-byte
#: buffer, and the smallest.
SIZES = [72, 101, 552, 1500, 1]
#: Gaps between arrivals; zero makes same-instant arrivals.
GAPS = [0.0, 0.0, 1e-4, 4.5e-3, 0.01, 0.2]


class _Sink:
    """The receiving end of the link: it records each delivery instant."""

    name = "sink"

    def __init__(self, sim):
        self._sim = sim
        self.delivered = {}

    def handle_packet(self, packet, ingress):
        self.delivered[packet.uid] = self._sim.now


def event_walk(times, sizes, probes, end_time, rate, capacity, mode):
    """The event engine's answer: (exits, admitted, queue statistics).

    The link has no propagation delay, so a delivery instant is the
    transmission's finish.  Statistics are read at ``end_time``; the run
    then goes on until every admitted probe has been delivered.
    """
    sim = Simulator(seed=1)
    queue = DropTailQueue(sim, capacity=capacity, mode=mode)
    sink = _Sink(sim)
    interface = Interface(sim, sink, rate, 0.0, queue)
    interface.attach_peer(sink)
    sent = []

    def arrive(size, probe):
        packet = Packet(src="source", dst="sink", size_bytes=size)
        admitted = interface.send(packet)
        if probe:
            sent.append((packet.uid, admitted))

    for at, size, probe in zip(times, sizes, probes):
        sim.call_at(at, lambda size=size, probe=probe: arrive(size, probe),
                    priority=DEFAULT_PRIORITY + 1)
    sim.run(until=end_time)
    stats = queue_summary(queue.arrivals, queue.drops, queue.departures,
                          queue.mean_packets(), queue.max_packets(),
                          queue.mean_bytes())
    sim.run()
    exits = [sink.delivered[uid] if admitted else None
             for uid, admitted in sent]
    return exits, [admitted for _, admitted in sent], stats


@st.composite
def streams(draw):
    mode = draw(st.sampled_from([MODE_PACKETS, MODE_BYTES]))
    if mode == MODE_PACKETS:
        capacity = draw(st.integers(1, 6))
    else:
        capacity = draw(st.sampled_from([1, 100, 552, 1500, 4000]))
    rate = draw(st.sampled_from(RATES))
    count = draw(st.integers(0, 60))
    grid = draw(st.booleans())
    if grid:
        # Dyadic instants and sizes in multiples of 125 B: at 8000 bit/s
        # arrivals tie with finish instants often.
        gaps = draw(st.lists(st.integers(0, 16).map(lambda k: k / 8),
                             min_size=count, max_size=count))
        sizes = draw(st.lists(st.integers(1, 12).map(lambda k: 125 * k),
                              min_size=count, max_size=count))
    else:
        gaps = draw(st.lists(
            st.sampled_from(GAPS) | st.floats(0.0, 0.05),
            min_size=count, max_size=count))
        sizes = draw(st.lists(
            st.sampled_from(SIZES) | st.integers(1, 2500),
            min_size=count, max_size=count))
    probes = draw(st.one_of(
        st.just([True] * count),
        st.lists(st.booleans(), min_size=count, max_size=count)))
    times = []
    now = draw(st.floats(0.0, 1.0))
    for gap in gaps:
        now += gap
        times.append(now)
    end_time = (times[-1] if times else 0.0) + draw(
        st.sampled_from([0.0, 0.003, 0.125, 1.0]))
    return rate, capacity, mode, times, sizes, probes, end_time


def hexed(values):
    return [None if value is None else value.hex() for value in values]


@given(streams())
# A packet entering an idle queue, then a second arrival one ulp before
# its finish: a residual-bits walk rounded the in-service remainder to
# exactly 0.0 there and let the second packet skip the buffer.
@example((1e6, 1, MODE_PACKETS,
          [3.197143117361634e-05, 0.0003519714311736163],
          [40, 40], [False, True], 0.001))
# Empty stream, and a stream of same-instant probes only.
@example((128e3, 15, MODE_PACKETS, [], [], [], 1.0))
@example((128e3, 2, MODE_PACKETS, [0.5] * 5, [72] * 5, [True] * 5, 0.5))
# Oversized packets at an idle byte-mode queue, cross and probe at once.
@example((128e3, 100, MODE_BYTES, [0.0, 0.0, 0.1], [101, 101, 100],
          [False, True, True], 0.2))
# Arrivals on finish instants: the second waits, the third arrives as
# the second starts and finds the buffer free again.
@example((8000.0, 1, MODE_PACKETS, [0.0, 0.0, 0.125, 0.25],
          [125, 125, 125, 125], [True] * 4, 0.5))
# A departure is a start: the second packet counts, though still in
# service at the end; the third crosses an idle link.
@example((8000.0, 1, MODE_PACKETS, [0.0, 0.0, 2.0], [1000, 1000, 1000],
          [True] * 3, 2.5))
def test_walk_matches_event_interface(stream):
    rate, capacity, mode, times, sizes, probes, end_time = stream
    bits = [float(size * BITS_PER_BYTE) for size in sizes]
    if end_time <= 0:
        # The walk reports statistics over [0, end_time], so it refuses
        # an empty window before walking.
        with pytest.raises(ConfigurationError):
            drop_tail_walk(times, bits, probes, end_time, rate, capacity,
                           mode)
        return
    walk = drop_tail_walk(times, bits, probes, end_time, rate, capacity,
                          mode)
    exits, admitted, stats = event_walk(times, sizes, probes, end_time,
                                        rate, capacity, mode)
    assert walk.admitted == admitted
    assert hexed(exit if took else None for exit, took in
                 zip(walk.exits, walk.admitted)) == hexed(exits)
    assert list(walk.stats) == list(stats)
    assert hexed(walk.stats.values()) == hexed(stats.values())

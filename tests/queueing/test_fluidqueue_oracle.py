"""Differential test: the fused drop-tail walk against the per-packet oracle.

:func:`~repro.queueing.fastforward.drop_tail_walk` must run the same float
operations, in the same order, as the ``advance``/``offer`` queue it replaced
(:mod:`tests.queueing.fluidqueue_reference`), so every probe wait,
admission and statistic is compared bit for bit (``float.hex``), never
with a tolerance.  The example count comes from the active hypothesis
profile (``HYPOTHESIS_PROFILE``, see ``tests/conftest.py``).
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.queue import MODE_BYTES, MODE_PACKETS
from repro.queueing.fastforward import drop_tail_walk

from tests.queueing.fluidqueue_reference import (
    ReferenceFluidQueue,
    reference_walk,
)

#: Service rates: the INRIA-UMd bottleneck, a round rate, and one whose
#: reciprocal is inexact so service spans round.
RATES = [128e3, 1e6, 10e6 / 3]
#: Wire sizes in bits: a probe, cross packets, a 101-byte packet (over a
#: 100-byte buffer) and one byte.
SIZES = [576.0, 808.0, 4416.0, 12000.0, 8.0]
#: Gaps between arrivals; zero makes same-instant arrivals.
GAPS = [0.0, 0.0, 1e-4, 4.5e-3, 0.01, 0.2]


@st.composite
def walks(draw):
    mode = draw(st.sampled_from([MODE_PACKETS, MODE_BYTES]))
    if mode == MODE_PACKETS:
        capacity = draw(st.integers(1, 6))
    else:
        capacity = draw(st.sampled_from([1, 100, 552, 1500, 4000]))
    rate = draw(st.sampled_from(RATES))
    count = draw(st.integers(0, 60))
    gaps = draw(st.lists(
        st.sampled_from(GAPS) | st.floats(0.0, 0.05),
        min_size=count, max_size=count))
    sizes = draw(st.lists(
        st.sampled_from(SIZES) | st.floats(1.0, 20000.0),
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
        st.sampled_from([0.0, 0.003, 1.0]))
    return rate, capacity, mode, times, sizes, probes, end_time


def hexed(values):
    return [value.hex() for value in values]


@given(walks())
# A packet entering an idle queue, then a second arrival one ulp before
# its finish: the in-service residual 320 - (at - now) * 1e6 rounds to
# exactly 0.0, so the second packet finds the server "idle".
@example((1e6, 1, MODE_PACKETS,
          [3.197143117361634e-05, 0.0003519714311736163],
          [320.0, 320.0], [False, True], 0.001))
# Empty stream, and a stream of same-instant probes only.
@example((128e3, 15, MODE_PACKETS, [], [], [], 1.0))
@example((128e3, 2, MODE_PACKETS, [0.5] * 5, [576.0] * 5, [True] * 5, 0.5))
# Oversized packets at an idle byte-mode queue, cross and probe at once.
@example((128e3, 100, MODE_BYTES, [0.0, 0.0, 0.1], [808.0, 808.0, 800.0],
          [False, True, True], 0.2))
def test_walk_matches_per_packet_oracle(stream):
    rate, capacity, mode, times, sizes, probes, end_time = stream
    reference = ReferenceFluidQueue(rate, capacity, mode)
    expected_waits, expected_admitted = reference_walk(
        reference, times, sizes, probes, end_time)
    if end_time <= 0:
        # The walk reports statistics over [0, end_time], so it refuses
        # an empty window before walking.
        with pytest.raises(ConfigurationError):
            drop_tail_walk(times, sizes, probes, end_time, rate, capacity,
                           mode)
        return
    walk = drop_tail_walk(times, sizes, probes, end_time, rate, capacity,
                          mode)
    assert hexed(walk.waits) == hexed(expected_waits)
    assert walk.admitted == expected_admitted
    want = reference.stats(end_time)
    assert list(walk.stats) == list(want)
    assert hexed(walk.stats.values()) == hexed(want.values())

"""Unit tests for events and the pending-event queue.

The simulator is the queue's only client: ``call_at``/``schedule`` push
onto its heap and ``run`` pops off it, inlined.  So the ordering, tie,
priority and cancellation rules are checked through that public API, on
the path every simulation runs.
"""

import math
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import Event


def make_action(log, tag):
    return lambda: log.append(tag)


class TestEventQueue:
    def test_pop_returns_earliest(self):
        sim = Simulator(seed=0)
        log = []
        sim.call_at(2.0, make_action(log, "b"))
        sim.call_at(1.0, make_action(log, "a"))
        sim.run(until=1.5)
        assert log == ["a"]
        assert sim.pending_events() == 1

    def test_fifo_within_same_time(self):
        sim = Simulator(seed=0)
        log = []
        sim.call_at(1.0, make_action(log, "first"))
        sim.schedule(1.0, make_action(log, "second"))
        sim.run()
        assert log == ["first", "second"]

    def test_priority_breaks_time_ties(self):
        sim = Simulator(seed=0)
        log = []
        sim.call_at(1.0, make_action(log, "low"), priority=5)
        sim.call_at(1.0, make_action(log, "high"), priority=-5)
        sim.run()
        assert log == ["high", "low"]

    def test_cancelled_event_is_skipped(self):
        sim = Simulator(seed=0)
        log = []
        handle = sim.call_at(1.0, make_action(log, "cancelled"))
        sim.call_at(2.0, make_action(log, "kept"))
        handle.cancel()
        sim.run()
        assert log == ["kept"]
        assert sim.now == 2.0

    def test_len_excludes_cancelled(self):
        sim = Simulator(seed=0)
        handle = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        assert sim.pending_events() == 2
        handle.cancel()
        assert sim.pending_events() == 1

    def test_bool_reflects_live_events(self):
        sim = Simulator(seed=0)
        assert not sim._queue
        handle = sim.call_at(1.0, lambda: None)
        assert sim._queue
        handle.cancel()
        assert not sim._queue

    def test_clear(self):
        sim = Simulator(seed=0)
        log = []
        sim.call_at(1.0, make_action(log, "dropped"))
        sim._queue.clear()
        assert sim.pending_events() == 0
        sim.run()
        assert log == []

    def test_sequence_numbers_monotonic(self):
        sim = Simulator(seed=0)
        first = sim.call_at(1.0, lambda: None)
        second = sim.schedule(1.0, lambda: None)
        assert second.sequence > first.sequence


class TestLiveCounter:
    """The O(1) live-event counter must agree with a heap scan throughout.

    Regression for the O(n)-per-call ``__len__``/``__bool__``: the count is
    now maintained incrementally, so every mutation path (scheduling,
    execution, lazy cancellation, cancel-after-fire, double cancel, clear)
    has to keep it exact.
    """

    def heap_scan(self, sim):
        return sum(1 for entry in sim._queue._heap if not entry[3].cancelled)

    def test_counter_tracks_push_pop_cancel(self):
        sim = Simulator(seed=0)
        handles = [sim.call_at(float(i), lambda: None) for i in range(10)]
        assert sim.pending_events() == self.heap_scan(sim) == 10
        handles[3].cancel()
        handles[7].cancel()
        assert sim.pending_events() == self.heap_scan(sim) == 8
        sim.run(until=0.5)
        assert sim.pending_events() == self.heap_scan(sim) == 7
        # Running past the cancelled events must not double-count them.
        for until in range(1, 10):
            sim.run(until=until + 0.5)
            assert sim.pending_events() == self.heap_scan(sim)
        assert sim.pending_events() == 0
        assert not sim._queue

    def test_double_cancel_counts_once(self):
        sim = Simulator(seed=0)
        handle = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending_events() == 1

    def test_cancel_after_pop_does_not_corrupt_count(self):
        sim = Simulator(seed=0)
        handle = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        sim.run(until=1.5)
        handle.cancel()  # event already fired; count must stay at 1
        assert sim.pending_events() == 1

    def test_cancel_after_clear_does_not_corrupt_count(self):
        sim = Simulator(seed=0)
        handle = sim.call_at(1.0, lambda: None)
        sim._queue.clear()
        handle.cancel()
        assert sim.pending_events() == 0
        sim.call_at(2.0, lambda: None)
        assert sim.pending_events() == 1

    def test_len_and_bool_do_not_scan_heap(self):
        # Regression for the O(n)-per-call implementation: __len__ and
        # __bool__ must read the maintained counter, never iterate the
        # heap (Simulator.pending_events is called per monitoring tick).
        sim = Simulator(seed=0)
        for i in range(5):
            sim.call_at(float(i), lambda: None)

        class IterationDetector(list):
            iterated = False

            def __iter__(self):
                self.iterated = True
                return super().__iter__()

        queue = sim._queue
        queue._heap = IterationDetector(queue._heap)
        assert sim.pending_events() == 5
        assert queue
        assert not queue._heap.iterated

    def test_skipped_cancelled_head_keeps_count(self):
        sim = Simulator(seed=0)
        handle = sim.call_at(1.0, lambda: None)
        sim.call_at(2.0, lambda: None)
        handle.cancel()
        sim.run(until=1.5)  # drops the cancelled head lazily
        assert sim.pending_events() == self.heap_scan(sim) == 1


class TestEvent:
    def test_cancel_sets_flag(self):
        event = Event(1.0, 0, 0, lambda: None)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled


_PRIORITIES = st.sampled_from([-1, 0, 1])


@st.composite
def _schedules(draw):
    """Top-level events on a few tied instants; each may schedule child
    events (zero delay included) and cancel top-level events when it
    fires.  Some are cancelled before the run, and the run stops at a few
    checkpoints on the way."""
    size = draw(st.integers(1, 20))
    events = [{
        "time": draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        "priority": draw(_PRIORITIES),
        "children": draw(st.lists(
            st.tuples(st.sampled_from([0.0, 0.5]), _PRIORITIES),
            max_size=3)),
        "cancels": draw(st.lists(st.integers(0, size - 1), max_size=2)),
    } for _ in range(size)]
    cancelled = draw(st.lists(st.integers(0, size - 1), max_size=3))
    checkpoints = sorted(draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75]), max_size=3)))
    return events, cancelled, checkpoints


def _run_kernel(events, cancelled, checkpoints):
    """Execution order and, after each checkpoint, the pending counts."""
    sim = Simulator(seed=0)
    log = []
    handles = {}

    def action(tag, spec):
        def fire():
            log.append(tag)
            for index, (delay, priority) in enumerate(spec["children"]):
                sim.schedule(delay, action((tag, index), None),
                             priority=priority)
            for target in spec["cancels"]:
                handles[target].cancel()
        return fire if spec is not None else (lambda: log.append(tag))

    for tag, spec in enumerate(events):
        handles[tag] = sim.call_at(spec["time"], action(tag, spec),
                                   priority=spec["priority"])
    for tag in cancelled:
        handles[tag].cancel()
    counts = []
    for until in checkpoints + [None]:
        sim.run(until=until)
        live = sum(1 for entry in sim._queue._heap if not entry[3].cancelled)
        counts.append((sim.pending_events(), live))
    return log, counts


def _reference(events, cancelled, checkpoints):
    """The same schedule, run by repeatedly taking the minimum pending
    event on (time, priority, scheduling order) from a plain list."""
    order = count()
    pending = [((spec["time"], spec["priority"], next(order)), tag, spec)
               for tag, spec in enumerate(events)]
    dead = set(cancelled)
    log = []
    counts = []
    for until in checkpoints + [math.inf]:
        while True:
            live = [item for item in pending if item[1] not in dead]
            if not live:
                break
            head = min(live, key=lambda item: item[0])
            (now, _, _), tag, spec = head
            if now > until:
                break
            pending.remove(head)
            log.append(tag)
            if spec is None:
                continue
            for index, (delay, priority) in enumerate(spec["children"]):
                pending.append(((now + delay, priority, next(order)),
                                (tag, index), None))
            dead.update(spec["cancels"])
        remaining = sum(1 for item in pending if item[1] not in dead)
        counts.append((remaining, remaining))
    return log, counts


@settings(deadline=None)
@given(_schedules())
def test_execution_order_matches_reference_sort(schedule):
    """The kernel runs events in (time, priority, scheduling order), with
    zero-delay events scheduled from callbacks and cancellations, and its
    live count always equals a scan of the heap's live entries."""
    assert _run_kernel(*schedule) == _reference(*schedule)

"""Unit tests for the kernel's pending-event queue.

The queue is the simulator's heap of ``(time, priority, sequence, action,
label)`` tuples: ``call_at``/``schedule`` push onto it and ``run`` pops off
it, inlined.  So the ordering, tie and priority rules are checked through
that public API, on the path every simulation runs.
"""

import math
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Simulator


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

    def test_sequence_numbers_monotonic(self):
        sim = Simulator(seed=0)
        sim.call_at(1.0, lambda: None, label="first")
        sim.schedule(1.0, lambda: None, label="second")
        first, second = sorted(sim._heap)
        assert (first[4], second[4]) == ("first", "second")
        assert second[2] > first[2]

    def test_scheduling_returns_no_handle(self):
        sim = Simulator(seed=0)
        assert sim.call_at(1.0, lambda: None) is None
        assert sim.schedule(1.0, lambda: None) is None

    def test_pending_count_is_exact_inside_callbacks(self):
        sim = Simulator(seed=0)
        seen = []
        for time in (1.0, 2.0, 3.0):
            sim.call_at(time, lambda: seen.append(sim.pending_events()))
        sim.run()
        assert seen == [2, 1, 0]
        assert sim.pending_events() == 0


_PRIORITIES = st.sampled_from([-1, 0, 1])


@st.composite
def _schedules(draw):
    """Top-level events on a few tied instants; each may schedule child
    events (zero delay included) when it fires.  The run stops at a few
    checkpoints on the way."""
    size = draw(st.integers(1, 20))
    events = [{
        "time": draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        "priority": draw(_PRIORITIES),
        "children": draw(st.lists(
            st.tuples(st.sampled_from([0.0, 0.5]), _PRIORITIES),
            max_size=3)),
    } for _ in range(size)]
    checkpoints = sorted(draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75]), max_size=3)))
    return events, checkpoints


def _run_kernel(events, checkpoints):
    """Execution order and, after each checkpoint, the pending count."""
    sim = Simulator(seed=0)
    log = []

    def action(tag, spec):
        def fire():
            log.append(tag)
            for index, (delay, priority) in enumerate(spec["children"]):
                sim.schedule(delay, action((tag, index), None),
                             priority=priority)
        return fire if spec is not None else (lambda: log.append(tag))

    for tag, spec in enumerate(events):
        sim.call_at(spec["time"], action(tag, spec),
                    priority=spec["priority"])
    counts = []
    for until in checkpoints + [None]:
        sim.run(until=until)
        counts.append(sim.pending_events())
    return log, counts


def _reference(events, checkpoints):
    """The same schedule, run by repeatedly taking the minimum pending
    event on (time, priority, scheduling order) from a plain list."""
    order = count()
    pending = [((spec["time"], spec["priority"], next(order)), tag, spec)
               for tag, spec in enumerate(events)]
    log = []
    counts = []
    for until in checkpoints + [math.inf]:
        while pending:
            head = min(pending, key=lambda item: item[0])
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
        counts.append(len(pending))
    return log, counts


@settings(deadline=None)
@given(_schedules())
def test_execution_order_matches_reference_sort(schedule):
    """The kernel runs events in (time, priority, scheduling order), with
    zero-delay events scheduled from callbacks, and its pending count
    equals the reference's after every checkpoint."""
    assert _run_kernel(*schedule) == _reference(*schedule)

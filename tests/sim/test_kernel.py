"""Unit tests for the simulator run loop and clock."""

import copy
import warnings

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_call_at_runs_at_exact_time(self, sim):
        fired = []
        sim.call_at(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_schedule_is_relative(self, sim):
        fired = []
        sim.call_at(1.0, lambda: sim.schedule(0.5,
                                              lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [1.5]

    def test_past_scheduling_rejected(self, sim):
        sim.call_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.call_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_time_rejected(self, sim, bad):
        # NaN compares false against everything, so letting one into the
        # heap would silently corrupt its ordering.
        with pytest.raises(SchedulingError, match="non-finite"):
            sim.call_at(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, sim, bad):
        with pytest.raises(SchedulingError, match="non-finite"):
            sim.schedule(bad, lambda: None)

    def test_negative_infinite_delay_rejected(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(float("-inf"), lambda: None)

    def test_rejected_time_leaves_queue_untouched(self, sim):
        with pytest.raises(SchedulingError):
            sim.call_at(float("nan"), lambda: None)
        assert sim.pending_events() == 0

    def test_zero_delay_event_fires_now(self, sim):
        fired = []
        sim.call_at(1.0, lambda: sim.schedule(0.0, lambda: fired.append(
            sim.now)))
        sim.run()
        assert fired == [1.0]


class TestRunLoop:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending_events() == 1

    def test_run_until_advances_clock_even_if_queue_empty(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_resumed_run_executes_remaining(self, sim):
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        sim.run()
        assert fired == [1, 5]

    def test_stop_halts_loop(self, sim):
        fired = []
        sim.call_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.call_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_clock_monotonic_across_events(self, sim):
        times = []
        for t in (3.0, 1.0, 2.0):
            sim.call_at(t, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)

    def test_events_executed_counter(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.call_at(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_event_scheduling_during_run(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.call_at(0.0, lambda: chain(1))
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == 4.0


class TestDeterminism:
    def test_same_seed_same_stream_draws(self):
        a = Simulator(seed=99)
        b = Simulator(seed=99)
        assert a.streams.get("x").random(5).tolist() == \
            b.streams.get("x").random(5).tolist()

    def test_different_seeds_differ(self):
        a = Simulator(seed=1)
        b = Simulator(seed=2)
        assert a.streams.get("x").random(5).tolist() != \
            b.streams.get("x").random(5).tolist()


class Recorder:
    """A callable object and a bound method, both copied with the graph."""

    def __init__(self):
        self.fired = []

    def __call__(self):
        self.fired.append("call")

    def tick(self):
        self.fired.append("tick")


class TestCopy:
    def test_deepcopy_continues_the_sequence_without_warning(self):
        sim = Simulator(seed=3)
        recorder = Recorder()
        sim.call_at(1.0, recorder.tick)
        sim.call_at(1.0, recorder)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone_sim, clone = copy.deepcopy((sim, recorder))
        for each, owner in ((sim, recorder), (clone_sim, clone)):
            each.call_at(1.0, owner.tick)
            assert [entry[2] for entry in sorted(each._heap)] == [0, 1, 2]
            each.run()
        assert recorder.fired == clone.fired == ["tick", "call", "tick"]
        assert clone_sim.streams.get("x").random() \
            == sim.streams.get("x").random()

    def test_pending_closure_refuses_the_copy(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None, label="closure")
        with pytest.raises(SimulationError, match="closure"):
            copy.deepcopy(sim)

    def test_pending_builtin_refuses_the_copy(self):
        sim = Simulator()
        sim.call_at(1.0, [].clear)
        with pytest.raises(SimulationError, match="bound method"):
            copy.deepcopy(sim)

"""Kernel tracer: ring buffer, per-label profiles, attach/detach rules."""

import pytest

from repro.errors import SimulationError
from repro.obs.tracer import KernelTracer
from repro.sim.kernel import Simulator


def run_ticks(tracer, count=5, label="tick", capacity_sim_seed=1):
    sim = Simulator(seed=capacity_sim_seed)
    sim.attach_observer(tracer)
    for n in range(count):
        sim.call_at(float(n), lambda: None, label=label)
    sim.run()
    return sim


class TestRecording:
    def test_records_every_event(self):
        tracer = KernelTracer()
        run_ticks(tracer, count=5)
        assert len(tracer) == 5
        assert tracer.events_seen == 5
        assert [record.time for record in tracer.records] == \
            [0.0, 1.0, 2.0, 3.0, 4.0]
        assert {record.label for record in tracer.records} == {"tick"}

    def test_wall_cost_is_positive(self):
        tracer = KernelTracer()
        run_ticks(tracer, count=3)
        assert all(record.wall_seconds >= 0 for record in tracer.records)
        assert tracer.total_wall_seconds >= 0
        assert tracer.events_per_wall_second() > 0

    def test_ring_buffer_discards_oldest(self, monkeypatch):
        monkeypatch.setattr("repro.obs.tracer.DEFAULT_CAPACITY", 3)
        tracer = KernelTracer()
        run_ticks(tracer, count=10)
        assert len(tracer) == 3
        assert tracer.events_seen == 10
        assert tracer.overwritten == 7
        assert [record.time for record in tracer.records] == [7.0, 8.0, 9.0]


class TestProfiles:
    def test_per_label_aggregation(self):
        tracer = KernelTracer()
        sim = Simulator(seed=1)
        sim.attach_observer(tracer)
        for n in range(4):
            sim.call_at(float(n), lambda: None, label="a")
        sim.call_at(10.0, lambda: None, label="b")
        sim.run()
        profiles = {profile.label: profile for profile in tracer.profiles()}
        assert sorted(profiles) == ["a", "b"]
        profile = profiles["a"]
        assert profile.count == 4
        assert profile.first_time == 0.0
        assert profile.last_time == 3.0
        assert profile.events_per_sim_second() == pytest.approx(4 / 3.0)
        assert profile.total_wall_seconds >= profile.max_wall_seconds > 0
        assert profiles["b"].count == 1

    def test_hot_labels_sorted_by_total_cost(self):
        tracer = KernelTracer()
        run_ticks(tracer, count=5)
        hot = tracer.hot_labels(3)
        assert [p.label for p in hot] == ["tick"]
        totals = [p.total_wall_seconds for p in tracer.profiles()]
        assert totals == sorted(totals, reverse=True)


class TestAttachment:
    def test_double_attach_rejected(self):
        sim = Simulator(seed=0)
        sim.attach_observer(KernelTracer())
        with pytest.raises(SimulationError):
            sim.attach_observer(KernelTracer())

    def test_detach_stops_recording(self):
        sim = Simulator(seed=0)
        tracer = KernelTracer()
        sim.attach_observer(tracer)
        sim.call_at(1.0, lambda: None, label="before")
        sim.run()
        sim.detach_observer()
        assert sim.observer is None
        sim.call_at(2.0, lambda: None, label="after")
        sim.run()
        assert [record.label for record in tracer.records] == ["before"]

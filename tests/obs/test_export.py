"""Exporters and manifests: JSONL/Chrome layouts, Observability.save.

Every format is plain JSON, so the tests read the files back with
:mod:`json`, as any consumer would.
"""

import json

import pytest

from repro.obs import Observability
from repro.obs.export import (
    write_chrome_trace,
    write_jsonl,
    write_profiles_json,
)
from repro.obs.lifecycle import HopRecord
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.spans import SpanRecord
from repro.obs.tracer import EventRecord, KernelTracer
from repro.sim.kernel import Simulator

EVENTS = [
    EventRecord(time=0.5, label="tx-done a->b", priority=10,
                wall_seconds=2e-6),
    EventRecord(time=1.25, label="", priority=0, wall_seconds=5e-7),
]
HOPS = [
    HopRecord(time=0.5, uid=7, event="enqueued", place="a->b", kind="udp",
              src="a", dst="b", queue_len=3),
    HopRecord(time=0.6, uid=7, event="received", place="b", kind="udp",
              src="a", dst="b"),
]


def read_jsonl(path):
    """One dict per line of a JSONL file."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def read_trace_events(path):
    """The ``traceEvents`` array of a Chrome trace file."""
    return json.loads(path.read_text())["traceEvents"]


class TestJsonlRoundTrip:
    def test_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert write_jsonl(EVENTS, path) == 2
        assert read_jsonl(path) == [record._asdict() for record in EVENTS]

    def test_hops(self, tmp_path):
        path = tmp_path / "hops.jsonl"
        assert write_jsonl(HOPS, path) == 2
        assert read_jsonl(path) == [record._asdict() for record in HOPS]

    def test_spans(self, tmp_path):
        spans = [SpanRecord(name="cell d50_s1", phase="cell", start=100.0,
                            duration=2.0, pid=11, worker="w11",
                            cell="d50_s1"),
                 SpanRecord(name="sim", phase="sim", start=100.5,
                            duration=1.0, pid=11, worker="w11",
                            cell="d50_s1", depth=1)]
        path = tmp_path / "spans.jsonl"
        assert write_jsonl(spans, path) == 2
        assert read_jsonl(path) == [record._asdict() for record in spans]

    def test_empty_ring_buffer_round_trips(self, tmp_path):
        # A tracer that saw nothing still exports a valid (empty) file.
        tracer = KernelTracer()
        path = tmp_path / "events.jsonl"
        assert write_jsonl(tracer.records, path) == 0
        assert read_jsonl(path) == []
        assert write_chrome_trace(tmp_path / "trace.json",
                                  events=tracer.records) == 0
        assert read_trace_events(tmp_path / "trace.json") == []

    def test_wrapped_ring_buffer_exports_survivors_only(self, tmp_path,
                                                        monkeypatch):
        # Capacity 3, 10 events: the ring keeps the last 3; the export
        # must contain exactly those, in order, and nothing overwritten.
        monkeypatch.setattr("repro.obs.tracer.DEFAULT_CAPACITY", 3)
        sim = Simulator(seed=1)
        tracer = KernelTracer()
        sim.attach_observer(tracer)
        for n in range(10):
            sim.call_at(float(n), lambda: None, label=f"tick-{n}")
        sim.run()
        assert tracer.events_seen == 10
        assert tracer.overwritten == 7
        path = tmp_path / "events.jsonl"
        assert write_jsonl(tracer.records, path) == 3
        labels = [row["label"] for row in read_jsonl(path)]
        assert labels == ["tick-7", "tick-8", "tick-9"]


class TestChromeTrace:
    def test_round_trip_and_layout(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, events=EVENTS, hops=HOPS)
        assert count == 4
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        rows = read_trace_events(path)
        kernel = [row for row in rows if row["cat"] == "kernel"]
        packet = [row for row in rows if row["cat"] == "packet"]
        assert [row["ph"] for row in kernel] == ["X", "X"]
        assert [row["ph"] for row in packet] == ["i", "i"]
        # Simulated seconds land on the µs timeline.
        assert kernel[0]["ts"] == pytest.approx(0.5e6)
        assert kernel[0]["dur"] == pytest.approx(2.0)
        assert kernel[1]["name"] == "<unlabelled>"
        assert packet[0]["tid"] == "a->b"
        assert packet[0]["args"]["queue_len"] == 3

    def test_events_only(self, tmp_path):
        path = tmp_path / "trace.json"
        assert write_chrome_trace(path, events=EVENTS) == 2

    def test_multi_worker_span_merge_lanes(self, tmp_path):
        # Spans merged from two worker processes: one lane per worker
        # (pid/tid), timestamps normalized to the earliest span so the
        # whole campaign reads as one flame graph from t=0.
        from repro.obs.spans import merge_spans

        epoch = 1700000000.0
        spans = [
            SpanRecord(name="cell d50_s2", phase="cell", start=epoch + 1.0,
                       duration=2.0, pid=12, worker="w12", cell="d50_s2"),
            SpanRecord(name="cell d50_s1", phase="cell", start=epoch + 1.5,
                       duration=1.0, pid=11, worker="w11", cell="d50_s1"),
            SpanRecord(name="campaign", phase="campaign", start=epoch,
                       duration=4.0, pid=10, worker="main"),
        ]
        merged = merge_spans(spans, ["d50_s1", "d50_s2"])
        path = tmp_path / "trace.json"
        assert write_chrome_trace(path, spans=merged) == 3
        rows = read_trace_events(path)
        assert [row["name"] for row in rows] \
            == ["campaign", "cell d50_s1", "cell d50_s2"]
        assert all(row["cat"] == "span" and row["ph"] == "X"
                   for row in rows)
        # One lane per recording process.
        assert [(row["pid"], row["tid"]) for row in rows] \
            == [(10, "main"), (11, "w11"), (12, "w12")]
        # Wall clock normalized to the earliest span, in microseconds.
        assert rows[0]["ts"] == pytest.approx(0.0)
        assert rows[1]["ts"] == pytest.approx(1.5e6)
        assert rows[1]["dur"] == pytest.approx(1.0e6)
        assert rows[2]["args"]["cell"] == "d50_s2"


class TestProfilesJson:
    def test_document_shape(self, tmp_path):
        sim = Simulator(seed=1)
        tracer = KernelTracer()
        sim.attach_observer(tracer)
        sim.call_at(1.0, lambda: None, label="tick")
        sim.run()
        path = tmp_path / "profiles.json"
        write_profiles_json(tracer, path)
        document = json.loads(path.read_text())
        assert document["events_seen"] == 1
        assert document["profiles"][0]["label"] == "tick"
        assert document["profiles"][0]["count"] == 1


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        written = write_manifest(path, config={"delta": 0.05}, seed=3,
                                 metrics={"net": {"x": 1}},
                                 extra={"note": "hello"})
        assert json.loads(path.read_text()) == written
        assert written["seed"] == 3
        assert written["config"] == {"delta": 0.05}
        assert "repro" in written["versions"]
        assert "python" in written["versions"]

    def test_dataclass_config_serialized(self):
        from repro.experiments.config import ExperimentConfig
        manifest = build_manifest(
            config=ExperimentConfig(delta=0.1, duration=1.0, seed=2))
        assert manifest["config"]["delta"] == 0.1
        assert manifest["config"]["seed"] == 2

    def test_same_inputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(a, config={"k": 1}, seed=5)
        write_manifest(b, config={"k": 1}, seed=5)
        assert a.read_bytes() == b.read_bytes()


class TestObservabilitySave:
    def test_full_bundle_writes_every_artifact(self, tmp_path):
        from repro.topology.inria_umd import build_inria_umd
        scenario = build_inria_umd(seed=1)
        obs = Observability.full(scenario.sim, scenario.network)
        scenario.start_traffic()
        scenario.sim.run(until=1.0)
        obs.close(sim=scenario.sim)
        written = obs.save(tmp_path / "out")
        names = sorted(path.name for path in written)
        assert names == ["events.jsonl", "hops.jsonl", "profiles.json",
                         "trace.json"]
        assert read_jsonl(tmp_path / "out" / "events.jsonl")

    def test_metrics_only_bundle_writes_nothing(self, tmp_path):
        from repro.topology.inria_umd import build_inria_umd
        scenario = build_inria_umd(seed=1)
        obs = Observability.metrics_only(scenario.network)
        assert obs.save(tmp_path) == []
        assert obs.snapshot()

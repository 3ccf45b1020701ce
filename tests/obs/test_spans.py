"""Span tracer, grid-order merge, timing summary."""

import os

import pytest

from repro.errors import ConfigurationError
from repro.obs.spans import (
    PHASE_CACHE,
    PHASE_CAMPAIGN,
    PHASE_CELL,
    PHASE_SIM,
    SpanRecord,
    SpanTracer,
    merge_spans,
    resolve_span_dir,
    summarize_spans,
)


def record(name="sim", phase=PHASE_SIM, start=10.0, duration=1.0,
           pid=1, worker="main", cell="", depth=0):
    return SpanRecord(name=name, phase=phase, start=start,
                      duration=duration, pid=pid, worker=worker,
                      cell=cell, depth=depth)


class TestSpanRecord:
    def test_dict_round_trip(self):
        # _asdict() (one spans.jsonl row) carries every constructor field.
        original = record(cell="d50_s1", depth=2)
        assert SpanRecord(**original._asdict()) == original

    def test_equality_and_hash(self):
        assert record() == record()
        assert hash(record()) == hash(record())
        assert record() != record(duration=2.0)

    def test_repr_names_fields(self):
        assert "phase='sim'" in repr(record())


class TestSpanTracer:
    def test_records_on_exit_innermost_first(self):
        tracer = SpanTracer(worker="main")
        with tracer.span("outer", phase=PHASE_CELL, cell="d50_s1"):
            with tracer.span("inner", phase=PHASE_SIM):
                pass
        assert [s.name for s in tracer.records] == ["inner", "outer"]

    def test_child_inherits_enclosing_cell_and_depth(self):
        tracer = SpanTracer()
        with tracer.span("cell", phase=PHASE_CELL, cell="d50_s1"):
            with tracer.span("sim", phase=PHASE_SIM):
                pass
        inner, outer = tracer.records
        assert inner.cell == "d50_s1"
        assert inner.depth == 1
        assert outer.depth == 0

    def test_explicit_cell_overrides_inherited(self):
        tracer = SpanTracer()
        with tracer.span("cell", phase=PHASE_CELL, cell="d50_s1"):
            with tracer.span("cache", phase=PHASE_CACHE, cell="d50_s2"):
                pass
        assert tracer.records[0].cell == "d50_s2"

    def test_duration_is_non_negative_and_start_ordered(self):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        span = tracer.records[0]
        assert span.duration >= 0.0
        assert span.start > 0.0

    def test_records_even_when_body_raises(self):
        tracer = SpanTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tracer.records] == ["boom"]

    def test_worker_defaults_to_pid_label(self):
        tracer = SpanTracer()
        assert tracer.worker == f"w{os.getpid()}"
        assert SpanTracer(worker="main").worker == "main"

    def test_len_and_repr(self):
        tracer = SpanTracer(worker="main")
        with tracer.span("a"):
            pass
        assert len(tracer) == 1
        assert "main" in repr(tracer)


class TestMergeSpans:
    def test_grid_order_beats_completion_order(self):
        grid = ["d50_s1", "d50_s2"]
        spans = [record(name="second", cell="d50_s2", start=1.0),
                 record(name="first", cell="d50_s1", start=5.0),
                 record(name="campaign", phase=PHASE_CAMPAIGN, start=0.0)]
        merged = merge_spans(spans, grid)
        assert [s.name for s in merged] == ["campaign", "first", "second"]

    def test_within_cell_sorted_by_start_then_depth(self):
        spans = [record(name="cell", cell="k", start=1.0, depth=0),
                 record(name="sim", cell="k", start=1.0, depth=1),
                 record(name="setup", cell="k", start=0.5, depth=1)]
        merged = merge_spans(spans, ["k"])
        assert [s.name for s in merged] == ["setup", "cell", "sim"]

    def test_foreign_cells_sort_after_grid(self):
        spans = [record(name="alien", cell="zz"),
                 record(name="grid", cell="k")]
        merged = merge_spans(spans, ["k"])
        assert [s.name for s in merged] == ["grid", "alien"]


class TestSummarizeSpans:
    def test_phase_aggregates(self):
        spans = [record(phase=PHASE_SIM, duration=1.0),
                 record(phase=PHASE_SIM, duration=3.0),
                 record(phase=PHASE_CELL, duration=4.0)]
        summary = summarize_spans(spans)
        assert list(summary) == [PHASE_CELL, PHASE_SIM]
        assert summary[PHASE_SIM] == {"count": 2, "total_seconds": 4.0,
                                      "max_seconds": 3.0}

    def test_unlabeled_phase_groups_as_other(self):
        summary = summarize_spans([record(phase="", duration=2.0)])
        assert summary["other"]["count"] == 1

    def test_empty_input(self):
        assert summarize_spans([]) == {}


class TestResolveSpanDir:
    def test_disabled(self, tmp_path):
        assert resolve_span_dir(None, tmp_path) is None
        assert resolve_span_dir(False, tmp_path) is None

    def test_true_lands_inside_output_dir(self, tmp_path):
        assert resolve_span_dir(True, tmp_path) == tmp_path / "spans"

    def test_true_without_output_dir_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_span_dir(True, None)

    def test_explicit_path_used_as_is(self, tmp_path):
        target = tmp_path / "elsewhere"
        assert resolve_span_dir(str(target), None) == target

"""Benchmark report schema, round-trips, and regression comparison."""

import json

import pytest

from repro.errors import AnalysisError
from repro.obs.bench import (
    DEFAULT_THRESHOLD,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    MetricChange,
    build_report,
    compare_reports,
    flat_metrics,
    format_comparison,
    machine_info,
    metric,
    read_report,
    write_report,
)

SALT = "repro-cell-v2-test"


def report(metrics=None, suite="kernel", mode="full", salt=SALT, **kwargs):
    if metrics is None:
        metrics = {"throughput": metric(100.0, "events/s")}
    return build_report(suite, metrics, mode=mode, salt=salt, **kwargs)


class TestBuildReport:
    def test_document_shape(self):
        document = report(details={"rounds": 3})
        assert document["schema"] == SCHEMA_NAME
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["suite"] == "kernel"
        assert document["salt"] == SALT
        assert document["details"] == {"rounds": 3}
        assert document["metrics"]["throughput"]["value"] == 100.0
        assert set(document["machine"]) == set(machine_info())

    def test_default_salt_is_the_derived_cache_salt(self):
        from repro.experiments.cache import cache_salt
        assert build_report("kernel", {})["salt"] == cache_salt()

    def test_no_timestamps(self):
        rendered = json.dumps(report())
        assert "time" not in rendered
        assert "date" not in rendered

    def test_malformed_metric_rejected(self):
        with pytest.raises(AnalysisError, match="missing field"):
            build_report("kernel", {"x": {"value": 1.0}}, salt=SALT)

    def test_bad_direction_rejected(self):
        with pytest.raises(AnalysisError, match="direction"):
            metric(1.0, "s", direction="sideways")


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        document = report()
        path = write_report(document, tmp_path / "BENCH_kernel.json")
        assert read_report(path) == document

    def test_write_is_deterministic(self, tmp_path):
        write_report(report(), tmp_path / "a.json")
        write_report(report(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(AnalysisError, match="cannot read"):
            read_report(tmp_path / "nope.json")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "other"}))
        with pytest.raises(AnalysisError, match="not a repro-bench"):
            read_report(path)

    def test_future_schema_version_rejected(self, tmp_path):
        document = report()
        document["schema_version"] = SCHEMA_VERSION + 1
        path = write_report(document, tmp_path / "x.json")
        with pytest.raises(AnalysisError, match="schema_version"):
            read_report(path)

    def test_missing_metrics_rejected(self, tmp_path):
        document = report()
        del document["metrics"]
        path = write_report(document, tmp_path / "x.json")
        with pytest.raises(AnalysisError, match="missing"):
            read_report(path)


class TestMetricChange:
    def test_higher_is_better_drop_is_regression(self):
        change = MetricChange("x", old=100.0, new=85.0, unit="events/s",
                              direction="higher")
        assert change.relative_change() == pytest.approx(-0.15)
        assert change.is_regression(0.10)
        assert not change.is_regression(0.20)

    def test_lower_is_better_rise_is_regression(self):
        change = MetricChange("x", old=1.0, new=1.3, unit="s",
                              direction="lower")
        assert change.relative_change() == pytest.approx(-0.3)
        assert change.is_regression(0.10)

    def test_improvement_is_positive_both_directions(self):
        faster = MetricChange("x", old=100.0, new=120.0, unit="",
                              direction="higher")
        leaner = MetricChange("y", old=2.0, new=1.0, unit="",
                              direction="lower")
        assert faster.relative_change() == pytest.approx(0.2)
        assert leaner.relative_change() == pytest.approx(0.5)

    def test_zero_old_value_is_incomparable_not_a_regression(self):
        change = MetricChange("x", old=0.0, new=5.0, unit="",
                              direction="higher")
        assert change.relative_change() is None
        assert not change.is_regression(0.0)


class TestCompareReports:
    def test_identical_reports_pass(self):
        comparison = compare_reports(report(), report())
        assert comparison["regressions"] == []
        assert comparison["caveats"] == []
        assert len(comparison["changes"]) == 1

    def test_injected_regression_detected(self):
        old = report(metrics={"throughput": metric(100.0, "events/s")})
        new = report(metrics={"throughput": metric(85.0, "events/s")})
        comparison = compare_reports(old, new, threshold=0.10)
        assert [c.name for c in comparison["regressions"]] == ["throughput"]

    def test_threshold_is_respected(self):
        old = report(metrics={"throughput": metric(100.0, "events/s")})
        new = report(metrics={"throughput": metric(85.0, "events/s")})
        assert compare_reports(old, new, threshold=0.20)["regressions"] == []

    def test_negative_threshold_rejected(self):
        with pytest.raises(AnalysisError, match="threshold"):
            compare_reports(report(), report(), threshold=-0.1)

    def test_suite_mode_salt_mismatches_are_caveats(self):
        old = report(suite="kernel", mode="full", salt="repro-cell-v2-a")
        new = report(suite="cache", mode="quick", salt="repro-cell-v2-b")
        caveats = "\n".join(compare_reports(old, new)["caveats"])
        assert "suite mismatch" in caveats
        assert "mode mismatch" in caveats
        assert "salt differs" in caveats

    def test_one_sided_metrics_are_caveats_not_failures(self):
        old = report(metrics={"gone": metric(1.0, "s")})
        new = report(metrics={"fresh": metric(1.0, "s")})
        comparison = compare_reports(old, new)
        assert comparison["changes"] == []
        assert comparison["regressions"] == []
        assert any("'gone' only in old" in c for c in comparison["caveats"])
        assert any("'fresh' only in new" in c for c in comparison["caveats"])


class TestFormatComparison:
    def test_regression_and_ok_lines(self):
        old = report(metrics={"a": metric(100.0, "events/s"),
                              "b": metric(10.0, "s", direction="lower")})
        new = report(metrics={"a": metric(50.0, "events/s"),
                              "b": metric(9.0, "s", direction="lower")})
        text = format_comparison(compare_reports(old, new))
        assert "REGRESSION  a: 100 -> 50 events/s (-50.0%)" in text
        assert "ok  b: 10 -> 9 s (+10.0%)" in text
        assert "1 regression(s) past 10% threshold" in text

    def test_caveats_rendered_as_notes(self):
        old = report(salt="repro-cell-v2-a")
        new = report(salt="repro-cell-v2-b")
        text = format_comparison(compare_reports(old, new))
        assert "note  code salt differs" in text


class TestHelpers:
    def test_flat_metrics_lifts_workloads(self):
        metrics = flat_metrics(
            {"event_loop": {"events_per_second": 200.0, "events": 5},
             "skipped": "not a dict"},
            unit="events/s")
        assert list(metrics) == ["event_loop_events_per_second"]
        assert metrics["event_loop_events_per_second"]["value"] == 200.0

    def test_default_threshold_value(self):
        assert DEFAULT_THRESHOLD == 0.10

"""Tests for campaign statistics (intervals, replication)."""

import pytest

from repro.analysis.stats import mean_interval, replicate
from repro.errors import AnalysisError, InsufficientDataError


class TestMeanInterval:
    def test_contains_sample_mean(self):
        interval = mean_interval([1.0, 2.0, 3.0, 4.0])
        assert interval.low <= 2.5 <= interval.high
        assert interval.estimate == pytest.approx(2.5)

    def test_constant_samples_zero_width(self):
        interval = mean_interval([3.0, 3.0, 3.0])
        assert interval.width == 0.0

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            mean_interval([1.0])
        with pytest.raises(AnalysisError):
            mean_interval([1.0, 2.0], confidence=0.0)

    def test_str(self):
        assert "@95%" in str(mean_interval([1.0, 2.0, 3.0]))


class TestReplicate:
    def test_collects_per_seed_metrics(self):
        summary = replicate(lambda seed: {"x": float(seed), "y": 1.0},
                            seeds=[1, 2, 3])
        assert summary.values["x"] == [1.0, 2.0, 3.0]
        assert summary.values["y"] == [1.0, 1.0, 1.0]
        assert summary.seeds == [1, 2, 3]

    def test_interval_over_metric(self):
        summary = replicate(lambda seed: {"x": float(seed)},
                            seeds=[1, 2, 3, 4])
        interval = summary.interval("x")
        assert interval.estimate == pytest.approx(2.5)

    def test_unknown_metric(self):
        summary = replicate(lambda seed: {"x": 1.0}, seeds=[1])
        with pytest.raises(AnalysisError):
            summary.interval("ghost")

    def test_inconsistent_keys_rejected(self):
        def flaky(seed):
            return {"x": 1.0} if seed == 1 else {"y": 1.0}

        with pytest.raises(AnalysisError):
            replicate(flaky, seeds=[1, 2])

    def test_no_seeds_rejected(self):
        with pytest.raises(AnalysisError):
            replicate(lambda seed: {"x": 1.0}, seeds=[])

    def test_table_renders(self):
        summary = replicate(lambda seed: {"ulp": 0.1 * seed}, seeds=[1, 2])
        assert "ulp" in summary.table()
        assert "n=2" in summary.table()

    def test_precomputed_mapping(self):
        # The parallel-campaign path: metrics computed elsewhere, possibly
        # out of order, aggregated in seed order here.
        precomputed = {3: {"x": 3.0}, 1: {"x": 1.0}, 2: {"x": 2.0}}
        summary = replicate(precomputed, seeds=[1, 2, 3])
        assert summary.values["x"] == [1.0, 2.0, 3.0]
        assert summary.seeds == [1, 2, 3]

    def test_precomputed_mapping_matches_callable(self):
        fn = lambda seed: {"x": float(seed) ** 2}  # noqa: E731
        seeds = [2, 5, 7]
        from_fn = replicate(fn, seeds)
        from_map = replicate({s: fn(s) for s in seeds}, seeds)
        assert from_fn.values == from_map.values
        assert from_fn.seeds == from_map.seeds

    def test_precomputed_mapping_missing_seed_rejected(self):
        with pytest.raises(AnalysisError, match="missing seeds"):
            replicate({1: {"x": 1.0}}, seeds=[1, 2])

    def test_precomputed_mapping_inconsistent_keys_rejected(self):
        with pytest.raises(AnalysisError):
            replicate({1: {"x": 1.0}, 2: {"y": 1.0}}, seeds=[1, 2])

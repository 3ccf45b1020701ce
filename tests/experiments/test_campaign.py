"""Tests for measurement campaigns."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import campaign as campaign_module
from repro.experiments.campaign import (
    CampaignSpec,
    _run_cell,
    cell_key,
    run_campaign,
)
from repro.netdyn.trace import ProbeTrace


def small_spec(**kwargs):
    defaults = dict(deltas=(0.1,), seeds=(1,), duration=10.0,
                    scenario_kwargs={"utilization_fwd": 0.3,
                                     "utilization_rev": 0.3})
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestCampaignSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(deltas=(), seeds=(1,))
        with pytest.raises(ConfigurationError):
            CampaignSpec(deltas=(0.1,), seeds=())
        with pytest.raises(ConfigurationError):
            CampaignSpec(deltas=(0.1,), seeds=(1,), duration=0.0)

    @pytest.mark.parametrize("grid", [
        dict(deltas=(0.05, 0.05), seeds=(1,)),
        dict(deltas=(0.05,), seeds=(1, 1)),
        # Distinct floats, one millisecond key: the CSVs would collide.
        dict(deltas=(0.05, 0.0500000001), seeds=(1,)),
    ])
    def test_repeated_cell_key_rejected(self, grid):
        with pytest.raises(ConfigurationError, match="'d50_s1'"):
            CampaignSpec(**grid)
        # Keys that differ at millisecond resolution stay accepted.
        spec = CampaignSpec(deltas=(0.05, 0.0505), seeds=(0, 1))
        assert [cell_key(*cell) for cell in spec.cells()] \
            == ["d50_s0", "d50_s1", "d50.5_s0", "d50.5_s1"]

    @pytest.mark.parametrize("grid", [
        dict(deltas=(0.05,), seeds=(-1,)),
        dict(deltas=(float("nan"),), seeds=(1,)),
        dict(deltas=(0.05,), seeds=(1,), duration=float("inf")),
        dict(deltas=(0.05,), seeds=(1,), scenario="mars-net"),
        # A mistyped builder keyword, and a seed the grid already sets.
        dict(deltas=(0.05,), seeds=(1,), mode="analytic",
             scenario_kwargs={"bufer_packets": 10}),
        dict(deltas=(0.05,), seeds=(1,), scenario_kwargs={"seed": 2}),
    ])
    def test_every_cell_config_validated_up_front(self, grid):
        # Rejected when the spec is built, not later inside a lease.
        with pytest.raises(ConfigurationError):
            CampaignSpec(**grid)


class TestRunCampaign:
    def test_grid_coverage(self):
        spec = small_spec(deltas=(0.1, 0.2), seeds=(1, 2))
        result = run_campaign(spec)
        assert set(result.traces) == {(0.1, 1), (0.1, 2),
                                      (0.2, 1), (0.2, 2)}
        assert set(result.summaries) == {0.1, 0.2}

    def test_metrics_collected_per_delta(self):
        spec = small_spec(seeds=(1, 2, 3))
        result = run_campaign(spec)
        summary = result.summaries[0.1]
        assert len(summary.values["ulp"]) == 3
        assert "mean_rtt" in summary.values

    def test_traces_saved_and_reloadable(self, tmp_path):
        spec = small_spec(deltas=(0.1, 0.2), seeds=(1,),
                          output_dir=tmp_path)
        result = run_campaign(spec)
        for cell in spec.cells():
            loaded = ProbeTrace.load_csv(
                tmp_path / f"trace_{cell_key(*cell)}.csv")
            assert loaded.delta == pytest.approx(cell[0])
            np.testing.assert_allclose(loaded.rtts, result.traces[cell].rtts,
                                       atol=1e-9)

    def test_table_renders(self):
        spec = small_spec(seeds=(1, 2))
        result = run_campaign(spec)
        table = result.table()
        assert "100ms" in table
        assert "±" in table  # cross-seed spread shown

    def test_single_seed_table(self):
        result = run_campaign(small_spec())
        assert "±" not in result.table()

    def test_unwritable_span_dir_fails_before_any_cell(self, tmp_path,
                                                       monkeypatch):
        ran = []
        monkeypatch.setattr(campaign_module, "_run_cell",
                            lambda *args, **kwargs: ran.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            run_campaign(small_spec(output_dir=tmp_path / "out"),
                         spans=blocker / "spans")
        assert ran == []

    def test_queue_stats_collected_per_cell(self):
        spec = small_spec(deltas=(0.1,), seeds=(1, 2))
        result = run_campaign(spec)
        assert set(result.queue_stats) == {(0.1, 1), (0.1, 2)}
        stats = result.queue_stats[(0.1, 1)]
        assert stats  # at least one queue saw traffic
        for queue_stats in stats.values():
            assert queue_stats["arrivals"] > 0
            assert queue_stats["drops"] >= 0
            assert 0.0 <= queue_stats["loss_fraction"] <= 1.0
            assert queue_stats["occupancy_max_pkts"] >= \
                queue_stats["occupancy_mean_pkts"] >= 0.0

    def test_queue_table_renders(self):
        result = run_campaign(small_spec())
        table = result.queue_table()
        assert "drops" in table
        assert "100ms" in table

    def test_manifest_written_with_campaign(self, tmp_path):
        spec = small_spec(output_dir=tmp_path)
        run_campaign(spec)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["deltas"] == [0.1]
        assert manifest["config"]["seeds"] == [1]
        assert "repro" in manifest["versions"]
        assert "d100_s1" in manifest["metrics"]["cells"]
        assert "ulp" in manifest["metrics"]["cells"]["d100_s1"]
        assert manifest["extra"]["traces"] == ["trace_d100_s1.csv"]
        queues = manifest["extra"]["queues"]["d100_s1"]
        assert any(stats["arrivals"] > 0 for stats in queues.values())

    def test_no_manifest_without_output_dir(self):
        result = run_campaign(small_spec())
        assert result.spec.output_dir is None  # nothing written anywhere

    def test_umd_pitt_campaign(self):
        spec = CampaignSpec(deltas=(0.05,), seeds=(1,), duration=5.0,
                            scenario="umd-pitt",
                            scenario_kwargs={"utilization_fwd": 0.2,
                                             "utilization_rev": 0.2})
        result = run_campaign(spec)
        assert (0.05, 1) in result.traces

    def test_manifest_ignores_stale_traces(self, tmp_path):
        # Regression: the manifest used to glob the output directory, so a
        # leftover trace from an earlier run in the same directory leaked
        # into the new campaign's artifact list.
        (tmp_path / "trace_d999_s9.csv").write_text(
            "n,send_time,rtt\n0,0.0,0.1\n")
        run_campaign(small_spec(output_dir=tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["extra"]["traces"] == ["trace_d100_s1.csv"]

    def test_cell_wall_seconds_recorded(self):
        result = run_campaign(small_spec(seeds=(1, 2)))
        assert set(result.cell_wall_seconds) == {"d100_s1", "d100_s2"}
        assert all(wall > 0 for wall in result.cell_wall_seconds.values())
        assert result.workers == 1

    def test_timing_sidecar_written(self, tmp_path):
        run_campaign(small_spec(output_dir=tmp_path), workers=2)
        timing = json.loads((tmp_path / "timing.json").read_text())
        assert timing["workers"] == 2
        assert set(timing["cell_wall_seconds"]) == {"d100_s1"}
        assert timing["total_cell_seconds"] > 0

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            run_campaign(small_spec(), workers=0)

    def test_cell_key(self):
        assert cell_key(0.1, 1) == "d100_s1"
        assert cell_key(0.008, 12) == "d8_s12"


class TestCellMetrics:
    def test_plg_clamp_surfaced(self):
        from repro.experiments.campaign import PLG_CEILING, _cell_metrics
        from repro.netdyn.trace import ProbeTrace

        # Every probe after the first is lost => clp == 1 => plg diverges.
        diverging = ProbeTrace.from_samples(
            delta=0.05, rtts=[0.1] + [0.0] * 20)
        metrics = _cell_metrics(diverging)
        assert metrics["plg"] == PLG_CEILING
        assert metrics["plg_clamped"] is True

        healthy = ProbeTrace.from_samples(
            delta=0.05, rtts=[0.1, 0.0, 0.1, 0.1, 0.0, 0.1] * 5)
        metrics = _cell_metrics(healthy)
        assert metrics["plg"] < PLG_CEILING
        assert metrics["plg_clamped"] is False

    def test_plg_clamped_flows_into_manifest_and_summaries(self, tmp_path):
        spec = small_spec(output_dir=tmp_path)
        result = run_campaign(spec)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cell = manifest["metrics"]["cells"]["d100_s1"]
        assert cell["plg_clamped"] in (True, False)
        assert "plg_clamped" in result.summaries[0.1].values


class TestParallelCampaign:
    """Parallel and serial execution must be indistinguishable on disk."""

    def grid_spec(self, output_dir):
        return small_spec(deltas=(0.1, 0.2), seeds=(1, 2), duration=5.0,
                          output_dir=output_dir)

    def test_parallel_matches_serial_byte_identical(self, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_campaign(self.grid_spec(serial_dir), workers=1)
        parallel = run_campaign(self.grid_spec(parallel_dir), workers=4)

        assert serial.table() == parallel.table()
        assert serial.queue_table() == parallel.queue_table()

        serial_files = sorted(p.name for p in serial_dir.glob("trace_*.csv"))
        parallel_files = sorted(
            p.name for p in parallel_dir.glob("trace_*.csv"))
        assert serial_files == parallel_files == [
            "trace_d100_s1.csv", "trace_d100_s2.csv",
            "trace_d200_s1.csv", "trace_d200_s2.csv"]
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == \
                (parallel_dir / name).read_bytes(), name
        assert (serial_dir / "manifest.json").read_bytes() == \
            (parallel_dir / "manifest.json").read_bytes()

    def test_parallel_grid_coverage_and_summaries(self):
        spec = small_spec(deltas=(0.1, 0.2), seeds=(1, 2))
        serial = run_campaign(spec, workers=1)
        parallel = run_campaign(spec, workers=2)
        assert set(parallel.traces) == set(serial.traces)
        for delta in spec.deltas:
            assert parallel.summaries[delta].values == \
                serial.summaries[delta].values
        assert parallel.workers == 2

    def test_run_cell_is_pure_and_deterministic(self):
        spec = small_spec()
        first = _run_cell(spec, 0.1, 1)
        second = _run_cell(spec, 0.1, 1)
        assert first.trace.rtts.tolist() == second.trace.rtts.tolist()
        assert first.metrics == second.metrics
        assert first.queue_stats == second.queue_stats


def artifact_bytes(directory):
    """Every deterministic artifact of a campaign run, by name."""
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*"))
            if path.name == "manifest.json"
            or path.name.startswith("trace_")}


class TestExecutorMatrix:
    """In-process and warm-pool lease serving: one artifact set.

    The lease source is pure mechanics — both must write byte-identical
    manifests and trace CSVs, however cache hits interleaved with fresh
    cells.
    """

    def analytic_spec(self, output_dir, **kwargs):
        defaults = dict(deltas=(0.05, 0.1), seeds=(1, 2), duration=5.0,
                        scenario_kwargs={"utilization_fwd": 0.3,
                                         "utilization_rev": 0.3},
                        mode="analytic", output_dir=output_dir)
        defaults.update(kwargs)
        return CampaignSpec(**defaults)

    def test_warm_matches_serial_byte_identical(self, tmp_path):
        serial = run_campaign(self.analytic_spec(tmp_path / "serial"))
        warm = run_campaign(self.analytic_spec(tmp_path / "warm"),
                            workers=2)
        reference = artifact_bytes(tmp_path / "serial")
        assert len(reference) == 5  # manifest + 4 traces
        assert artifact_bytes(tmp_path / "warm") == reference
        assert serial.table() == warm.table()
        assert serial.dispatch_stats["pool"] == "serial"
        assert warm.dispatch_stats["pool"] == "warm"

    def test_warm_dispatch_accounting(self, tmp_path):
        # 4 cells on 2 workers: the fair share is one cell per lease.
        result = run_campaign(self.analytic_spec(tmp_path), workers=2)
        dispatch = result.dispatch_stats
        assert dispatch["pool"] == "warm"
        assert dispatch["leases"] == 4
        assert dispatch["batch_size"] == 1
        assert dispatch["salt"]  # handshake-verified closure salt

    def test_mixed_cache_hits_and_fresh_cells(self, tmp_path):
        from repro.experiments.cache import CampaignCache
        cache = CampaignCache(tmp_path / "cache")
        # Prefill half the grid (seed 1 of each delta): hits and fresh
        # cells then interleave in grid order on the full run.
        run_campaign(self.analytic_spec(None, seeds=(1,)), cache=cache)
        reference = run_campaign(self.analytic_spec(tmp_path / "plain"))
        mixed = run_campaign(self.analytic_spec(tmp_path / "mixed"),
                             workers=2, cache=cache)
        assert artifact_bytes(tmp_path / "mixed") \
            == artifact_bytes(tmp_path / "plain")
        assert mixed.cache_stats["hits"] == 2
        assert mixed.cache_stats["misses"] == 2
        assert mixed.dispatch_stats["leases"] == 2  # only the misses
        assert reference.table() == mixed.table()

    def test_event_mode_through_warm_pool(self, tmp_path):
        spec = lambda d: small_spec(deltas=(0.1,), seeds=(1, 2),
                                    duration=5.0, output_dir=d)
        run_campaign(spec(tmp_path / "serial"))
        run_campaign(spec(tmp_path / "warm"), workers=2)
        assert artifact_bytes(tmp_path / "warm") \
            == artifact_bytes(tmp_path / "serial")

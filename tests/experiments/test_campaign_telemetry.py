"""Campaign telemetry: spans/progress must never perturb the results.

The zero-perturbation invariant (DESIGN.md), extended to campaign
telemetry: a same-seed campaign with spans and progress enabled produces
byte-identical ``manifest.json``, summary tables, and per-cell trace CSVs
versus one with telemetry off.  Wall-clock data is quarantined in the
span directory and the ``timing.json`` sidecar.
"""

import io
import json

from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.obs.progress import ProgressReporter
from repro.obs.spans import (
    CHROME_SPAN_FILE,
    MERGED_SPAN_FILE,
    PHASE_ANALYSIS,
    PHASE_CAMPAIGN,
    PHASE_CELL,
    PHASE_LEASE,
    PHASE_MERGE,
    PHASE_SETUP,
    PHASE_SIM,
    SpanRecord,
)


def read_json(path):
    return json.loads(path.read_text())


def read_spans(path):
    """The span records of a ``spans.jsonl`` file."""
    return [SpanRecord(**json.loads(line))
            for line in path.read_text().splitlines()]


def grid_spec(output_dir, **kwargs):
    defaults = dict(deltas=(0.1, 0.2), seeds=(1, 2), duration=5.0,
                    scenario_kwargs={"utilization_fwd": 0.3,
                                     "utilization_rev": 0.3},
                    output_dir=output_dir)
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


def quiet_reporter(total=4, workers=2):
    return ProgressReporter(total=total, workers=workers,
                            stream=io.StringIO())


class TestZeroPerturbation:
    def test_telemetry_on_is_byte_identical_to_off(self, tmp_path):
        """Acceptance criterion: spans+progress change no deterministic
        artifact — not the manifest, not the tables, not one trace CSV."""
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        plain = run_campaign(grid_spec(plain_dir), workers=1)
        traced = run_campaign(grid_spec(traced_dir), workers=2,
                              spans=True, progress=quiet_reporter())

        assert plain.table() == traced.table()
        assert plain.queue_table() == traced.queue_table()
        assert (plain_dir / "manifest.json").read_bytes() \
            == (traced_dir / "manifest.json").read_bytes()
        names = sorted(p.name for p in plain_dir.glob("trace_*.csv"))
        assert names == sorted(p.name
                               for p in traced_dir.glob("trace_*.csv"))
        assert len(names) == 4
        for name in names:
            assert (plain_dir / name).read_bytes() \
                == (traced_dir / name).read_bytes(), name

    def test_span_artifacts_quarantined_outside_manifest(self, tmp_path):
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1,)),
                     spans=True)
        manifest = (tmp_path / "manifest.json").read_text()
        assert "span" not in manifest
        timing = read_json(tmp_path / "timing.json")
        assert "spans" in timing


class TestSpanRecording:
    def test_merged_spans_cover_every_phase(self, tmp_path):
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1, 2)),
                     workers=2, spans=True)
        span_dir = tmp_path / "spans"
        merged = read_spans(span_dir / MERGED_SPAN_FILE)
        phases = {span.phase for span in merged}
        assert {PHASE_CAMPAIGN, PHASE_CELL, PHASE_SETUP, PHASE_SIM,
                PHASE_ANALYSIS, PHASE_MERGE} <= phases
        cells = {span.cell for span in merged if span.phase == PHASE_CELL}
        assert cells == {"d100_s1", "d100_s2"}
        # Grid order, not completion order: s1's spans precede s2's.
        cell_sequence = [span.cell for span in merged if span.cell]
        assert cell_sequence == sorted(cell_sequence)

    def test_worker_files_cleaned_after_merge(self, tmp_path):
        # Worker spans travel back in the lease payloads: the span
        # directory ends up holding the two merged files and nothing else.
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1,)),
                     workers=2, spans=True)
        span_dir = tmp_path / "spans"
        assert sorted(p.name for p in span_dir.iterdir()) \
            == sorted([CHROME_SPAN_FILE, MERGED_SPAN_FILE])

    def test_concurrent_campaign_sharing_span_dir_loses_nothing(
            self, tmp_path):
        # A second campaign writing to the same span directory while the
        # first is still running must not take the first one's spans.
        span_dir = tmp_path / "shared-spans"

        class NestedCampaign(ProgressReporter):
            nested = False

            def cell_done(self, key, wall_seconds=0.0):
                super().cell_done(key, wall_seconds)
                if not self.nested:
                    self.nested = True
                    run_campaign(grid_spec(None, deltas=(0.1,), seeds=(7,)),
                                 spans=span_dir)

        reporter = NestedCampaign(total=2, workers=1, stream=io.StringIO())
        run_campaign(grid_spec(None, deltas=(0.1,), seeds=(1, 2)),
                     workers=1, spans=span_dir,
                     progress=reporter)
        assert reporter.nested
        merged = read_spans(span_dir / MERGED_SPAN_FILE)
        cells = sorted(span.cell for span in merged
                       if span.phase == PHASE_CELL)
        assert cells == ["d100_s1", "d100_s2"]

    def test_chrome_trace_written_for_campaign(self, tmp_path):
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1,)),
                     spans=True)
        trace = read_json(tmp_path / "spans" / CHROME_SPAN_FILE)
        rows = trace["traceEvents"]
        assert rows
        assert all(row["cat"] == "span" and row["ph"] == "X"
                   for row in rows)
        assert any(row["args"]["phase"] == PHASE_SIM for row in rows)

    def test_explicit_span_dir_without_output_dir(self, tmp_path):
        span_dir = tmp_path / "just-spans"
        run_campaign(grid_spec(None, deltas=(0.1,), seeds=(1,)),
                     spans=span_dir)
        assert (span_dir / MERGED_SPAN_FILE).exists()

    def test_stale_worker_files_ignored(self, tmp_path):
        # A crashed earlier run leaves worker files behind; a new run
        # must not merge those foreign records into its own log.
        span_dir = tmp_path / "spans"
        span_dir.mkdir(parents=True)
        stale = SpanRecord(name="stale", phase="cell", start=1.0,
                           duration=1.0, pid=999, worker="w999",
                           cell="d999_s9")
        (span_dir / "spans-w999.jsonl").write_text(
            json.dumps(stale._asdict(), sort_keys=True) + "\n")
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1,)),
                     spans=True)
        merged = read_spans(span_dir / MERGED_SPAN_FILE)
        assert all(span.name != "stale" for span in merged)

    def test_spans_off_touches_nothing(self, tmp_path):
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1,)))
        assert not (tmp_path / "spans").exists()

    def test_timing_summary_aggregates_phases(self, tmp_path):
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1, 2)),
                     spans=True)
        summary = read_json(tmp_path / "timing.json")["spans"]
        assert summary[PHASE_CELL]["count"] == 2
        assert summary[PHASE_SIM]["count"] == 2
        assert summary[PHASE_CAMPAIGN]["count"] == 1
        assert summary[PHASE_SIM]["total_seconds"] > 0

    def test_lease_spans_serial_and_warm(self, tmp_path):
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            run_campaign(grid_spec(out, deltas=(0.1,), seeds=(1, 2)),
                         workers=workers, spans=True)
            merged = read_spans(out / "spans" / MERGED_SPAN_FILE)
            names = sorted(span.name for span in merged
                           if span.phase == PHASE_LEASE)
            # Both sides of every lease are timed: serving it (in this
            # process or a worker) and the parent folding its cells.
            assert names == ["lease 0", "lease 0 collect",
                             "lease 1", "lease 1 collect"], workers


class TestDispatchTelemetry:
    def test_timing_records_dispatch_block(self, tmp_path):
        run_campaign(grid_spec(tmp_path), workers=2)
        dispatch = read_json(tmp_path / "timing.json")["dispatch"]
        assert dispatch["pool"] == "warm"
        assert dispatch["workers"] == 2
        assert dispatch["leases"] > 0
        assert dispatch["batch_size"] >= 1

    def test_serial_dispatch_block(self, tmp_path):
        run_campaign(grid_spec(tmp_path, deltas=(0.1,), seeds=(1,)))
        dispatch = read_json(tmp_path / "timing.json")["dispatch"]
        assert dispatch == {"pool": "serial", "workers": 1, "leases": 1,
                            "batch_size": 1,
                            "replay_hits": 0, "replay_misses": 0}

    def test_dispatch_quarantined_outside_manifest(self, tmp_path):
        run_campaign(grid_spec(tmp_path), workers=2)
        manifest = (tmp_path / "manifest.json").read_text()
        for word in ("dispatch", "lease", "shm", "pool"):
            assert word not in manifest


class TestProgressFeed:
    def test_reporter_sees_every_cell(self, tmp_path):
        reporter = quiet_reporter(total=4, workers=2)
        run_campaign(grid_spec(None), workers=2, progress=reporter)
        assert reporter.done == 4
        assert reporter.cached == 0
        assert reporter.busy_seconds > 0
        output = reporter.stream.getvalue()
        assert "campaign 4/4 cells" in output
        assert output.endswith("\n")  # finished line

    def test_cache_hits_reported_separately(self, tmp_path):
        from repro.experiments.cache import CampaignCache
        cache = CampaignCache(tmp_path / "cache")
        spec = grid_spec(None, deltas=(0.1,), seeds=(1, 2))
        run_campaign(spec, cache=cache)  # cold fill
        reporter = quiet_reporter(total=2, workers=1)
        run_campaign(spec, cache=cache, progress=reporter)
        assert reporter.done == 2
        assert reporter.cached == 2

    def test_progress_off_by_default_writes_nothing(self, capsys):
        run_campaign(grid_spec(None, deltas=(0.1,), seeds=(1,)))
        captured = capsys.readouterr()
        assert captured.err == ""

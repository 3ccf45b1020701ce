"""Progress reporter: counters, ETA, rendering, TTY resolution."""

import io

import pytest

from repro.errors import ConfigurationError
from repro.obs.progress import ProgressReporter, resolve_progress


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TTYBuffer(io.StringIO):
    def isatty(self):
        return True


def reporter(total=8, workers=4, clock=None):
    return ProgressReporter(total=total, workers=workers,
                            stream=io.StringIO(),
                            clock=clock or FakeClock())


class TestCounters:
    def test_done_and_cached_accounting(self):
        progress = reporter()
        progress.start()
        progress.cell_cached("d50_s1")
        progress.cell_done("d50_s2", wall_seconds=2.0)
        assert progress.done == 2
        assert progress.cached == 1
        assert progress.busy_seconds == 2.0

    def test_negative_wall_seconds_clamped(self):
        progress = reporter()
        progress.cell_done("k", wall_seconds=-1.0)
        assert progress.busy_seconds == 0.0

    def test_elapsed_zero_before_start(self):
        assert reporter().elapsed() == 0.0

    def test_elapsed_follows_clock(self):
        clock = FakeClock()
        progress = reporter(clock=clock)
        progress.start()
        clock.advance(12.5)
        assert progress.elapsed() == pytest.approx(12.5)


class TestDerived:
    def test_utilization(self):
        clock = FakeClock()
        progress = reporter(workers=2, clock=clock)
        progress.start()
        clock.advance(10.0)
        progress.cell_done("a", wall_seconds=15.0)
        # 15s of work over 10s * 2 workers = 75% busy.
        assert progress.utilization() == pytest.approx(0.75)

    def test_utilization_unknown_when_only_cache_hits(self):
        clock = FakeClock()
        progress = reporter(clock=clock)
        progress.start()
        clock.advance(1.0)
        progress.cell_cached("a")
        assert progress.utilization() is None

    def test_utilization_capped_at_one(self):
        clock = FakeClock()
        progress = reporter(workers=1, clock=clock)
        progress.start()
        clock.advance(1.0)
        progress.cell_done("a", wall_seconds=50.0)
        assert progress.utilization() == 1.0

    def test_eta_from_mean_cell_cost(self):
        progress = reporter(total=8, workers=2)
        progress.start()
        progress.cell_done("a", wall_seconds=4.0)
        progress.cell_done("b", wall_seconds=6.0)
        # 6 cells left at 5s mean over 2 workers.
        assert progress.eta_seconds() == pytest.approx(15.0)

    def test_eta_unknown_without_simulated_cells(self):
        progress = reporter(total=4)
        progress.start()
        progress.cell_cached("a")
        assert progress.eta_seconds() is None

    def test_eta_none_when_grid_complete(self):
        progress = reporter(total=1)
        progress.start()
        progress.cell_done("a", wall_seconds=1.0)
        assert progress.eta_seconds() is None


class TestEtaCacheSkew:
    """Cache hits must not skew the ETA (regression).

    A burst of near-instant cache hits used to be a risk for the
    projected finish time: folding their (historical) wall cost or their
    count into the mean simulated-cell cost craters the estimate.  Hits
    are accounted on a separate ``saved_seconds`` channel instead.
    """

    def test_eta_unchanged_by_interleaved_cache_hits(self):
        clock = FakeClock()
        fresh_only = reporter(total=16, workers=2, clock=clock)
        fresh_only.start()
        mixed = reporter(total=16, workers=2, clock=clock)
        mixed.start()
        for i in range(4):
            fresh_only.cell_done(f"f{i}", wall_seconds=4.0)
            mixed.cell_done(f"f{i}", wall_seconds=4.0)
            # The mixed run additionally resolves hits carrying large
            # historical wall costs between every simulated cell.
            mixed.cell_cached(f"c{i}", saved_seconds=100.0)
        remaining_penalty = fresh_only.eta_seconds() - mixed.eta_seconds()
        # Same mean (4.0s over 2 workers); the mixed run just has 4
        # fewer cells left, so its ETA is exactly 4 cells shorter.
        assert fresh_only.eta_seconds() == pytest.approx(4 * 4.0 / 2 + 16.0)
        assert remaining_penalty == pytest.approx(4 * 4.0 / 2)
        assert mixed.saved_seconds == pytest.approx(400.0)
        assert mixed.busy_seconds == pytest.approx(16.0)

    def test_saved_seconds_clamped_nonnegative(self):
        progress = reporter()
        progress.cell_cached("a", saved_seconds=-3.0)
        assert progress.saved_seconds == 0.0

    def test_render_reports_saved_time_separately(self):
        clock = FakeClock()
        progress = reporter(total=4, clock=clock)
        progress.start()
        progress.cell_cached("a", saved_seconds=12.25)
        line = progress.render()
        assert "1 cached (saved 12.2s)" in line

    def test_render_omits_saved_time_when_zero(self):
        progress = reporter(total=4)
        progress.start()
        progress.cell_cached("a")
        assert "saved" not in progress.render()


class TestRendering:
    def test_render_full_line(self):
        clock = FakeClock()
        progress = reporter(total=8, workers=4, clock=clock)
        progress.start()
        clock.advance(10.0)
        progress.cell_cached("a")
        progress.cell_done("b", wall_seconds=20.0)
        line = progress.render()
        assert line.startswith("campaign 2/8 cells")
        assert "1 cached" in line
        assert "4 workers 50% busy" in line
        assert "10.0s elapsed" in line
        assert "s left" in line

    def test_render_singular_worker(self):
        assert "1 worker" in reporter(workers=1).render()
        assert "1 workers" not in reporter(workers=1).render()

    def test_draw_uses_carriage_return_and_padding(self):
        progress = reporter()
        progress.start()
        output = progress.stream.getvalue()
        assert output.startswith("\r")
        assert len(output) == 1 + 78

    def test_finish_terminates_line_once(self):
        progress = reporter()
        progress.start()
        progress.finish()
        progress.finish()
        progress.cell_done("ignored")
        assert progress.stream.getvalue().count("\n") == 1


class TestResolveProgress:
    def test_off_values(self):
        for request in (None, False, "off"):
            assert resolve_progress(request, total=4, workers=1) is None

    def test_existing_reporter_passes_through(self):
        existing = reporter()
        assert resolve_progress(existing, total=4, workers=1) is existing

    def test_auto_needs_a_tty(self):
        assert resolve_progress("auto", total=4, workers=1,
                                stream=io.StringIO()) is None
        assert resolve_progress(True, total=4, workers=1,
                                stream=io.StringIO()) is None

    def test_auto_on_a_tty(self):
        resolved = resolve_progress("auto", total=4, workers=2,
                                    stream=TTYBuffer())
        assert isinstance(resolved, ProgressReporter)
        assert resolved.total == 4
        assert resolved.workers == 2

    def test_on_forces_reporter_without_tty(self):
        resolved = resolve_progress("on", total=4, workers=1,
                                    stream=io.StringIO())
        assert isinstance(resolved, ProgressReporter)

    def test_unknown_request_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_progress("loud", total=4, workers=1)

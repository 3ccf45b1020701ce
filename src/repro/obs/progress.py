"""Live campaign progress: cells done, cache hits, utilization, ETA.

A :class:`ProgressReporter` is fed by the campaign loop as cells resolve —
:meth:`cell_cached` for cache hits, :meth:`cell_done` for simulated cells —
and redraws a single status line on its stream::

    campaign 5/8 cells | 2 cached | 4 workers 87% busy | 12.3s elapsed, ~8s left

It is pure presentation: it reads the same completion events that become
span records and writes only to its stream (stderr by default), so turning
it on cannot change any deterministic artifact.  The CLI resolves the
``--progress/--no-progress`` flags through :func:`resolve_progress`, which
auto-disables the reporter when the stream is not a TTY (piped/CI output
stays clean); libraries get no reporter unless they ask for one.

Timing uses the host's monotonic clock; like every number here it is
execution telemetry and never feeds simulated time.
"""

from __future__ import annotations

import sys
from time import monotonic
from typing import IO, Callable, Optional, Union

from repro.errors import ConfigurationError

#: Width the status line is padded to so redraws fully cover each other.
_LINE_WIDTH = 78


class ProgressReporter:
    """Single-line live progress for a (δ × seed) campaign grid.

    Parameters
    ----------
    total:
        Number of cells in the grid.
    workers:
        Worker processes executing the grid (drives the ETA and the
        utilization estimate).
    stream:
        Where to draw (default ``sys.stderr``).  The reporter writes
        carriage-return redraws, so give it a terminal or a test buffer —
        :func:`resolve_progress` handles the "is this a TTY" decision.
    clock:
        Injectable monotonic clock, seconds (tests pin it).
    """

    def __init__(self, total: int, workers: int = 1,
                 stream: Optional[IO[str]] = None,
                 clock: Callable[[], float] = monotonic) -> None:
        self.total = int(total)
        self.workers = max(1, int(workers))
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.done = 0
        self.cached = 0
        self.busy_seconds = 0.0
        #: Worker seconds the cache saved (the hits' recorded cell costs).
        #: Kept strictly apart from ``busy_seconds``: saved time was never
        #: spent this run, so it must not enter the ETA mean — a burst of
        #: near-instant cache hits would otherwise crater the per-cell
        #: estimate and project an absurdly optimistic finish.
        self.saved_seconds = 0.0
        self._started: Optional[float] = None
        self._finished = False

    # ------------------------------------------------------------------
    # Event feed (called by the campaign loop)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark the campaign as running and draw the first line."""
        if self._started is None:
            self._started = self.clock()
        self._draw()

    def cell_cached(self, key: str, saved_seconds: float = 0.0) -> None:
        """One cell was answered from the cell cache.

        ``saved_seconds`` is the cell's originally recorded wall cost —
        reported separately as time the cache saved, never folded into
        the busy/ETA accounting.
        """
        self.done += 1
        self.cached += 1
        self.saved_seconds += max(0.0, saved_seconds)
        self._draw()

    def cell_done(self, key: str, wall_seconds: float = 0.0) -> None:
        """One cell was simulated (``wall_seconds`` of worker time)."""
        self.done += 1
        self.busy_seconds += max(0.0, wall_seconds)
        self._draw()

    def finish(self) -> None:
        """Complete the line; further events are ignored."""
        if self._finished:
            return
        self._draw()
        self.stream.write("\n")
        self.stream.flush()
        self._finished = True

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Wall seconds since :meth:`start` (0 before it)."""
        if self._started is None:
            return 0.0
        return max(0.0, self.clock() - self._started)

    def utilization(self) -> Optional[float]:
        """Fraction of worker capacity spent simulating, when known."""
        elapsed = self.elapsed()
        if elapsed <= 0 or self.done <= self.cached:
            return None
        return min(1.0, self.busy_seconds / (elapsed * self.workers))

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to finish, from mean *simulated*-cell cost.

        Cache hits are excluded from the mean on both sides of the
        division (their count and their saved wall time), so a hit-heavy
        prefix cannot skew the projection for the cells still to run.
        """
        simulated = self.done - self.cached
        remaining = self.total - self.done
        if remaining <= 0 or simulated <= 0 or self.busy_seconds <= 0:
            return None
        mean_cell = self.busy_seconds / simulated
        return remaining * mean_cell / self.workers

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The current status line (without the carriage return)."""
        parts = [f"campaign {self.done}/{self.total} cells"]
        if self.cached:
            cached_text = f"{self.cached} cached"
            if self.saved_seconds > 0:
                # Time the cache saved — shown apart from elapsed/ETA,
                # which count only this run's spent time.
                cached_text += f" (saved {self.saved_seconds:.1f}s)"
            parts.append(cached_text)
        worker_text = f"{self.workers} worker" \
            + ("s" if self.workers != 1 else "")
        utilization = self.utilization()
        if utilization is not None:
            worker_text += f" {utilization * 100:.0f}% busy"
        parts.append(worker_text)
        timing = f"{self.elapsed():.1f}s elapsed"
        eta = self.eta_seconds()
        if eta is not None:
            timing += f", ~{eta:.0f}s left"
        parts.append(timing)
        return " | ".join(parts)

    def _draw(self) -> None:
        if self._finished:
            return
        line = self.render()
        self.stream.write("\r" + line.ljust(_LINE_WIDTH)[:_LINE_WIDTH])
        self.stream.flush()


#: What ``run_campaign(progress=...)`` accepts.
ProgressLike = Union[None, bool, str, ProgressReporter]


def resolve_progress(progress: ProgressLike, total: int, workers: int,
                     stream: Optional[IO[str]] = None,
                     ) -> Optional[ProgressReporter]:
    """Coerce a progress request into a reporter (or None = silent).

    * ``None``/``False``/``"off"`` — no reporter (the library default:
      telemetry is opt-in).
    * ``True``/``"auto"`` — a reporter only when the stream is a TTY, so
      piped and CI output stays machine-readable.
    * ``"on"`` — a reporter unconditionally (the CLI's ``--progress``).
    * an existing :class:`ProgressReporter` — used as-is.
    """
    if progress is None or progress is False or progress == "off":
        return None
    if isinstance(progress, ProgressReporter):
        return progress
    target = stream if stream is not None else sys.stderr
    if progress is True or progress == "auto":
        if not _is_tty(target):
            return None
        return ProgressReporter(total=total, workers=workers, stream=target)
    if progress == "on":
        return ProgressReporter(total=total, workers=workers, stream=target)
    raise ConfigurationError(f"unsupported progress request {progress!r}")


def _is_tty(stream: IO[str]) -> bool:
    isatty = getattr(stream, "isatty", None)
    if isatty is None:
        return False
    try:
        return bool(isatty())
    except (OSError, ValueError):
        return False

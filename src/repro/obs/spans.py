"""Hierarchical wall-clock spans: where a campaign's host time goes.

A :class:`SpanTracer` records nested *spans* — named intervals of host
wall-clock time, each tagged with a phase (``campaign``, ``cell``,
``setup``, ``sim``, ``analysis``, ``cache``, ``merge``, ``lease``) and,
for per-cell work, the cell key it belongs to.  Every campaign lease
(:func:`repro.experiments.pool._serve_lease`) times its cells' phases with
one tracer, and its records travel back in the lease's payload; the
parent merges them with its own orchestration spans in grid order
(:func:`merge_spans`), summarizes phase totals into the ``timing.json``
sidecar (:func:`summarize_spans`), and exports the whole campaign as one
Chrome ``trace_event`` flame graph
(:func:`repro.obs.export.write_chrome_trace` with ``spans=``) — one lane
per worker process, nesting by containment.

Spans are **execution telemetry**, in the same class as the
``timing.json`` sidecar: wall clocks are inherently non-deterministic, so
span records live in their own files and the sidecar, never in
``manifest.json``, summary tables, or trace CSVs — enabling spans leaves
every deterministic artifact byte-identical (DESIGN.md's
zero-perturbation invariant, extended to campaign telemetry).  With spans
disabled no tracer exists and no file is touched.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import ContextManager, Dict, Iterator, List, NamedTuple, \
    Optional, Sequence, Union

# Host-side telemetry needs an epoch clock so spans recorded by different
# worker processes land on one comparable timeline.  The timestamps are
# quarantined in span files / timing.json and never feed simulated time
# (the byte-identity tests in tests/experiments enforce this); the call
# sites below carry the matching DET001/FLOW001 suppressions.
from time import time as _wall_clock

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

#: Phase vocabulary (free-form strings are allowed; these are the ones the
#: campaign emits and the timing.json summary groups by).
PHASE_CAMPAIGN = "campaign"
PHASE_CELL = "cell"
PHASE_SETUP = "setup"
PHASE_SIM = "sim"
PHASE_ANALYSIS = "analysis"
PHASE_CACHE = "cache"
PHASE_MERGE = "merge"
#: Lease pipeline: serving one lease batch, and the parent folding it.
PHASE_LEASE = "lease"
#: Analytic fast-forward cross-traffic replay: building one seed's
#: CrossReplay streams (memo misses only; hits cost no span).
PHASE_REPLAY = "replay"

#: The parent's merged, grid-ordered span log.
MERGED_SPAN_FILE = "spans.jsonl"
#: The parent's Chrome trace_event export of the merged spans.
CHROME_SPAN_FILE = "trace.json"


class SpanRecord(NamedTuple):
    """One completed span: a named wall-clock interval with context.

    An immutable tuple (campaigns record a handful per cell);
    ``_asdict()`` is its JSONL row.

    Attributes
    ----------
    name:
        Human-readable label (``"cell d50_s1"``, ``"sim"``, ...).
    phase:
        Phase tag grouping spans of the same kind across cells
        (``PHASE_SIM``, ``PHASE_CACHE``, ...).
    start:
        Wall-clock start, seconds since the epoch (comparable across
        processes on one host).
    duration:
        Wall-clock length, seconds.
    pid:
        Operating-system process id of the recorder (one flame-graph lane
        per worker process).
    worker:
        Recorder label (``"main"`` for the campaign parent, ``"w<pid>"``
        for pool workers).
    cell:
        Cell key (``"d50_s1"``) for per-cell spans, ``""`` for
        campaign-level ones.
    depth:
        Nesting depth at entry (0 = top-level span of its tracer).
    """

    name: str
    phase: str
    start: float
    duration: float
    pid: int
    worker: str
    cell: str = ""
    depth: int = 0


class SpanTracer:
    """Records nested spans for one process.

    Spans open with the :meth:`span` context manager; nesting is tracked
    with a stack, so a child span inherits the enclosing span's cell key
    unless it names its own.  Records are appended on span *exit* (a
    crashed span never produces a half-record).

    Examples
    --------
    >>> tracer = SpanTracer(worker="main")
    >>> with tracer.span("cell d50_s1", phase="cell", cell="d50_s1"):
    ...     with tracer.span("sim", phase="sim"):
    ...         pass
    >>> [(s.name, s.depth, s.cell) for s in tracer.records]
    [('sim', 1, 'd50_s1'), ('cell d50_s1', 0, 'd50_s1')]
    """

    def __init__(self, worker: Optional[str] = None) -> None:
        self.pid = os.getpid()
        self.worker = worker if worker is not None else f"w{self.pid}"
        self.records: List[SpanRecord] = []
        self._cell_stack: List[str] = []

    @contextmanager
    def span(self, name: str, phase: str = "",
             cell: str = "") -> Iterator[None]:
        """Time one named interval; records on exit, even on error."""
        effective_cell = cell or (self._cell_stack[-1]
                                  if self._cell_stack else "")
        depth = len(self._cell_stack)
        self._cell_stack.append(effective_cell)
        started = _wall_clock()  # repro: noqa[DET001,FLOW001]
        try:
            yield
        finally:
            self._cell_stack.pop()
            self.records.append(SpanRecord(
                name=name, phase=phase, start=started,
                duration=_wall_clock() - started,  # repro: noqa[DET001,FLOW001]
                pid=self.pid,
                worker=self.worker, cell=effective_cell, depth=depth))

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (f"<SpanTracer {self.worker} pid={self.pid} "
                f"{len(self.records)} spans>")


def optional_span(tracer: Optional[SpanTracer], name: str, phase: str,
                  cell: str = "") -> ContextManager[None]:
    """``tracer.span(...)``, or a no-op context when telemetry is off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, phase=phase, cell=cell)


# ----------------------------------------------------------------------
# The parent-side merge
# ----------------------------------------------------------------------
def merge_spans(records: Sequence[SpanRecord],
                grid_keys: Sequence[str]) -> List[SpanRecord]:
    """Order spans the way the campaign is defined, not the way it ran.

    Campaign-level spans (no cell key) come first by start time; per-cell
    spans follow in *grid* order — the (δ, seed) order of the spec, which
    is stable across worker counts, completion order, and cache hits —
    each cell's spans innermost-first is not needed, so within a cell
    records sort by (start, depth).  Cells not in ``grid_keys`` (foreign
    records) sort after the grid, by key.
    """
    order: Dict[str, int] = {key: index
                             for index, key in enumerate(grid_keys)}

    def sort_key(record: SpanRecord) -> tuple:
        if not record.cell:
            return (0, 0, "", record.start, record.depth)
        rank = order.get(record.cell)
        if rank is None:
            return (2, 0, record.cell, record.start, record.depth)
        return (1, rank, "", record.start, record.depth)

    return sorted(records, key=sort_key)


def summarize_spans(records: Sequence[SpanRecord]) -> Dict[str, dict]:
    """Per-phase aggregate for the ``timing.json`` sidecar.

    Returns ``{phase: {"count", "total_seconds", "max_seconds"}}`` with
    phases sorted by name; unlabeled phases group under ``"other"``.
    """
    phases: Dict[str, Dict[str, float]] = {}
    for record in records:
        phase = record.phase or "other"
        entry = phases.setdefault(phase, {"count": 0, "total_seconds": 0.0,
                                          "max_seconds": 0.0})
        entry["count"] += 1
        entry["total_seconds"] += record.duration
        if record.duration > entry["max_seconds"]:
            entry["max_seconds"] = record.duration
    return {phase: phases[phase] for phase in sorted(phases)}


def resolve_span_dir(spans: Union[bool, PathLike, None],
                     output_dir: Optional[PathLike]) -> Optional[Path]:
    """Where span telemetry goes, or None when disabled.

    ``spans=True`` places the span directory next to the campaign's
    deterministic artifacts (``<output_dir>/spans``) — so it needs an
    output directory; an explicit path is used as-is.
    """
    if spans is None or spans is False:
        return None
    if spans is True:
        if output_dir is None:
            raise ConfigurationError(
                "spans=True needs an output_dir to place the span "
                "directory in; pass an explicit span directory instead")
        return Path(output_dir) / "spans"
    return Path(spans)

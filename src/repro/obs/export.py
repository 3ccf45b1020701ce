"""Exporters for observability data: JSONL and Chrome ``trace_event``.

JSONL (one JSON object per line) is the machine-readable interchange format
for event, hop and span records: each row is the record's ``as_dict()``, so
any JSON reader loads them back (no reader ships here).

:func:`write_chrome_trace` emits the Chrome ``trace_event`` JSON format
(the ``chrome://tracing`` / Perfetto ``traceEvents`` array), laying the
simulation out on its *simulated* clock: each kernel event becomes a
complete ("X") slice at ``ts = sim time (µs)`` whose ``dur`` is the
callback's wall-clock cost in µs — so wide slices are expensive callbacks —
and each packet-lifecycle milestone becomes an instant ("i") event on a
per-place track.  Load the file in any trace viewer to scrub through the
run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.obs.lifecycle import HopRecord
from repro.obs.spans import SpanRecord
from repro.obs.tracer import EventRecord, KernelTracer
from repro.units import seconds_to_us

PathLike = Union[str, Path]


def _open_for_write(path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_events_jsonl(records: Iterable[EventRecord],
                       path: PathLike) -> int:
    """Write kernel event records as JSONL; returns the row count."""
    path = _open_for_write(path)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def write_hops_jsonl(records: Iterable[HopRecord], path: PathLike) -> int:
    """Write packet-lifecycle hop records as JSONL; returns the row count."""
    path = _open_for_write(path)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def write_spans_jsonl(records: Iterable[SpanRecord], path: PathLike) -> int:
    """Write wall-clock span records as JSONL; returns the row count."""
    path = _open_for_write(path)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
            count += 1
    return count


def write_profiles_json(tracer: KernelTracer, path: PathLike) -> None:
    """Write a tracer's per-label profiles as one JSON document."""
    path = _open_for_write(path)
    document = {
        "events_seen": tracer.events_seen,
        "total_wall_seconds": tracer.total_wall_seconds,
        "events_per_wall_second": tracer.events_per_wall_second(),
        "profiles": [profile.as_dict() for profile in tracer.profiles()],
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def write_chrome_trace(path: PathLike,
                       events: Optional[Iterable[EventRecord]] = None,
                       hops: Optional[Iterable[HopRecord]] = None,
                       spans: Optional[Iterable[SpanRecord]] = None) -> int:
    """Write a Chrome ``trace_event`` file; returns the trace-event count.

    Kernel events land on the ``kernel`` track as complete slices
    (``ts`` = simulated µs, ``dur`` = wall-clock µs — slice width shows
    host cost).  Hop records land as instant events on one track per
    place, so a packet's path reads left to right across the tracks.
    Campaign spans land as complete slices on one lane per worker process
    (``pid`` = recording process, ``tid`` = worker label) on a *wall*
    clock normalized to the earliest span — a whole campaign renders as
    one flame graph of its host-time phases.
    """
    trace_events: List[dict] = []
    for record in (events or ()):
        trace_events.append({
            "name": record.label or "<unlabelled>",
            "cat": "kernel",
            "ph": "X",
            "ts": seconds_to_us(record.time),
            "dur": seconds_to_us(record.wall_seconds),
            "pid": 0,
            "tid": "kernel",
            "args": {"priority": record.priority},
        })
    for hop in (hops or ()):
        trace_events.append({
            "name": f"{hop.event} #{hop.uid}",
            "cat": "packet",
            "ph": "i",
            "ts": seconds_to_us(hop.time),
            "s": "t",
            "pid": 0,
            "tid": hop.place,
            "args": hop.as_dict(),
        })
    span_records = list(spans) if spans is not None else []
    if span_records:
        t0 = min(record.start for record in span_records)
        for record in span_records:
            trace_events.append({
                "name": record.name or "<unnamed>",
                "cat": "span",
                "ph": "X",
                "ts": seconds_to_us(record.start - t0),
                "dur": seconds_to_us(record.duration),
                "pid": record.pid,
                "tid": record.worker,
                "args": {"phase": record.phase, "cell": record.cell,
                         "depth": record.depth},
            })
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    path = _open_for_write(path)
    path.write_text(json.dumps(document))
    return len(trace_events)

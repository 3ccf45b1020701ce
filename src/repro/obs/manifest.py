"""Run manifests: everything needed to explain (and re-run) one experiment.

A manifest is a single JSON document recording the experiment configuration,
the master seed, the software versions the run was produced with, and the
metrics snapshot at the end of the run.  Campaigns write one next to their
trace CSVs (``manifest.json``), so any saved figure can be traced back to
the exact configuration and substrate state that produced it.

No wall-clock timestamp is recorded on purpose: manifests are part of the
deterministic artifact set, and two same-seed runs should produce
byte-identical manifests (DESIGN.md's determinism invariant).
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy

import repro

#: Manifest schema version; bump on incompatible layout changes.
MANIFEST_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of config values into JSON-safe types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def build_manifest(config: Any = None, seed: Optional[int] = None,
                   metrics: Optional[Dict[str, Any]] = None,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble a manifest dict.

    Parameters
    ----------
    config:
        The experiment/campaign configuration (dataclasses serialize
        field-by-field; anything else is stored via ``repr``).
    seed:
        Master seed, when not already part of ``config``.
    metrics:
        A :meth:`repro.obs.registry.MetricsRegistry.snapshot` dict.
    extra:
        Free-form additions (trace file names, scenario notes, ...).
    """
    manifest: Dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "versions": {
            "repro": repro.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
    }
    if config is not None:
        manifest["config"] = _jsonable(config)
    if seed is not None:
        manifest["seed"] = seed
    if metrics is not None:
        manifest["metrics"] = metrics
    if extra:
        manifest["extra"] = _jsonable(extra)
    return manifest


def write_manifest(path: Union[str, Path], config: Any = None,
                   seed: Optional[int] = None,
                   metrics: Optional[Dict[str, Any]] = None,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build a manifest and write it as pretty-printed JSON.

    Returns the manifest dict that was written.
    """
    manifest = build_manifest(config=config, seed=seed, metrics=metrics,
                              extra=extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def write_timing(path: Union[str, Path], workers: int,
                 cell_wall_seconds: Dict[str, float],
                 cache: Optional[Dict[str, Any]] = None,
                 spans: Optional[Dict[str, Any]] = None,
                 dispatch: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Write the execution-timing sidecar of a campaign run.

    Wall-clock timings are inherently non-deterministic, so they live in
    their own file (``timing.json``) next to ``manifest.json`` rather than
    inside it: the manifest stays byte-identical across same-seed runs and
    across serial vs. parallel execution (DESIGN.md's determinism
    invariant), while the sidecar records how the run was executed —
    worker count, per-cell wall seconds, (when a cell cache was in
    play) the ``cache`` block: hits/misses, byte volumes, and the per-cell
    hit-or-miss map, (when span telemetry was enabled) the ``spans``
    block: per-phase counts and wall totals from
    :func:`repro.obs.spans.summarize_spans`, and the ``dispatch`` block:
    where the leases were served (``serial``: in the campaign process;
    ``warm``: on the worker pool), lease count and batch size, and the
    replay-memo hits and misses.  Cache behaviour, span telemetry, and dispatch mechanics are
    execution mechanics, which is exactly why they belong here and never
    in the manifest.

    Returns the document that was written.
    """
    document: Dict[str, Any] = {
        "workers": int(workers),
        "cell_wall_seconds": {key: float(value)
                              for key, value in cell_wall_seconds.items()},
        "total_cell_seconds": float(sum(cell_wall_seconds.values())),
    }
    if cache is not None:
        document["cache"] = cache
    if spans is not None:
        document["spans"] = spans
    if dispatch is not None:
        document["dispatch"] = dispatch
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document

"""Schema-versioned benchmark reports and regression comparison.

Every benchmark suite under ``benchmarks/`` writes its numbers through one
shared document shape (``BENCH_<suite>.json``)::

    {
      "schema": "repro-bench",
      "schema_version": 1,
      "suite": "kernel",
      "mode": "full",
      "metrics": {
        "event_loop_events_per_second":
            {"value": 269000.0, "unit": "events/s", "direction": "higher"},
        ...
      },
      "machine": {"platform": ..., "python": ..., "cpu_count": ...},
      "salt": "repro-cell-v3-<digest>",
      "details": { ... suite-specific raw results ... }
    }

``metrics`` is the comparable surface: each entry is a scalar with a unit
and a *direction* saying which way is better, so
:func:`compare_reports` can decide direction-aware whether a change is a
regression.  ``details`` keeps each suite's full raw output (rounds,
per-workload event counts, baselines) without constraining its shape.
``salt`` is the campaign cache's code-version salt, a digest of the
package sources (:func:`repro.experiments.cache.cache_salt`) — two reports
with different salts benchmarked different code, and the comparison says
so.  Like manifests, reports carry no timestamps:
a re-run on the same code and machine produces a comparable document.

``repro-bench compare OLD NEW --threshold 0.1`` (see
:func:`repro.cli.main_bench`) exits non-zero when any shared metric moved
more than the threshold in its bad direction.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import AnalysisError

PathLike = Union[str, Path]

SCHEMA_NAME = "repro-bench"
SCHEMA_VERSION = 1

#: Metric directions: which way is *better*.
HIGHER_IS_BETTER = "higher"
LOWER_IS_BETTER = "lower"

#: Default relative change treated as a regression by ``compare``.
DEFAULT_THRESHOLD = 0.10


def machine_info() -> Dict[str, object]:
    """Host facts that contextualize benchmark numbers."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def metric(value: float, unit: str,
           direction: str = HIGHER_IS_BETTER) -> Dict[str, object]:
    """One comparable metric entry for a report's ``metrics`` map."""
    if direction not in (HIGHER_IS_BETTER, LOWER_IS_BETTER):
        raise AnalysisError(
            f"metric direction must be {HIGHER_IS_BETTER!r} or "
            f"{LOWER_IS_BETTER!r}, not {direction!r}")
    return {"value": float(value), "unit": unit, "direction": direction}


def build_report(suite: str, metrics: Dict[str, dict],
                 mode: str = "full",
                 details: Optional[dict] = None,
                 salt: Optional[str] = None) -> dict:
    """Assemble a schema-versioned benchmark report document.

    ``salt`` defaults to the cache salt
    (:func:`repro.experiments.cache.cache_salt`), identifying the code
    version the numbers were measured on.  The import is lazy so this
    module stays importable without pulling the experiment layer in.
    """
    if salt is None:
        from repro.experiments.cache import cache_salt
        salt = cache_salt()
    for name, entry in metrics.items():
        for field in ("value", "unit", "direction"):
            if field not in entry:
                raise AnalysisError(
                    f"metric {name!r} is missing field {field!r}; "
                    "build entries with repro.obs.bench.metric()")
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "mode": mode,
        "metrics": dict(metrics),
        "machine": machine_info(),
        "salt": salt,
        "details": details if details is not None else {},
    }


def write_report(report: dict, path: PathLike) -> Path:
    """Write a report as pretty, key-sorted JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def read_report(path: PathLike) -> dict:
    """Read and validate a benchmark report.

    Raises :class:`~repro.errors.AnalysisError` with the offending path
    when the document is not a ``repro-bench`` report this code can
    compare (wrong schema name, newer schema version, or missing
    ``suite``/``metrics``).
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise AnalysisError(f"cannot read benchmark report {path}: {exc}")
    if not isinstance(document, dict) \
            or document.get("schema") != SCHEMA_NAME:
        raise AnalysisError(
            f"{path} is not a {SCHEMA_NAME} report (schema="
            f"{document.get('schema')!r})" if isinstance(document, dict)
            else f"{path} is not a {SCHEMA_NAME} report")
    version = document.get("schema_version")
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise AnalysisError(
            f"{path} has schema_version {version!r}; this code understands "
            f"up to {SCHEMA_VERSION}")
    if "suite" not in document or not isinstance(
            document.get("metrics"), dict):
        raise AnalysisError(f"{path} is missing 'suite' or 'metrics'")
    return document


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
class MetricChange:
    """One metric's movement between two reports."""

    __slots__ = ("name", "old", "new", "unit", "direction", "ratio")

    def __init__(self, name: str, old: float, new: float, unit: str,
                 direction: str) -> None:
        self.name = name
        self.old = old
        self.new = new
        self.unit = unit
        self.direction = direction
        self.ratio = (new / old) if old else None

    def relative_change(self) -> Optional[float]:
        """Signed relative change where positive = got better."""
        if self.ratio is None:
            return None
        change = self.ratio - 1.0
        return change if self.direction == HIGHER_IS_BETTER else -change

    def is_regression(self, threshold: float) -> bool:
        """True when the metric moved past ``threshold`` the *bad* way."""
        change = self.relative_change()
        return change is not None and change < -threshold

    def __repr__(self) -> str:
        return (f"MetricChange({self.name!r}, old={self.old!r}, "
                f"new={self.new!r})")


def compare_reports(old: dict, new: dict,
                    threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Compare two reports; returns changes, regressions, and caveats.

    Only metrics present in *both* reports are compared (a new benchmark
    has no baseline; a removed one has no current value — both are listed
    as caveats, not failures).  The result dict has ``changes`` (every
    shared metric as a :class:`MetricChange`), ``regressions`` (the subset
    past ``threshold`` in the bad direction), and ``caveats`` (mode/suite/
    salt mismatches and one-sided metrics).
    """
    if threshold < 0:
        raise AnalysisError(f"threshold must be >= 0, not {threshold}")
    caveats: List[str] = []
    if old.get("suite") != new.get("suite"):
        caveats.append(f"suite mismatch: {old.get('suite')!r} vs "
                       f"{new.get('suite')!r}")
    if old.get("mode") != new.get("mode"):
        caveats.append(f"mode mismatch: {old.get('mode')!r} vs "
                       f"{new.get('mode')!r} (numbers not comparable "
                       "across modes)")
    if old.get("salt") != new.get("salt"):
        caveats.append("code salt differs (the two runs benchmarked "
                       "different kernel code versions)")
    old_metrics = old.get("metrics", {})
    new_metrics = new.get("metrics", {})
    for name in sorted(set(old_metrics) - set(new_metrics)):
        caveats.append(f"metric {name!r} only in old report")
    for name in sorted(set(new_metrics) - set(old_metrics)):
        caveats.append(f"metric {name!r} only in new report")
    changes: List[MetricChange] = []
    for name in sorted(set(old_metrics) & set(new_metrics)):
        old_entry, new_entry = old_metrics[name], new_metrics[name]
        changes.append(MetricChange(
            name=name, old=float(old_entry["value"]),
            new=float(new_entry["value"]),
            unit=new_entry.get("unit", old_entry.get("unit", "")),
            direction=new_entry.get("direction",
                                    old_entry.get("direction",
                                                  HIGHER_IS_BETTER))))
    regressions = [change for change in changes
                   if change.is_regression(threshold)]
    return {"changes": changes, "regressions": regressions,
            "caveats": caveats, "threshold": threshold}


def format_comparison(comparison: dict) -> str:
    """Human-readable multi-line rendering of a comparison result."""
    lines: List[str] = []
    threshold = comparison["threshold"]
    for change in comparison["changes"]:
        relative = change.relative_change()
        if relative is None:
            movement = "old value was 0"
        else:
            movement = f"{relative * +100:+.1f}%"
        verdict = "REGRESSION" if change.is_regression(threshold) else "ok"
        unit = f" {change.unit}" if change.unit else ""
        lines.append(f"{verdict:>10}  {change.name}: "
                     f"{change.old:g} -> {change.new:g}{unit} ({movement})")
    for caveat in comparison["caveats"]:
        lines.append(f"      note  {caveat}")
    count = len(comparison["regressions"])
    lines.append(f"{count} regression(s) past {threshold * 100:.0f}% "
                 f"threshold across {len(comparison['changes'])} "
                 "shared metric(s)")
    return "\n".join(lines)


def flat_metrics(results: Dict[str, dict], unit: str,
                 direction: str = HIGHER_IS_BETTER,
                 value_key: str = "events_per_second",
                 ) -> Dict[str, dict]:
    """Lift ``{workload: {value_key: n}}`` dicts into metric entries.

    Convenience for the benchmark scripts whose ``collect()`` functions
    return per-workload dicts — the metric name becomes
    ``<workload>_<value_key>``.
    """
    metrics: Dict[str, dict] = {}
    for workload in sorted(results):
        entry = results[workload]
        if isinstance(entry, dict) and value_key in entry:
            metrics[f"{workload}_{value_key}"] = metric(
                entry[value_key], unit, direction)
    return metrics

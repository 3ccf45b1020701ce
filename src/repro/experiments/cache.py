"""Content-addressed on-disk cache for campaign cells.

A campaign cell is a pure function of its causal inputs: the scenario name
and kwargs, the probe interval δ, the seed, the duration, the probe
payload/wire sizes, and the code that simulates it.  :class:`CampaignCache`
exploits that purity — each cell's full
:class:`~repro.experiments.campaign.CellResult` (trace, queue stats,
metrics, wall cost) is stored under a SHA-256 fingerprint of those inputs,
so re-running a grid whose inputs did not change loads results from disk
instead of re-simulating them.

The governing invariant (DESIGN.md): **a cache hit is byte-identical to a
cold run; the cache is an optimization, never an input.**  Concretely:

* The fingerprint covers *every* input that can influence a cell's output,
  including the code itself: :func:`cache_salt` is a SHA-256 of the
  package's own source bytes, so any edit to kernel/traffic/topology code
  (comments and docstrings included) invalidates old entries
  automatically.
* Entries are written atomically (temp file + ``os.replace``), so a killed
  run never leaves a partial entry behind.
* A corrupted entry — truncated zip, garbled JSON, fingerprint mismatch —
  is treated as a miss, logged, and recomputed; it is never an error.
* Traces are stored in the binary columnar npz form
  (:meth:`~repro.netdyn.trace.ProbeTrace.save_npz`), so float64 samples
  round-trip bit-exactly, and the cell payload JSON preserves dict order,
  so re-serialized artifacts (tables, CSVs, ``manifest.json``) come out
  byte-identical to a cold run.  Every hit is read one way: a ``stat``
  then one ``np.load`` of the entry (:meth:`CampaignCache.load`).

Nothing non-deterministic about cache behaviour (hit/miss counts, byte
volumes) ever enters ``manifest.json``; it is reported through the
``timing.json`` sidecar's ``cache`` block.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError
from repro.experiments.config import DEFAULT_WARMUP
from repro.net.packet import UDP_WIRE_OVERHEAD_BYTES
from repro.netdyn.packetfmt import PROBE_PAYLOAD_BYTES
from repro.netdyn.trace import ProbeTrace

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.experiments.campaign import CampaignSpec, CellResult

#: Warnings name an event, then its context as sorted ``key=value`` pairs.
logger = logging.getLogger("repro.obs.cache")

#: Layout version of one cache entry; bump on incompatible changes (old
#: entries are then rejected as corrupt and recomputed).
ENTRY_FORMAT_VERSION = 1

#: Module subtrees whose sources do not feed the salt.  None of them can
#: change a cell's result: the static analyzer never simulates anything;
#: the warm-pool dispatcher moves results between processes but never
#: computes them (serial == warm byte-identity is what the campaign tests
#: enforce); and the telemetry modules observe runs whose telemetry-off
#: twin is byte-identical.  Editing them must not throw away every cached
#: cell.
SALT_EXCLUDE_PREFIXES: Tuple[str, ...] = (
    "repro.devtools",
    "repro.experiments.pool",
    "repro.obs.bench",
    "repro.obs.progress",
    "repro.obs.spans",
)

#: Salt used when the sources cannot be read (e.g. a zipapp deployment).
#: Deliberately not a valid derived salt, so such environments never share
#: entries with source checkouts.
_FALLBACK_SALT = "repro-cell-v3-unknown"

_salt_cache: Optional[str] = None


def _source_salt(package_root: Path) -> str:
    """Salt over the raw bytes of the package sources under ``package_root``.

    Every ``.py`` file whose module lies outside
    :data:`SALT_EXCLUDE_PREFIXES` is hashed, in relative-POSIX-path order,
    as its relative path plus its length-prefixed bytes.
    """
    sources = sorted((path.relative_to(package_root).as_posix(), path)
                     for path in package_root.rglob("*.py"))
    digest = hashlib.sha256()
    salted = 0
    for relative, path in sources:
        module = ("repro." + relative[:-len(".py")].replace("/", ".")
                  ).removesuffix(".__init__")
        if any(module == prefix or module.startswith(prefix + ".")
               for prefix in SALT_EXCLUDE_PREFIXES):
            continue
        source = path.read_bytes()
        digest.update(f"{relative}\0{len(source)}\0".encode("utf-8"))
        digest.update(source)
        salted += 1
    if not salted:
        raise AnalysisError(f"no package sources under {package_root}")
    return f"repro-cell-v3-{digest.hexdigest()[:16]}"


def cache_salt() -> str:
    """The code-version salt folded into every cell fingerprint.

    A SHA-256 of the raw bytes of every ``repro`` source file outside
    :data:`SALT_EXCLUDE_PREFIXES`, so it changes whenever code that could
    change a result is edited — no manual bump to forget.  Computed once
    per process (hashing the sources takes a few milliseconds) and falls
    back to :data:`_FALLBACK_SALT` with a logged warning when the sources
    cannot be read.
    """
    global _salt_cache
    if _salt_cache is None:
        try:
            _salt_cache = _source_salt(Path(__file__).resolve().parents[1])
        except (OSError, AnalysisError) as exc:
            # Caching stays correct on the fallback salt, but entries are
            # never shared with source checkouts.
            logger.warning("cache-salt-underivable error=%r fallback=%r",
                           str(exc), _FALLBACK_SALT)
            _salt_cache = _FALLBACK_SALT
    return _salt_cache


def default_probe_bytes() -> "tuple[int, int]":
    """(payload, wire) sizes of the probes every campaign cell sends."""
    return (PROBE_PAYLOAD_BYTES,
            PROBE_PAYLOAD_BYTES + UDP_WIRE_OVERHEAD_BYTES)


def cell_fingerprint(spec: "CampaignSpec", delta: float, seed: int) -> str:
    """Stable SHA-256 hex digest of one cell's full causal input.

    Two cells share a fingerprint exactly when nothing that can influence
    the simulated result differs: scenario name + kwargs, δ, seed,
    duration, warm-up, execution mode (event vs analytic, so the two
    engines never share entries), probe payload/wire bytes, and
    the code-version salt (:func:`cache_salt`).
    ``output_dir``, worker counts, and every other bit of execution
    mechanics are deliberately excluded — they change where results go,
    never what they are.
    """
    payload_bytes, wire_bytes = default_probe_bytes()
    document = {
        "scenario": spec.scenario,
        "scenario_kwargs": spec.scenario_kwargs,
        "delta": float(delta),
        "seed": int(seed),
        "duration": float(spec.duration),
        "warmup": float(DEFAULT_WARMUP),
        "mode": spec.mode,
        "payload_bytes": payload_bytes,
        "wire_bytes": wire_bytes,
        "salt": cache_salt(),
    }
    encoded = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


class CampaignCache:
    """On-disk, content-addressed store of campaign cell results.

    Parameters
    ----------
    directory:
        Where entries live; created on first use.  A cache directory can
        be shared freely across campaigns, specs, and code versions —
        addressing is by content fingerprint, so unrelated entries never
        collide and stale ones are simply never hit.
    refresh:
        When True every lookup misses, so every cell recomputes and
        overwrites its entry (the ``--refresh`` CLI flag).

    Entries are addressed by :func:`cell_fingerprint`, so they are salted
    with this process's :func:`cache_salt`.
    """

    def __init__(self, directory: Union[str, Path],
                 refresh: bool = False) -> None:
        self.directory = Path(directory)
        self.refresh = bool(refresh)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Lifetime counters.
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.corrupt_entries = 0

    # ------------------------------------------------------------------
    def entry_path(self, spec: "CampaignSpec", delta: float,
                   seed: int) -> Path:
        """Filename of the cell's entry: human-readable key + fingerprint."""
        from repro.experiments.campaign import cell_key
        fingerprint = cell_fingerprint(spec, delta, seed)
        return self.directory / f"{cell_key(delta, seed)}-{fingerprint}.npz"

    def load(self, spec: "CampaignSpec", delta: float,
             seed: int) -> Optional["CellResult"]:
        """The cached result of one cell, or None (a miss).

        Every failure mode — absent entry, truncated file, garbled JSON,
        fingerprint/version mismatch — is a miss; corruption is logged and
        counted, never raised, so a damaged cache only costs recomputation.
        """
        if self.refresh:
            self.misses += 1
            return None
        path = self.entry_path(spec, delta, seed)
        try:
            size = path.stat().st_size
        except OSError:
            self.misses += 1
            return None
        fingerprint = cell_fingerprint(spec, delta, seed)
        try:
            result = self._read_entry(path, fingerprint)
        except Exception as exc:
            # A miss, not an error: the cell recomputes and overwrites.
            logger.warning("cache-entry-unreadable delta=%r entry=%r "
                           "error=%r fingerprint=%r seed=%r", float(delta),
                           path.name, str(exc), fingerprint, int(seed))
            self.corrupt_entries += 1
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_read += size
        return result

    def load_many(self, spec: "CampaignSpec",
                  cells: "Sequence[tuple[float, int]]",
                  ) -> "Dict[tuple[float, int], CellResult]":
        """The cached results of a campaign grid, looked up before dispatch.

        Returns the hits only, keyed by ``(delta, seed)``; every absent
        key is a miss to simulate.  One :meth:`load` per cell, so the
        accounting and the corrupt-entry handling are :meth:`load`'s.
        """
        hits: Dict[tuple, "CellResult"] = {}
        for delta, seed in cells:
            result = self.load(spec, delta, seed)
            if result is not None:
                hits[(delta, seed)] = result
        return hits

    def store(self, spec: "CampaignSpec", delta: float, seed: int,
              result: "CellResult") -> Path:
        """Persist one cell result atomically (temp file + rename).

        The entry only ever appears under its final name complete: a
        killed run leaves at worst an orphaned ``.tmp-*`` file, never a
        partial entry that a later run could mistake for a result.
        """
        path = self.entry_path(spec, delta, seed)
        payload = json.dumps({
            "entry_version": ENTRY_FORMAT_VERSION,
            "fingerprint": cell_fingerprint(spec, delta, seed),
            "delta": float(result.delta),
            "seed": int(result.seed),
            # Order-preserving dumps (no sort_keys): queue_stats/metrics
            # iteration order survives the round trip, keeping re-rendered
            # tables byte-identical to the cold run.
            "queue_stats": result.queue_stats,
            "metrics": result.metrics,
            "wall_seconds": float(result.wall_seconds),
        })
        fd, tmp_name = tempfile.mkstemp(dir=self.directory,
                                        prefix=".tmp-", suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as handle:
                result.trace.save_npz(handle, extra={"cell": payload})
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        self.bytes_written += path.stat().st_size
        return path

    # ------------------------------------------------------------------
    @staticmethod
    def _read_entry(path: Path, fingerprint: str) -> "CellResult":
        from repro.experiments.campaign import CellResult
        with np.load(path, allow_pickle=False) as data:
            trace = ProbeTrace.from_npz_arrays(data)
            payload = json.loads(str(data["cell"][()]))
        if payload.get("entry_version") != ENTRY_FORMAT_VERSION:
            raise AnalysisError(
                f"entry version {payload.get('entry_version')!r}, "
                f"expected {ENTRY_FORMAT_VERSION}")
        if payload.get("fingerprint") != fingerprint:
            raise AnalysisError("fingerprint mismatch (renamed or stale "
                                "entry)")
        return CellResult(delta=payload["delta"], seed=payload["seed"],
                          trace=trace, queue_stats=payload["queue_stats"],
                          metrics=payload["metrics"],
                          wall_seconds=payload["wall_seconds"])

    def __repr__(self) -> str:
        return (f"<CampaignCache {self.directory} hits={self.hits} "
                f"misses={self.misses} stores={self.stores}>")


def resolve_cache(cache: Union["CampaignCache", str, Path, None],
                  ) -> Optional["CampaignCache"]:
    """Coerce :func:`run_campaign`'s ``cache`` argument to a cache object.

    Accepts an existing :class:`CampaignCache`, a directory path, or None.
    """
    if isinstance(cache, (str, Path)):
        return CampaignCache(cache)
    return cache

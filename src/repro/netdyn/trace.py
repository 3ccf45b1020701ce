"""The :class:`ProbeTrace` container: one NetDyn experiment's measurements.

A trace records, for every probe ``n``, the send time ``s_n`` and round-trip
time ``rtt_n``; following the paper's convention, ``rtt_n = 0`` marks a lost
probe.  All analysis modules (:mod:`repro.analysis`) consume this type.
It round-trips through two forms: CSV (:meth:`ProbeTrace.save_csv` /
:meth:`ProbeTrace.load_csv`), the human-readable form live-network and
simulated traces share, and binary columnar npz
(:meth:`ProbeTrace.save_npz` / :meth:`ProbeTrace.load_npz`), bit-exact
float64 and the campaign cell cache's storage.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import AnalysisError, InsufficientDataError
from repro.units import seconds_to_ms

#: Sentinel round-trip value for lost probes (the paper's convention).
LOST = 0.0

#: Layout version of the binary (npz) trace format; bump on changes.
NPZ_FORMAT_VERSION = 1


@dataclass
class ProbeTrace:
    """Measured round-trip delays of periodic probes.

    Attributes
    ----------
    delta:
        Interval between probe send times, seconds (the paper's ``δ``).
    send_times:
        ``s_n`` for every probe, seconds (source host clock).
    rtts:
        ``rtt_n`` for every probe, seconds; ``0.0`` marks a loss.
    payload_bytes:
        Probe UDP payload size (32 in the paper).
    wire_bytes:
        Probe size on the wire (the paper's ``P`` = 72 bytes).
    meta:
        Free-form experiment metadata (path, seed, bottleneck rate, ...).
    """

    delta: float
    send_times: np.ndarray
    rtts: np.ndarray
    payload_bytes: int = 32
    wire_bytes: int = 72
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.send_times = np.asarray(self.send_times, dtype=float)
        self.rtts = np.asarray(self.rtts, dtype=float)
        if self.send_times.shape != self.rtts.shape:
            raise AnalysisError(
                f"send_times and rtts lengths differ: "
                f"{self.send_times.shape} vs {self.rtts.shape}")
        if self.delta <= 0:
            raise AnalysisError(f"delta must be positive, got {self.delta}")
        if np.any(self.rtts < 0):
            raise AnalysisError("negative rtt in trace")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rtts)

    @property
    def lost(self) -> np.ndarray:
        """Boolean mask, True where the probe was lost."""
        return self.rtts == LOST

    @property
    def received(self) -> np.ndarray:
        """Boolean mask, True where the probe came back."""
        return ~self.lost

    @property
    def valid_rtts(self) -> np.ndarray:
        """Round-trip times of received probes only."""
        return self.rtts[self.received]

    @property
    def loss_count(self) -> int:
        """Number of lost probes."""
        return int(np.count_nonzero(self.lost))

    @property
    def loss_fraction(self) -> float:
        """Fraction of probes lost (the paper's ``ulp`` for this trace)."""
        if len(self) == 0:
            return 0.0
        return self.loss_count / len(self)

    def min_rtt(self) -> float:
        """Smallest observed round trip; estimator of the fixed delay D."""
        valid = self.valid_rtts
        if valid.size == 0:
            raise InsufficientDataError("no received probes in trace")
        return float(valid.min())

    def slice(self, start: int, stop: int) -> "ProbeTrace":
        """A sub-trace of probes ``start <= n < stop`` (metadata shared)."""
        return ProbeTrace(delta=self.delta,
                          send_times=self.send_times[start:stop],
                          rtts=self.rtts[start:stop],
                          payload_bytes=self.payload_bytes,
                          wire_bytes=self.wire_bytes,
                          meta=dict(self.meta))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(cls, delta: float,
                     rtts: Sequence[Optional[float]],
                     payload_bytes: int = 32, wire_bytes: int = 72,
                     meta: Optional[dict[str, Any]] = None) -> "ProbeTrace":
        """Build a trace from rtt samples; ``None`` or 0 marks a loss."""
        cleaned = [LOST if (r is None or r == LOST) else float(r)
                   for r in rtts]
        send_times = np.arange(len(cleaned)) * delta
        return cls(delta=delta, send_times=send_times,
                   rtts=np.asarray(cleaned), payload_bytes=payload_bytes,
                   wire_bytes=wire_bytes, meta=dict(meta or {}))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save_csv(self, path: Union[str, Path]) -> None:
        """Write ``n, s_n, rtt_n`` rows; metadata goes in ``#`` comments.

        The row block is formatted in one batch (list comprehension over
        plain-Python floats, a single ``join``, a single ``write``) rather
        than through per-row ``csv.writer`` calls — several times faster on
        long traces — while producing byte-identical output to the
        historical writer (``\\n``-terminated header comments, ``\\r\\n``
        row terminators, ``.9f`` fields; pinned by the golden-trace test).
        """
        path = Path(path)
        send_times = self.send_times.tolist()
        rtts = self.rtts.tolist()
        rows = [f"{n},{s:.9f},{r:.9f}"
                for n, (s, r) in enumerate(zip(send_times, rtts))]
        with path.open("w", newline="") as handle:
            handle.write(f"# delta={self.delta!r}\n")
            handle.write(f"# payload_bytes={self.payload_bytes}\n")
            handle.write(f"# wire_bytes={self.wire_bytes}\n")
            handle.write(f"# meta={json.dumps(self.meta, sort_keys=True)}\n")
            handle.write("n,send_time,rtt\r\n")
            if rows:
                handle.write("\r\n".join(rows))
                handle.write("\r\n")

    @staticmethod
    def _parse_rows_slow(path: Path, rows: "list[tuple[int, str]]",
                         ) -> "tuple[list[float], list[float]]":
        """Row-by-row data parse with exact ``file:line`` diagnostics.

        The authoritative (historical) parser: the vectorized fast path in
        :meth:`load_csv` defers to this whenever anything about the data
        block looks unusual, so malformed rows always surface the same
        :class:`AnalysisError` they did before vectorization.
        """
        send_times: list[float] = []
        rtts: list[float] = []
        for lineno, line in rows:
            fields = line.split(",")
            if len(fields) != 3:
                raise AnalysisError(
                    f"{path}:{lineno}: expected 3 fields "
                    f"(n, send_time, rtt), got {len(fields)}: {line!r}")
            try:
                send_times.append(float(fields[1]))
                rtts.append(float(fields[2]))
            except ValueError as exc:
                raise AnalysisError(
                    f"{path}:{lineno}: non-numeric field in row "
                    f"{line!r}") from exc
        return send_times, rtts

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "ProbeTrace":
        """Read a trace written by :meth:`save_csv`.

        Well-formed data blocks are parsed in one ``np.loadtxt`` call (a C
        parser, not a Python loop); any anomaly — wrong field count, a
        non-numeric field — falls back to the row-by-row parser, which
        raises :class:`AnalysisError` naming the exact file and line.
        """
        path = Path(path)
        header: dict[str, Any] = {"delta": None, "payload_bytes": 32,
                                  "wire_bytes": 72, "meta": {}}
        rows: list[tuple[int, str]] = []
        with path.open() as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    key = key.strip()
                    if key == "meta":
                        header["meta"] = json.loads(value)
                    elif key in header:
                        header[key] = float(value) if key == "delta" \
                            else int(value)
                    continue
                if line.startswith("n,"):
                    continue
                rows.append((lineno, line))

        send_times: Union[np.ndarray, list[float]]
        rtts: Union[np.ndarray, list[float]]
        if rows:
            try:
                block = np.loadtxt(
                    io.StringIO("\n".join(line for _, line in rows)),
                    delimiter=",", dtype=float, ndmin=2)
            except Exception:
                block = None
            if block is not None and block.shape[1] == 3:
                send_times, rtts = block[:, 1], block[:, 2]
            else:
                send_times, rtts = cls._parse_rows_slow(path, rows)
        else:
            send_times, rtts = [], []
        if header["delta"] is None:
            if len(send_times) >= 2:
                header["delta"] = float(send_times[1] - send_times[0])
            else:
                raise AnalysisError(f"{path}: no delta header and <2 samples")
        return cls(delta=header["delta"], send_times=np.asarray(send_times),
                   rtts=np.asarray(rtts),
                   payload_bytes=header["payload_bytes"],
                   wire_bytes=header["wire_bytes"], meta=header["meta"])

    def save_npz(self, file: Union[str, Path, BinaryIO],
                 extra: Optional[Mapping[str, Any]] = None) -> None:
        """Write the binary columnar form of the trace.

        ``send_times`` and ``rtts`` are stored as raw float64 arrays (no
        text round-trip, so the reload is bit-exact) and the scalar header
        (delta, payload/wire bytes, free-form ``meta``) as one embedded
        JSON document.  ``extra`` names additional arrays (or strings,
        stored as 0-d unicode arrays) persisted alongside — the campaign
        cell cache rides its cell payload on this.  ``file`` may be a path
        or an open binary file object (the cache writes to a temp file and
        renames it into place for atomicity).
        """
        header = json.dumps({
            "format_version": NPZ_FORMAT_VERSION,
            "delta": self.delta,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "meta": self.meta,
        })
        arrays: dict[str, np.ndarray] = {
            "send_times": np.ascontiguousarray(self.send_times,
                                               dtype=np.float64),
            "rtts": np.ascontiguousarray(self.rtts, dtype=np.float64),
            "header": np.array(header),
        }
        for name, value in (extra or {}).items():
            if name in arrays:
                raise AnalysisError(
                    f"extra array {name!r} collides with a trace field")
            arrays[name] = np.asarray(value)
        if hasattr(file, "write"):
            np.savez(file, **arrays)
        else:
            with Path(file).open("wb") as handle:  # type: ignore[arg-type]
                np.savez(handle, **arrays)

    @classmethod
    def from_npz_arrays(cls, data: Mapping[str, np.ndarray]) -> "ProbeTrace":
        """Rebuild a trace from the arrays of an open npz file.

        Split out of :meth:`load_npz` so consumers that embed extra arrays
        next to the trace (the campaign cell cache) can decode the trace
        from an ``np.load`` handle they already hold.
        """
        header = json.loads(str(data["header"][()]))
        return cls(delta=header["delta"],
                   send_times=np.asarray(data["send_times"], dtype=float),
                   rtts=np.asarray(data["rtts"], dtype=float),
                   payload_bytes=header["payload_bytes"],
                   wire_bytes=header["wire_bytes"], meta=header["meta"])

    @classmethod
    def load_npz(cls, path: Union[str, Path]) -> "ProbeTrace":
        """Read a trace written by :meth:`save_npz`.

        Raises :class:`AnalysisError` on anything unreadable — truncated
        zip, missing arrays, garbled header JSON — so callers can treat a
        damaged file as one condition.
        """
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                return cls.from_npz_arrays(data)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise AnalysisError(
                f"{path}: not a readable ProbeTrace npz: {exc}") from exc

    def __repr__(self) -> str:
        return (f"<ProbeTrace delta={seconds_to_ms(self.delta):g}ms "
                f"n={len(self)} "
                f"loss={self.loss_fraction:.1%}>")

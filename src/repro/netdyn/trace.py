"""The :class:`ProbeTrace` container: one NetDyn experiment's measurements.

A trace records, for every probe ``n``, the send time ``s_n`` and round-trip
time ``rtt_n``; following the paper's convention, ``rtt_n = 0`` marks a lost
probe.  All analysis modules (:mod:`repro.analysis`) consume this type.
It round-trips through two forms: CSV (:meth:`ProbeTrace.save_csv` /
:meth:`ProbeTrace.load_csv`), the human-readable form live-network and
simulated traces share, and binary columnar npz
(:meth:`ProbeTrace.save_npz` / :meth:`ProbeTrace.from_npz_arrays`),
bit-exact float64 and the campaign cell cache's storage.
"""

from __future__ import annotations

import json
import math
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


def _meta_header(text: str) -> dict[str, Any]:
    """The ``# meta=`` header value: a JSON object."""
    meta = json.loads(text)
    if not isinstance(meta, dict):
        raise ValueError("not a JSON object")
    return meta


def _delta_header(text: str) -> float:
    """The ``# delta=`` header value: a positive, finite float."""
    delta = float(text)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be positive and finite")
    return delta


#: How :meth:`ProbeTrace.load_csv` reads each ``# key=value`` header;
#: every parser raises ``ValueError`` on a malformed value.
_HEADER_PARSERS = {"delta": _delta_header, "payload_bytes": int,
                   "wire_bytes": int, "meta": _meta_header}


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
        # A NumPy scalar would reach the CSV header as its repr
        # (``np.float64(0.05)`` under NumPy 2), which load_csv rejects.
        self.delta = float(self.delta)
        self.send_times = np.asarray(self.send_times, dtype=float)
        self.rtts = np.asarray(self.rtts, dtype=float)
        if self.send_times.shape != self.rtts.shape:
            raise AnalysisError(
                f"send_times and rtts lengths differ: "
                f"{self.send_times.shape} vs {self.rtts.shape}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise AnalysisError(
                f"delta must be positive and finite, got {self.delta}")
        if not (np.isfinite(self.send_times).all()
                and np.isfinite(self.rtts).all()):
            raise AnalysisError("non-finite send time or rtt in trace")
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

        The bytes are those of the historical per-row writer:
        ``\\n``-terminated header comments, ``\\r\\n`` row terminators and
        fields equal to Python's correctly rounded ``"%.9f" % x``.  The
        rows are formatted by :func:`_csv_rows`, a few NumPy passes per
        block of :data:`_CSV_BLOCK_ROWS` rows instead of one Python
        format per row (pinned by ``tests/netdyn/test_trace.py`` and the
        golden-trace test).
        """
        path = Path(path)
        header = (f"# delta={self.delta!r}\n"
                  f"# payload_bytes={self.payload_bytes}\n"
                  f"# wire_bytes={self.wire_bytes}\n"
                  f"# meta={json.dumps(self.meta, sort_keys=True)}\n"
                  "n,send_time,rtt\r\n")
        with path.open("wb") as handle:
            handle.write(header.encode())
            for start in range(0, len(self.rtts), _CSV_BLOCK_ROWS):
                stop = start + _CSV_BLOCK_ROWS
                handle.write(_csv_rows(start, self.send_times[start:stop],
                                       self.rtts[start:stop]))

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "ProbeTrace":
        """Read a trace written by :meth:`save_csv`.

        Lines are parsed one by one, so a malformed header value (one
        that does not parse, or a delta that is not positive and finite)
        or data row (wrong field count, a non-numeric or non-finite
        field, a negative rtt) raises :class:`AnalysisError` naming the
        exact file and line.
        """
        path = Path(path)
        header: dict[str, Any] = {"delta": None, "payload_bytes": 32,
                                  "wire_bytes": 72, "meta": {}}
        send_times: list[float] = []
        rtts: list[float] = []
        with path.open() as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line[1:].strip().partition("=")
                    key = key.strip()
                    if key in _HEADER_PARSERS:
                        try:
                            header[key] = _HEADER_PARSERS[key](value)
                        except ValueError as exc:
                            raise AnalysisError(
                                f"{path}:{lineno}: malformed {key} header "
                                f"{value!r}: {exc}") from exc
                    continue
                if line.startswith("n,"):
                    continue
                fields = line.split(",")
                if len(fields) != 3:
                    raise AnalysisError(
                        f"{path}:{lineno}: expected 3 fields "
                        f"(n, send_time, rtt), got {len(fields)}: {line!r}")
                try:
                    send_time = float(fields[1])
                    rtt = float(fields[2])
                except ValueError as exc:
                    raise AnalysisError(
                        f"{path}:{lineno}: non-numeric field in row "
                        f"{line!r}") from exc
                if not (math.isfinite(send_time) and math.isfinite(rtt)):
                    raise AnalysisError(
                        f"{path}:{lineno}: non-finite send time or rtt in "
                        f"row {line!r}")
                if rtt < 0:
                    raise AnalysisError(
                        f"{path}:{lineno}: negative rtt in row {line!r}")
                send_times.append(send_time)
                rtts.append(rtt)
        if header["delta"] is None:
            if len(send_times) >= 2:
                header["delta"] = float(send_times[1] - send_times[0])
            else:
                raise AnalysisError(f"{path}: no delta header and <2 samples")
        try:
            return cls(delta=header["delta"],
                       send_times=np.asarray(send_times),
                       rtts=np.asarray(rtts),
                       payload_bytes=header["payload_bytes"],
                       wire_bytes=header["wire_bytes"], meta=header["meta"])
        except AnalysisError as exc:
            raise AnalysisError(f"{path}: {exc}") from None

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

        The reader of :meth:`save_npz`: the caller opens the file with
        ``np.load`` and may read the extra arrays it stored next to the
        trace (the campaign cell cache does).
        """
        header = json.loads(str(data["header"][()]))
        return cls(delta=header["delta"],
                   send_times=np.asarray(data["send_times"], dtype=float),
                   rtts=np.asarray(data["rtts"], dtype=float),
                   payload_bytes=header["payload_bytes"],
                   wire_bytes=header["wire_bytes"], meta=header["meta"])

    def __repr__(self) -> str:
        return (f"<ProbeTrace delta={seconds_to_ms(self.delta):g}ms "
                f"n={len(self)} "
                f"loss={self.loss_fraction:.1%}>")


# ----------------------------------------------------------------------
# The CSV row formatter
#
# ``"%.9f" % x`` is the decimal expansion of the double ``x`` rounded
# half-to-even at the ninth fractional digit.  The formatter below gets
# the same digits from float64 and unsigned-integer NumPy passes that are
# exact for every finite double: ``x = whole + frac`` splits exactly, the
# rounding error of ``frac * 1e9`` is recovered exactly (Dekker's
# two-product), and the integer part is expanded in base-1e9 limbs.  Each
# row's bytes sit in one column of a (width x rows) uint8 table, padded
# with 0 bytes where a row's number is shorter than the widest one; the
# padding is dropped in one pass at the end.
# ----------------------------------------------------------------------

#: Rows formatted per NumPy pass; bounds the formatter's memory.
_CSV_BLOCK_ROWS = 1 << 16

_LIMB = 10 ** 9

#: Veltkamp's splitting constant for float64 (2**27 + 1).
_SPLITTER = 134217729.0

#: 10**8 ... 10**0, the place values of a limb's nine digits.
_PLACES = (10 ** np.arange(8, -1, -1)).astype(np.uint32)[:, None]


def _limbs(whole: np.ndarray) -> list[np.ndarray]:
    """Base-1e9 digits of non-negative integral doubles, most significant
    first, as uint32 arrays (one limb for values below 1e9)."""
    # whole == m * 2**shift with m < 2**53, exactly.
    shift = np.maximum(np.frexp(whole)[1] - 53, 0)
    m = np.ldexp(whole, -shift).astype(np.uint64)
    limbs = [m % _LIMB, m // _LIMB]
    shift = shift.astype(np.uint64)
    # Doubles past 2**53: multiply the limbs by 2**shift, 29 bits a round
    # (limb * 2**29 + carry stays below 2**64, every carry below 1e9).
    while shift.any():
        step = np.minimum(shift, np.uint64(29))
        shift -= step
        carry = np.uint64(0)
        for i, limb in enumerate(limbs):
            value = (limb << step) + carry
            limbs[i] = value % _LIMB
            carry = value // _LIMB
        limbs.append(carry)
    while len(limbs) > 1 and not limbs[-1].any():
        limbs.pop()
    return [limb.astype(np.uint32) for limb in reversed(limbs)]


def _integer_ascii(whole: np.ndarray) -> np.ndarray:
    """ASCII digits of non-negative integral doubles as (width, rows)
    uint8, right-aligned; leading zeros are 0 bytes, the units digit
    always shows."""
    limbs = _limbs(whole)
    blocks = []
    shown = np.zeros(len(whole), dtype=bool)
    for i, limb in enumerate(limbs):
        width = len(str(int(limb.max()))) if i == 0 else 9
        digits = limb // _PLACES[9 - width:]
        visible = (digits != 0) | shown
        shown = visible[-1]
        digits[1:] -= digits[:-1] * 10
        digits += ord("0")
        digits *= visible
        blocks.append(digits)
    blocks[-1][-1] = limbs[-1] % 10 + ord("0")
    return np.concatenate(blocks).astype(np.uint8)


def _fixed9_ascii(x: np.ndarray) -> np.ndarray:
    """``"%.9f" % x`` for each finite double, as (width, rows) uint8."""
    frac, whole = np.modf(np.abs(x))
    scaled = frac * 1e9
    nanos = np.rint(scaled)
    # ``scaled`` is rounded, so where it lands exactly on a half the true
    # product may lie just above or below it: take its exact error
    # (1e9 has 21 significant bits, so both partial products of the
    # Veltkamp split of ``frac`` are exact) and round toward it.  A true
    # tie (error 0) keeps rint's half-to-even.
    tie = np.flatnonzero(np.abs(scaled - nanos) == 0.5)
    tied = frac[tie]
    hi = tied * _SPLITTER
    hi -= hi - tied
    error = (hi * 1e9 - scaled[tie]) + (tied - hi) * 1e9
    half = scaled[tie] - nanos[tie]
    nanos[tie] += np.where(error * half > 0, half + half, 0.0)
    carry = nanos == 1e9
    whole += carry
    nanos[carry] = 0.0
    fraction = nanos.astype(np.uint32) // _PLACES
    fraction[1:] -= fraction[:-1] * 10
    fraction += ord("0")
    rows = len(x)
    return np.concatenate([
        (np.signbit(x) * np.uint8(ord("-")))[None], _integer_ascii(whole),
        np.full((1, rows), ord("."), np.uint8), fraction.astype(np.uint8)])


def _csv_rows(first: int, send_times: np.ndarray,
              rtts: np.ndarray) -> bytes:
    """The ``n,s_n,rtt_n\\r\\n`` rows of probes ``first``, ``first + 1``..."""
    rows = len(rtts)
    comma = np.full((1, rows), ord(","), np.uint8)
    table = np.concatenate([
        _integer_ascii(np.arange(first, first + rows, dtype=np.float64)),
        comma, _fixed9_ascii(send_times), comma, _fixed9_ascii(rtts),
        np.full((1, rows), ord("\r"), np.uint8),
        np.full((1, rows), ord("\n"), np.uint8)]).T
    return table[table != 0].tobytes()

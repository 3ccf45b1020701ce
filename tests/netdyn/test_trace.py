"""Unit and property tests for ProbeTrace."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError, InsufficientDataError
from repro.netdyn.trace import ProbeTrace


def make_trace(rtts, delta=0.05, **kwargs):
    return ProbeTrace.from_samples(delta=delta, rtts=rtts, **kwargs)


class TestBasics:
    def test_loss_convention(self):
        trace = make_trace([0.1, 0.0, 0.2, None])
        assert trace.lost.tolist() == [False, True, False, True]
        assert trace.loss_count == 2
        assert trace.loss_fraction == pytest.approx(0.5)

    def test_valid_rtts_excludes_losses(self):
        trace = make_trace([0.1, 0.0, 0.2])
        assert trace.valid_rtts.tolist() == [0.1, 0.2]

    def test_min_rtt(self):
        trace = make_trace([0.3, 0.0, 0.14, 0.2])
        assert trace.min_rtt() == pytest.approx(0.14)

    def test_min_rtt_all_lost(self):
        trace = make_trace([0.0, 0.0])
        with pytest.raises(InsufficientDataError):
            trace.min_rtt()

    def test_send_times_spaced_by_delta(self):
        trace = make_trace([0.1] * 5, delta=0.02)
        assert np.allclose(np.diff(trace.send_times), 0.02)

    def test_len(self):
        assert len(make_trace([0.1, 0.2])) == 2


class TestValidation:
    def test_negative_rtt_rejected(self):
        with pytest.raises(AnalysisError):
            ProbeTrace(delta=0.05, send_times=np.array([0.0]),
                       rtts=np.array([-0.1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            ProbeTrace(delta=0.05, send_times=np.array([0.0, 0.05]),
                       rtts=np.array([0.1]))

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(AnalysisError):
            ProbeTrace(delta=0.0, send_times=np.array([0.0]),
                       rtts=np.array([0.1]))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(AnalysisError, match="finite"):
            ProbeTrace(delta=delta, send_times=np.array([0.0]),
                       rtts=np.array([0.1]))

    @pytest.mark.parametrize("field", ["send_times", "rtts"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_samples_rejected(self, field, value):
        arrays = {"send_times": np.array([0.0, 0.05]),
                  "rtts": np.array([0.1, 0.2])}
        arrays[field][1] = value
        with pytest.raises(AnalysisError, match="non-finite"):
            ProbeTrace(delta=0.05, **arrays)


class TestPersistence:
    def test_csv_roundtrip(self, tmp_path):
        trace = make_trace([0.1, 0.0, 0.212345678], delta=0.02,
                           meta={"scenario": "test", "seed": 3})
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        loaded = ProbeTrace.load_csv(path)
        assert loaded.delta == pytest.approx(trace.delta)
        assert np.allclose(loaded.rtts, trace.rtts)
        assert np.allclose(loaded.send_times, trace.send_times)
        assert loaded.meta == trace.meta
        assert loaded.payload_bytes == trace.payload_bytes
        assert loaded.wire_bytes == trace.wire_bytes

    def test_numpy_scalar_delta_roundtrip(self, tmp_path):
        # The header is the delta's repr: a NumPy scalar must not reach
        # it as ``np.float64(0.05)``, which load_csv would reject.
        trace = ProbeTrace.from_samples(delta=np.float64(0.05),
                                        rtts=[0.1, 0.2])
        assert type(trace.delta) is float
        path = tmp_path / "scalar.csv"
        trace.save_csv(path)
        assert path.read_text().startswith("# delta=0.05\n")
        assert ProbeTrace.load_csv(path).delta == 0.05

    def test_load_csv_missing_delta_infers_from_send_times(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("n,send_time,rtt\n0,0.0,0.1\n1,0.025,0.2\n")
        loaded = ProbeTrace.load_csv(path)
        assert loaded.delta == pytest.approx(0.025)


class TestLoadCsvMalformedRows:
    """Malformed rows must raise AnalysisError naming the file and line.

    Regression: a short/long/non-numeric row used to die with a bare
    ``ValueError`` from tuple unpacking, with no hint where in the file
    the problem was.
    """

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("n,send_time,rtt\n0,0.0,0.1\n1,0.05\n")
        with pytest.raises(AnalysisError, match=r"short\.csv:3.*2"):
            ProbeTrace.load_csv(path)

    def test_long_row(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("n,send_time,rtt\n0,0.0,0.1,extra\n")
        with pytest.raises(AnalysisError, match=r"long\.csv:2.*4"):
            ProbeTrace.load_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("n,send_time,rtt\n0,0.0,0.1\n1,0.05,oops\n")
        with pytest.raises(AnalysisError, match=r"text\.csv:3.*non-numeric"):
            ProbeTrace.load_csv(path)

    @pytest.mark.parametrize("row", ["1,0.05,nan", "1,0.05,inf",
                                     "1,nan,0.1"])
    def test_non_finite_field(self, tmp_path, row):
        path = tmp_path / "nan.csv"
        path.write_text(f"# delta=0.05\nn,send_time,rtt\n0,0.0,0.1\n{row}\n")
        with pytest.raises(AnalysisError, match=r"nan\.csv:4: non-finite"):
            ProbeTrace.load_csv(path)

    def test_negative_rtt(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("n,send_time,rtt\n0,0.0,0.1\n1,0.05,-0.1\n")
        with pytest.raises(AnalysisError, match=r"neg\.csv:3: negative rtt"):
            ProbeTrace.load_csv(path)

    def test_non_finite_delta_header(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("# delta=nan\nn,send_time,rtt\n0,0.0,0.1\n")
        with pytest.raises(AnalysisError,
                           match=r"delta\.csv:1: malformed delta .*finite"):
            ProbeTrace.load_csv(path)

    @pytest.mark.parametrize("value", ["inf", "-1", "0"])
    def test_invalid_delta_header(self, tmp_path, value):
        path = tmp_path / "delta.csv"
        path.write_text(f"# delta={value}\nn,send_time,rtt\n0,0.0,0.1\n")
        with pytest.raises(AnalysisError,
                           match=r"delta\.csv:1: malformed delta .*finite"):
            ProbeTrace.load_csv(path)


class TestLoadCsvMalformedHeader:
    """A malformed ``# key=value`` header raises AnalysisError naming the
    file and line, as a malformed row does."""

    @pytest.mark.parametrize("key, value", [
        ("delta", "abc"), ("delta", ""), ("payload_bytes", "3.5"),
        ("wire_bytes", "x"), ("meta", "{bad"), ("meta", "[1, 2]")])
    def test_header_value(self, tmp_path, key, value):
        path = tmp_path / "header.csv"
        path.write_text(f"# delta=0.05\n# {key}={value}\n"
                        "n,send_time,rtt\n0,0.0,0.1\n")
        with pytest.raises(AnalysisError,
                           match=rf"header\.csv:2: malformed {key} header"):
            ProbeTrace.load_csv(path)

    def test_unknown_comment_is_ignored(self, tmp_path):
        path = tmp_path / "note.csv"
        path.write_text("# delta=0.05\n# note=anything {\n"
                        "n,send_time,rtt\n0,0.0,0.1\n")
        assert len(ProbeTrace.load_csv(path)) == 1


def _neighbours(values):
    """Each value with the doubles just below and above it."""
    return [near for value in values
            for near in (math.nextafter(value, -math.inf), value,
                         math.nextafter(value, math.inf))]


#: Decimal half-nanosecond ties: the double nearest (k + 0.5) / 1e9 lies
#: just off the tie, but ``frac * 1e9`` rounds onto it.
_DECIMAL_TIES = _neighbours([m + (k + 0.5) / 1e9 for m in (0, 1, 123)
                             for k in (0, 1, 2, 3, 14, 15, 999_999_998)])
#: Exact binary ties: j / 1024 * 1e9 ends in exactly .5 for odd j.
_BINARY_TIES = [j / 1024 for j in (1, 3, 5, 1023)] + [7 + 1 / 1024]
#: Values whose nanoseconds round up to 1e9 and carry into the integer.
_CARRIES = _neighbours([m + 0.9999999995 for m in (0, 1, 9, 123, 4095)])
#: Values past 2**53 / 1e9, where ``x * 1e9`` is no longer exact, up to
#: the largest double.
_LARGE = [2.0 ** 53 / 1e9, 9_007_199.254740993, 2.0 ** 52 + 0.5, 2.0 ** 53,
          1e16 + 2.0, 2.0 ** 64, 1e22, 1e23, 1e300, sys.float_info.max]


def _rows(send_times, rtts):
    return list(zip(send_times, rtts))


class TestSaveCsvByteFormat:
    """The vectorized CSV writer must keep the historical byte format.

    Reference bytes are produced by the original per-row ``csv.writer``
    implementation, so any drift in terminators, field formatting, or
    header layout shows up as a byte diff (the golden-trace test pins the
    same property on a real simulated trace).
    """

    @staticmethod
    def _legacy_save_csv(trace, path):
        import csv
        import json as json_module
        with path.open("w", newline="") as handle:
            handle.write(f"# delta={trace.delta!r}\n")
            handle.write(f"# payload_bytes={trace.payload_bytes}\n")
            handle.write(f"# wire_bytes={trace.wire_bytes}\n")
            handle.write(
                f"# meta={json_module.dumps(trace.meta, sort_keys=True)}\n")
            writer = csv.writer(handle)
            writer.writerow(["n", "send_time", "rtt"])
            for n, (s, r) in enumerate(zip(trace.send_times, trace.rtts)):
                writer.writerow([n, f"{s:.9f}", f"{r:.9f}"])

    def test_matches_legacy_writer(self, tmp_path):
        trace = make_trace([0.1, 0.0, 0.12345678949, 3.0],
                           meta={"scenario": "x", "mu_bps": 128e3})
        trace.save_csv(tmp_path / "new.csv")
        self._legacy_save_csv(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    def test_empty_trace_matches_legacy_writer(self, tmp_path):
        trace = ProbeTrace(delta=0.05, send_times=np.array([]),
                           rtts=np.array([]))
        trace.save_csv(tmp_path / "new.csv")
        self._legacy_save_csv(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "old.csv").read_bytes()

    @settings(deadline=None)
    @given(rows=st.lists(st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0))))
    @example(rows=_rows(_DECIMAL_TIES, _DECIMAL_TIES[::-1]))
    @example(rows=_rows(_BINARY_TIES, _BINARY_TIES))
    @example(rows=_rows(_CARRIES, _CARRIES[::-1]))
    @example(rows=[(-0.0, -0.0), (-1.5, 0.0), (-5e-10, -0.0),
                   (-1e-12, 1e-12), (-123.9999999995, 0.25)])
    @example(rows=_rows(_LARGE, _LARGE[::-1]))
    @example(rows=[(5e-324, 5e-324), (-sys.float_info.max, 0.0)])
    @example(rows=[])
    @example(rows=[(0.05 * n, 0.1 + n / 7) for n in range(1001)])
    def test_matches_legacy_writer_on_any_doubles(self, tmp_path_factory,
                                                  rows):
        """Every finite double formats as ``"%.9f"`` does, at any row
        count and in any mix of field widths."""
        directory = tmp_path_factory.getbasetemp() / "writer"
        directory.mkdir(exist_ok=True)
        trace = ProbeTrace(delta=0.05,
                           send_times=np.array([s for s, _ in rows]),
                           rtts=np.array([r for _, r in rows]))
        trace.save_csv(directory / "new.csv")
        self._legacy_save_csv(trace, directory / "old.csv")
        assert (directory / "new.csv").read_bytes() == \
            (directory / "old.csv").read_bytes()

    def test_load_save_is_identity_on_disk(self, tmp_path):
        trace = make_trace([0.1, 0.0, 0.2], meta={"seed": 3})
        trace.save_csv(tmp_path / "a.csv")
        ProbeTrace.load_csv(tmp_path / "a.csv").save_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()


def load_npz(path):
    """Read a ``save_npz`` file the way the cell cache does."""
    with np.load(path, allow_pickle=False) as data:
        return ProbeTrace.from_npz_arrays(data)


class TestNpzPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        trace = make_trace([0.1, 0.0, 1 / 3, 0.2],
                           meta={"scenario": "inria-umd", "seed": 7,
                                 "mu_bps": 128e3},
                           payload_bytes=64, wire_bytes=104)
        trace.save_npz(tmp_path / "t.npz")
        loaded = load_npz(tmp_path / "t.npz")
        # Binary columnar storage: no text round-trip, so bit equality.
        assert loaded.send_times.tobytes() == trace.send_times.tobytes()
        assert loaded.rtts.tobytes() == trace.rtts.tobytes()
        assert loaded.delta == trace.delta
        assert loaded.payload_bytes == 64
        assert loaded.wire_bytes == 104
        assert loaded.meta == trace.meta

    def test_extra_arrays_stored_and_ignored_by_loader(self, tmp_path):
        trace = make_trace([0.1, 0.2])
        trace.save_npz(tmp_path / "t.npz", extra={"cell": "payload"})
        with np.load(tmp_path / "t.npz") as data:
            assert str(data["cell"][()]) == "payload"
        assert len(load_npz(tmp_path / "t.npz")) == 2

    def test_extra_cannot_shadow_trace_fields(self, tmp_path):
        trace = make_trace([0.1])
        with pytest.raises(AnalysisError):
            trace.save_npz(tmp_path / "t.npz",
                           extra={"rtts": np.array([9.0])})


@settings(max_examples=80, deadline=None)
@given(rtts=st.lists(
    st.one_of(st.just(0.0), st.floats(1e-4, 10.0)), min_size=1, max_size=50),
    delta=st.floats(1e-3, 1.0))
def test_npz_roundtrip_property(tmp_path_factory, rtts, delta):
    """save_npz -> from_npz_arrays is bit-exact on all trace contents."""
    trace = ProbeTrace.from_samples(delta=delta, rtts=rtts)
    path = tmp_path_factory.mktemp("npz") / "t.npz"
    trace.save_npz(path)
    loaded = load_npz(path)
    assert loaded.rtts.tobytes() == trace.rtts.tobytes()
    assert loaded.send_times.tobytes() == trace.send_times.tobytes()
    assert loaded.delta == trace.delta


@settings(max_examples=80, deadline=None)
@given(rtts=st.lists(
    st.one_of(st.just(0.0), st.floats(1e-4, 10.0)), min_size=1, max_size=50),
    delta=st.floats(1e-3, 1.0))
def test_csv_roundtrip_property(tmp_path_factory, rtts, delta):
    """save_csv -> load_csv is the identity on all trace contents."""
    trace = ProbeTrace.from_samples(delta=delta, rtts=rtts)
    path = tmp_path_factory.mktemp("traces") / "t.csv"
    trace.save_csv(path)
    loaded = ProbeTrace.load_csv(path)
    assert np.allclose(loaded.rtts, trace.rtts, atol=1e-9)
    assert loaded.loss_count == trace.loss_count


@settings(max_examples=80, deadline=None)
@given(rtts=st.lists(
    st.one_of(st.just(0.0), st.floats(1e-4, 10.0)), min_size=1, max_size=50))
def test_loss_fraction_bounds_property(rtts):
    """loss_fraction is always in [0, 1] and consistent with the mask."""
    trace = ProbeTrace.from_samples(delta=0.05, rtts=rtts)
    assert 0.0 <= trace.loss_fraction <= 1.0
    assert trace.loss_count + trace.received.sum() == len(trace)

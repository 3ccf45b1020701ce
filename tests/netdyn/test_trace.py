"""Unit and property tests for ProbeTrace."""

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_slice(self):
        trace = make_trace([0.1, 0.0, 0.2, 0.3])
        part = trace.slice(1, 3)
        assert len(part) == 2
        assert part.rtts.tolist() == [0.0, 0.2]
        assert part.delta == trace.delta

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


class TestSaveCsvByteFormat:
    """The batched CSV writer must keep the historical byte format.

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

    def test_load_save_is_identity_on_disk(self, tmp_path):
        trace = make_trace([0.1, 0.0, 0.2], meta={"seed": 3})
        trace.save_csv(tmp_path / "a.csv")
        ProbeTrace.load_csv(tmp_path / "a.csv").save_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()


class TestNpzPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        trace = make_trace([0.1, 0.0, 1 / 3, 0.2],
                           meta={"scenario": "inria-umd", "seed": 7,
                                 "mu_bps": 128e3},
                           payload_bytes=64, wire_bytes=104)
        trace.save_npz(tmp_path / "t.npz")
        loaded = ProbeTrace.load_npz(tmp_path / "t.npz")
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
        assert len(ProbeTrace.load_npz(tmp_path / "t.npz")) == 2

    def test_extra_cannot_shadow_trace_fields(self, tmp_path):
        trace = make_trace([0.1])
        with pytest.raises(AnalysisError):
            trace.save_npz(tmp_path / "t.npz",
                           extra={"rtts": np.array([9.0])})

    def test_truncated_file_raises_analysis_error(self, tmp_path):
        trace = make_trace([0.1, 0.2])
        trace.save_npz(tmp_path / "t.npz")
        raw = (tmp_path / "t.npz").read_bytes()
        (tmp_path / "t.npz").write_bytes(raw[:len(raw) // 2])
        with pytest.raises(AnalysisError, match="t.npz"):
            ProbeTrace.load_npz(tmp_path / "t.npz")

    def test_garbage_file_raises_analysis_error(self, tmp_path):
        (tmp_path / "t.npz").write_bytes(b"garbage")
        with pytest.raises(AnalysisError, match="t.npz"):
            ProbeTrace.load_npz(tmp_path / "t.npz")

    def test_missing_file_raises_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError):
            ProbeTrace.load_npz(tmp_path / "absent.npz")


@settings(max_examples=80, deadline=None)
@given(rtts=st.lists(
    st.one_of(st.just(0.0), st.floats(1e-4, 10.0)), min_size=1, max_size=50),
    delta=st.floats(1e-3, 1.0))
def test_npz_roundtrip_property(tmp_path_factory, rtts, delta):
    """save_npz -> load_npz is bit-exact on all trace contents."""
    trace = ProbeTrace.from_samples(delta=delta, rtts=rtts)
    path = tmp_path_factory.mktemp("npz") / "t.npz"
    trace.save_npz(path)
    loaded = ProbeTrace.load_npz(path)
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

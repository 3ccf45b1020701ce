"""Tests for unit helpers."""

import pytest

from repro import units


class TestConversions:
    def test_time(self):
        assert units.ms(50) == pytest.approx(0.05)
        assert units.us(250) == pytest.approx(0.00025)
        assert units.seconds_to_ms(0.05) == pytest.approx(50.0)

    def test_rates(self):
        assert units.kbps(128) == pytest.approx(128_000.0)
        assert units.mbps(1.544) == pytest.approx(1_544_000.0)

    def test_data(self):
        assert units.bytes_to_bits(72) == 576
        assert units.bits_to_bytes(576) == 72


class TestTransmissionDelay:
    def test_paper_probe_on_bottleneck(self):
        # The paper's P/mu: 72 bytes at 128 kb/s = 4.5 ms.
        assert units.transmission_delay(72, units.kbps(128)) == \
            pytest.approx(0.0045)

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            units.transmission_delay(100, 0.0)


# ----------------------------------------------------------------------
# Property tests: conversions round-trip exactly (power-of-two-safe
# factors) or to float precision, across the magnitudes the library uses.
# ----------------------------------------------------------------------
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-9, max_value=1e12,
                     allow_nan=False, allow_infinity=False)


class TestRoundTripProperties:
    @given(finite)
    def test_ms_round_trip(self, value):
        assert units.seconds_to_ms(units.ms(value)) == pytest.approx(
            value, rel=1e-12, abs=1e-300)

    @given(finite)
    def test_us_round_trip(self, value):
        assert units.seconds_to_us(units.us(value)) == pytest.approx(
            value, rel=1e-12, abs=1e-300)

    @given(finite)
    def test_kbps_round_trip(self, value):
        assert units.bps_to_kbps(units.kbps(value)) == pytest.approx(
            value, rel=1e-12, abs=1e-300)

    @given(finite)
    def test_mbps_round_trip(self, value):
        assert units.bps_to_mbps(units.mbps(value)) == pytest.approx(
            value, rel=1e-12, abs=1e-300)

    @given(finite)
    def test_bytes_bits_round_trip_is_exact(self, value):
        # The factor 8 is a power of two, so this round-trip is lossless.
        assert units.bits_to_bytes(units.bytes_to_bits(value)) == value

    @given(positive, positive)
    def test_transmission_delay_scales_linearly(self, size_bytes, rate_bps):
        delay = units.transmission_delay(size_bytes, rate_bps)
        assert delay >= 0
        assert units.transmission_delay(2 * size_bytes, rate_bps) == \
            pytest.approx(2 * delay, rel=1e-9)

    @given(positive)
    def test_transmission_delay_equals_bits_over_rate(self, rate_bps):
        assert units.transmission_delay(72, rate_bps) == pytest.approx(
            units.bytes_to_bits(72) / rate_bps, rel=1e-12)

"""Tests for the dual-port capture ring buffer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SignalError
from repro.signal.ringbuffer import RingBuffer


class TestConstruction:
    def test_paper_capacity_is_power_of_two(self):
        rb = RingBuffer(8192)
        assert rb.capacity == 8192

    @pytest.mark.parametrize("bad", [0, 1, 3, 100, 8191])
    def test_non_power_of_two_rejected(self, bad):
        with pytest.raises(SignalError):
            RingBuffer(bad)


class TestWriteRead:
    def test_simple_roundtrip(self):
        rb = RingBuffer(16)
        rb.write(np.arange(10.0))
        for i in range(10):
            assert rb.read(i) == float(i)

    def test_wraparound(self):
        rb = RingBuffer(8)
        rb.write(np.arange(20.0))
        # Only the last 8 samples (12..19) remain.
        for i in range(12, 20):
            assert rb.read(i) == float(i)

    def test_read_overwritten_raises(self):
        rb = RingBuffer(8)
        rb.write(np.arange(20.0))
        with pytest.raises(SignalError):
            rb.read(11)

    def test_read_ahead_of_write_raises(self):
        rb = RingBuffer(8)
        rb.write(np.arange(4.0))
        with pytest.raises(SignalError):
            rb.read(4)

    def test_negative_index_raises(self):
        rb = RingBuffer(8)
        rb.write(np.arange(4.0))
        with pytest.raises(SignalError):
            rb.read(-1)

    def test_block_write_larger_than_capacity(self):
        rb = RingBuffer(8)
        rb.write(np.arange(100.0))
        assert rb.write_count == 100
        for i in range(92, 100):
            assert rb.read(i) == float(i)

    def test_multiple_small_writes(self):
        rb = RingBuffer(16)
        for chunk in np.array_split(np.arange(50.0), 7):
            rb.write(chunk)
        for i in range(50 - 16, 50):
            assert rb.read(i) == float(i)

    def test_empty_write_noop(self):
        rb = RingBuffer(8)
        rb.write(np.array([]))
        assert rb.write_count == 0


class TestInterpolatedFetch:
    def test_midpoint(self):
        rb = RingBuffer(16)
        rb.write(np.array([0.0, 10.0, 20.0]))
        assert rb.fetch_interpolated(0.5) == pytest.approx(5.0)
        assert rb.fetch_interpolated(1.25) == pytest.approx(12.5)

    def test_integer_address(self):
        rb = RingBuffer(16)
        rb.write(np.array([0.0, 10.0, 20.0]))
        assert rb.fetch_interpolated(1.0) == pytest.approx(10.0)

    def test_across_wrap_boundary(self):
        rb = RingBuffer(8)
        rb.write(np.arange(12.0))  # slots now hold 4..11
        assert rb.fetch_interpolated(10.5) == pytest.approx(10.5)

    def test_needs_two_valid_samples(self):
        rb = RingBuffer(8)
        rb.write(np.array([1.0]))
        with pytest.raises(SignalError):
            rb.fetch_interpolated(0.5)  # sample 1 not written yet


class TestSineRoundtrip:
    @settings(max_examples=10, deadline=None)
    @given(n_extra=st.integers(min_value=0, max_value=5000))
    def test_fetch_matches_source_after_any_history(self, n_extra):
        """Property: after arbitrary write history, interpolated fetches
        within the valid window reproduce the source signal."""
        rb = RingBuffer(1024)
        t = np.arange(n_extra + 1024)
        signal = np.sin(0.01 * t)
        rb.write(signal)
        lo = rb.write_count - rb.capacity  # oldest sample still held
        addr = lo + 100.25
        expected = np.interp(addr, t, signal)
        assert rb.fetch_interpolated(addr) == pytest.approx(expected, abs=1e-12)

"""Tests for the zero-crossing and period-length detectors."""

import numpy as np
import pytest

from repro.constants import TWO_PI
from repro.errors import SignalError
from repro.signal.zerocrossing import PeriodLengthDetector, ZeroCrossingDetector


def sine(f, fs, n, phase=0.0, amp=1.0):
    return amp * np.sin(TWO_PI * f * np.arange(n) / fs + phase)


class TestZeroCrossingDetector:
    def test_detects_rising_crossings_only(self):
        zcd = ZeroCrossingDetector()
        fs, f = 250e6, 1e6
        crossings = zcd.feed(sine(f, fs, 1000))
        # 1000 samples = 4 periods: rising crossings at 0(not counted,
        # no preceding negative), 250, 500, 750.
        assert len(crossings) == 3
        np.testing.assert_allclose(crossings, [250.0, 500.0, 750.0], atol=0.01)

    def test_subsample_interpolation(self):
        zcd = ZeroCrossingDetector()
        fs, f = 250e6, 800e3  # period 312.5 samples: crossings at x.5
        crossings = zcd.feed(sine(f, fs, 1000, phase=0.001))
        assert len(crossings) >= 2
        # Fractional part should track the 312.5-sample period.
        assert crossings[1] - crossings[0] == pytest.approx(312.5, abs=0.01)

    def test_state_across_blocks(self):
        zcd = ZeroCrossingDetector()
        fs, f = 250e6, 1e6
        s = sine(f, fs, 1000)
        all_at_once = ZeroCrossingDetector().feed(s)
        chunked = np.concatenate([zcd.feed(chunk) for chunk in np.array_split(s, 13)])
        np.testing.assert_allclose(chunked, all_at_once, atol=1e-9)

    def test_last_crossing_tracked(self):
        zcd = ZeroCrossingDetector()
        zcd.feed(sine(1e6, 250e6, 1000))
        assert zcd.last_crossing == pytest.approx(750.0, abs=0.01)

    def test_empty_feed(self):
        zcd = ZeroCrossingDetector()
        assert zcd.feed(np.array([])).size == 0

    def test_dc_signal_no_crossings(self):
        zcd = ZeroCrossingDetector()
        assert zcd.feed(np.full(100, 0.5)).size == 0


class TestPeriodLengthDetector:
    def test_not_ready_before_four_periods(self):
        pld = PeriodLengthDetector(250e6, average_over=4)
        pld.feed(sine(800e3, 250e6, 700))  # ~2.2 periods
        assert not pld.ready
        with pytest.raises(SignalError):
            pld.period_samples()

    def test_paper_four_period_average(self):
        pld = PeriodLengthDetector(250e6, average_over=4)
        pld.feed(sine(800e3, 250e6, 2000))  # 6.4 periods
        assert pld.ready
        assert pld.period_samples() == pytest.approx(312.5, abs=0.01)
        assert pld.frequency() == pytest.approx(800e3, rel=1e-5)

    def test_period_seconds(self):
        pld = PeriodLengthDetector(250e6)
        pld.feed(sine(800e3, 250e6, 2000))
        assert pld.period_seconds() == pytest.approx(1.25e-6, rel=1e-5)

    def test_tracks_frequency_change(self):
        pld = PeriodLengthDetector(250e6, average_over=4)
        pld.feed(sine(800e3, 250e6, 2000))
        f1 = pld.frequency()
        # Switch to 1 MHz: after 5+ new periods, the average reflects it.
        pld.feed(sine(1e6, 250e6, 2000))
        assert pld.frequency() == pytest.approx(1e6, rel=5e-3)
        assert pld.frequency() != pytest.approx(f1, rel=1e-4)

    def test_crossing_time(self):
        pld = PeriodLengthDetector(250e6)
        pld.feed(sine(1e6, 250e6, 1000))
        assert pld.last_crossing_time == pytest.approx(750 / 250e6, rel=1e-6)

    def test_no_crossing_yet_raises(self):
        pld = PeriodLengthDetector(250e6)
        with pytest.raises(SignalError):
            _ = pld.last_crossing_index

    def test_quantised_input_accuracy(self):
        """With 14-bit quantised input the detector still finds 800 kHz to
        ppm accuracy — the rationale for the 4-period average."""
        from repro.signal.adc import ADC

        adc = ADC()
        pld = PeriodLengthDetector(250e6)
        pld.feed(adc.quantize(sine(800e3, 250e6, 4000, amp=0.9)))
        assert pld.frequency() == pytest.approx(800e3, rel=1e-4)

    def test_validation(self):
        with pytest.raises(SignalError):
            PeriodLengthDetector(0.0)
        with pytest.raises(SignalError):
            PeriodLengthDetector(1e6, average_over=0)


class _NaiveZeroCrossingDetector:
    """Sample-by-sample reference for the vectorized detector."""

    def __init__(self):
        self._prev = None
        self._consumed = 0
        self.last_crossing = None

    def feed(self, samples):
        out = []
        for s in np.asarray(samples, dtype=float).ravel():
            prev = self._prev
            if prev is not None and prev < 0.0 <= s:
                d = s - prev
                frac = -prev / d if d != 0.0 else 0.0
                out.append(self._consumed - 1 + frac)
            self._prev = s
            self._consumed += 1
        if out:
            self.last_crossing = out[-1]
        return np.asarray(out)


class TestVectorizedAgainstNaive:
    """The block-vectorized detector must match the per-sample reference
    exactly — crossings and interpolated fractions across arbitrary
    block boundaries."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        signal = np.sin(np.arange(3000) * 0.021) + rng.normal(0, 0.15, 3000)
        fast = ZeroCrossingDetector()
        naive = _NaiveZeroCrossingDetector()
        i = 0
        while i < signal.size:
            n = int(rng.integers(1, 200))
            block = signal[i:i + n]
            got = fast.feed(block)
            want = naive.feed(block)
            assert np.array_equal(got, want)
            i += n
        assert fast.last_crossing == naive.last_crossing
        assert fast.samples_consumed == naive._consumed

    def test_single_sample_blocks_equal_one_block(self):
        signal = np.sin(np.arange(500) * 0.07)
        one = ZeroCrossingDetector().feed(signal)
        stream = ZeroCrossingDetector()
        per_sample = np.concatenate([stream.feed([v]) for v in signal])
        assert np.array_equal(one, per_sample)

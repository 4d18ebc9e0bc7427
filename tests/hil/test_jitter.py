"""Tests for the timing/jitter models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hil.jitter import CgraTimingModel, SoftwareTimingModel, TimingSample


class TestTimingSample:
    def test_summary(self):
        lat = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        s = TimingSample.from_latencies(lat)
        assert s.mean == pytest.approx(22.0)
        assert s.worst == 100.0
        assert s.p50 == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingSample.from_latencies(np.array([]))


class TestCgraTiming:
    def test_deterministic(self):
        m = CgraTimingModel(write_tick=20)
        s = m.sample(1000)
        assert np.all(s == s[0])
        assert s[0] == pytest.approx(20 / 111e6)

    def test_zero_jitter(self):
        stats = TimingSample.from_latencies(CgraTimingModel(20).sample(1000))
        assert stats.std < 1e-20  # exactly constant up to fp summation dust
        assert stats.worst == stats.p50

    def test_output_quantisation_is_one_dac_sample(self):
        assert CgraTimingModel(20).output_time_quantisation() == pytest.approx(4e-9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CgraTimingModel(-1)
        with pytest.raises(ConfigurationError):
            CgraTimingModel(1, cgra_clock_hz=0.0)


class TestSoftwareTiming:
    def test_median_near_base(self, rng):
        m = SoftwareTimingModel(base_latency=400e-9)
        s = m.sample(100_000, rng)
        assert np.median(s) == pytest.approx(400e-9, rel=0.05)

    def test_heavy_tail_present(self, rng):
        m = SoftwareTimingModel()
        s = m.sample(500_000, rng)
        # p99.9 should be far above the median: the tail events.
        assert np.percentile(s, 99.99) > 3 * np.median(s)

    def test_nonnegative(self, rng):
        s = SoftwareTimingModel().sample(100_000, rng)
        assert s.min() > 0.0

    def test_misses_at_microsecond_deadline(self):
        """The paper's infeasibility claim: at ~1 us revolution periods a
        software loop with realistic OS jitter misses deadlines."""
        m = SoftwareTimingModel()
        latencies = m.sample(500_000, np.random.default_rng(4))
        assert np.count_nonzero(latencies > 1e-6) / latencies.size > 1e-5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SoftwareTimingModel(base_latency=0.0)
        with pytest.raises(ConfigurationError):
            SoftwareTimingModel(tail_probability=2.0)

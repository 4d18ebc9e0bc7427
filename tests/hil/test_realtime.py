"""Tests for deadline monitoring."""

import pytest

from repro import obs
from repro.errors import ConfigurationError, RealTimeViolation
from repro.hil.realtime import DeadlineMonitor, JitterStats


class TestDeadlineMonitor:
    def test_slack_accounting(self):
        mon = DeadlineMonitor(schedule_length_ticks=76, cgra_clock_hz=111e6)
        slack = mon.check_revolution(1 / 800e3)
        assert slack == pytest.approx(111e6 / 800e3 - 76)

    def test_raise_policy(self):
        mon = DeadlineMonitor(128)
        with pytest.raises(RealTimeViolation):
            mon.check_revolution(1 / 1.0e6)  # 111 ticks < 128

    def test_raise_policy_still_records_the_miss(self):
        mon = DeadlineMonitor(128)
        with pytest.raises(RealTimeViolation):
            mon.check_revolution(1 / 1.0e6)
        stats = mon.stats()
        assert stats.misses == 1 and stats.n_iterations == 1

    def test_stats_all_met(self):
        mon = DeadlineMonitor(76)
        for _ in range(10):
            mon.check_revolution(1 / 800e3)
        stats = mon.stats()
        assert stats.met
        assert stats.min_slack == pytest.approx(stats.mean_slack)

    def test_stats_requires_data(self):
        with pytest.raises(ConfigurationError):
            DeadlineMonitor(76).stats()

    def test_stats_allow_empty_is_well_defined(self):
        stats = DeadlineMonitor(76).stats(allow_empty=True)
        assert stats.n_iterations == 0
        assert stats.misses == 0
        assert stats.mean_slack == 0.0
        assert stats.p50_slack == 0.0 and stats.p99_slack == 0.0
        # No iterations is not evidence of meeting the deadline.
        assert not stats.met

    def test_empty_classmethod_matches_allow_empty(self):
        assert DeadlineMonitor(76).stats(allow_empty=True) == JitterStats.empty()

    def test_percentiles(self):
        mon = DeadlineMonitor(10, cgra_clock_hz=1e6)
        # Slack = 1e6/f - 10; choose periods for slacks 0..99 ticks.
        for s in range(100):
            mon.check_revolution((s + 10) / 1e6)
        stats = mon.stats()
        assert stats.p50_slack == pytest.approx(49.5)
        assert stats.p99_slack == pytest.approx(98.01)
        assert stats.min_slack == 0.0

    def test_slack_record_exposed(self):
        mon = DeadlineMonitor(76)
        mon.check_revolution(1 / 800e3)
        assert mon.n_checked == 1
        assert mon.slacks().shape == (1,)

    def test_feeds_obs_histogram_and_miss_counter(self):
        obs.reset()
        obs.enable()
        try:
            mon = DeadlineMonitor(128)
            mon.check_revolution(1 / 800e3)
            with pytest.raises(RealTimeViolation):
                mon.check_revolution(1 / 1.0e6)  # miss
            mon.publish()
            hist = obs.metrics().get("hil_slack_ticks")
            misses = obs.metrics().get("hil_deadline_misses_total")
            assert hist.count() == 2
            assert misses.value() == 1
        finally:
            obs.disable()
            obs.reset()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DeadlineMonitor(0)
        with pytest.raises(ConfigurationError):
            DeadlineMonitor(10).check_revolution(0.0)

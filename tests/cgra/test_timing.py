"""Tests for clock domains and the real-time capacity derivation."""

import pytest

from repro.cgra.timing import CGRA_CLOCK, SYSTEM_CLOCK, ClockDomain, max_revolution_frequency
from repro.errors import ConfigurationError


class TestClockDomain:
    def test_paper_clocks(self):
        assert SYSTEM_CLOCK.frequency_hz == 250e6
        assert CGRA_CLOCK.frequency_hz == 111e6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ClockDomain("bad", 0.0)


class TestPaperNumbers:
    """The exact arithmetic of Section IV-B, from the paper's own values."""

    def test_128_ticks_is_867_khz(self):
        assert max_revolution_frequency(128) == pytest.approx(867e3, rel=2e-3)

    def test_111_ticks_is_1_mhz(self):
        assert max_revolution_frequency(111) == pytest.approx(1.0e6, rel=1e-9)

    def test_99_ticks_is_1_12_mhz(self):
        assert max_revolution_frequency(99) == pytest.approx(1.12e6, rel=2e-3)

    def test_93_ticks_is_1_19_mhz(self):
        assert max_revolution_frequency(93) == pytest.approx(1.19e6, rel=4e-3)


class TestDeadline:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            max_revolution_frequency(0)

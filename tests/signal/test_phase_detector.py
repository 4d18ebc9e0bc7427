"""Tests for the DSP phase detector."""

import numpy as np
import pytest

from repro.constants import TWO_PI
from repro.errors import SignalError
from repro.signal.phase_detector import IQPhaseDetector
from repro.signal.gauss_pulse import GaussPulseGenerator


class TestIQDetector:
    def test_sine_phase_convention(self):
        fs, f = 250e6, 3.2e6
        t = np.arange(8000) / fs
        det = IQPhaseDetector(f)
        assert det.measure(np.sin(TWO_PI * f * t), fs) == pytest.approx(0.0, abs=0.5)
        assert det.measure(np.cos(TWO_PI * f * t), fs) == pytest.approx(90.0, abs=0.5)

    def test_phase_shift_recovered(self):
        fs, f = 250e6, 3.2e6
        t = np.arange(8000) / fs
        for deg in (-120.0, -10.0, 25.0, 170.0):
            s = np.sin(TWO_PI * f * t + np.radians(deg))
            assert IQPhaseDetector(f).measure(s, fs) == pytest.approx(deg, abs=0.5)

    def test_pulse_train_phase_linear_in_delay(self):
        """The beam observable: pulse-train phase tracks arrival delay."""
        fs, f_rf = 250e6, 3.2e6
        det = IQPhaseDetector(f_rf)

        def beam(delay):
            g = GaussPulseGenerator(sigma=20e-9, sample_rate=fs)
            for k in range(32):
                g.schedule(k / f_rf + delay + 1e-7)
            return g.render(0.0, 4000).samples

        p0 = det.measure(beam(0.0), fs)
        p1 = det.measure(beam(5e-9), fs)
        expected_shift = -360.0 * f_rf * 5e-9
        assert (p1 - p0) == pytest.approx(expected_shift, abs=0.2)

    def test_too_short_block(self):
        det = IQPhaseDetector(1e6)
        with pytest.raises(SignalError):
            det.measure(np.zeros(4), 250e6)

    def test_silent_block(self):
        det = IQPhaseDetector(1e6)
        with pytest.raises(SignalError):
            det.measure(np.zeros(100), 250e6)

    def test_validation(self):
        with pytest.raises(SignalError):
            IQPhaseDetector(0.0)

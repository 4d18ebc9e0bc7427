"""Tests for the sampled-waveform container."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.signal.waveform import Waveform


class TestBasics:
    def test_duration_and_dt(self):
        wf = Waveform(np.zeros(100), sample_rate=1e6)
        assert wf.duration == pytest.approx(100e-6)
        assert wf.dt == pytest.approx(1e-6)
        assert len(wf) == 100

    def test_time_axis(self):
        wf = Waveform(np.zeros(4), sample_rate=2.0, t0=1.0)
        np.testing.assert_allclose(wf.time_axis(), [1.0, 1.5, 2.0, 2.5])

    def test_requires_1d(self):
        with pytest.raises(SignalError):
            Waveform(np.zeros((2, 2)), sample_rate=1.0)

    def test_requires_positive_rate(self):
        with pytest.raises(SignalError):
            Waveform(np.zeros(4), sample_rate=0.0)

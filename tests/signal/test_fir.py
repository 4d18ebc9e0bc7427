"""Tests for the beam-phase control filter."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.signal.fir import PhaseControlFilter


class TestPhaseControlFilter:
    def test_paper_defaults(self):
        f = PhaseControlFilter()
        assert f.f_pass == 1.4e3
        assert f.gain == -5.0
        assert f.recursion_factor == 0.99

    def test_unity_normalisation_at_f_pass(self):
        f = PhaseControlFilter(gain=-5.0)
        assert abs(f.frequency_response(1.4e3))[0] == pytest.approx(5.0, rel=1e-9)

    def test_dc_blocked(self):
        f = PhaseControlFilter()
        # Constant input (the dead-time offset of Fig. 5) decays to zero.
        out = [f.step(42.0) for _ in range(3000)]
        assert abs(out[-1]) < 1e-2 * abs(out[0]) + 1e-9

    def test_corner_frequency_near_fs(self):
        # With r = 0.99 at 800 kHz the corner lands right at the
        # synchrotron frequency — why the paper's parameters are optimal.
        f = PhaseControlFilter(recursion_factor=0.99, sample_rate=800e3)
        assert f.corner_frequency() == pytest.approx(1273.0, rel=0.01)

    def test_phase_lead_below_corner(self):
        f = PhaseControlFilter(gain=1.0)
        h = f.frequency_response(200.0)[0]
        # Positive (lead) phase at low frequency: differentiator behaviour.
        assert 45.0 < np.degrees(np.angle(h)) <= 90.5

    def test_impulse_response_decays_with_r(self):
        f = PhaseControlFilter(recursion_factor=0.9, sample_rate=800e3, gain=1.0)
        out = np.array([f.step(x) for x in [1.0] + [0.0] * 99])
        # After the first two taps the response decays geometrically by r.
        ratios = out[4:20] / out[3:19]
        np.testing.assert_allclose(ratios, 0.9, atol=1e-6)

    def test_validation(self):
        with pytest.raises(SignalError):
            PhaseControlFilter(recursion_factor=1.0)
        with pytest.raises(SignalError):
            PhaseControlFilter(f_pass=500e3, sample_rate=800e3)
        with pytest.raises(SignalError):
            PhaseControlFilter(sample_rate=-1.0)

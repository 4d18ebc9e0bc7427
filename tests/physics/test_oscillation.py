"""Tests for oscillation analysis (frequency estimation, damping fits)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PhysicsError
from repro.physics.oscillation import estimate_oscillation_frequency, fit_damping_envelope


def _sine(f, fs, n, phase=0.0, amp=1.0, offset=0.0):
    t = np.arange(n) / fs
    return t, offset + amp * np.sin(2 * np.pi * f * t + phase)


class TestFrequencyEstimation:
    def test_pure_sine(self):
        t, y = _sine(1280.0, 100e3, 4096)
        assert estimate_oscillation_frequency(t, y) == pytest.approx(1280.0, rel=1e-3)

    def test_sub_bin_resolution(self):
        # 1281.7 Hz with a 24 Hz bin spacing: parabolic interpolation needed.
        t, y = _sine(1281.7, 100e3, 4096)
        assert estimate_oscillation_frequency(t, y) == pytest.approx(1281.7, rel=2e-3)

    def test_dc_offset_removed(self):
        t, y = _sine(1200.0, 100e3, 4096, offset=50.0)
        assert estimate_oscillation_frequency(t, y) == pytest.approx(1200.0, rel=1e-3)

    def test_damped_sine(self):
        t = np.arange(8192) / 100e3
        y = np.exp(-t * 200) * np.sin(2 * np.pi * 1280 * t)
        assert estimate_oscillation_frequency(t, y) == pytest.approx(1280.0, rel=0.01)

    def test_noise_robust(self, rng):
        t, y = _sine(1280.0, 100e3, 8192)
        y = y + rng.normal(0, 0.2, y.shape)
        assert estimate_oscillation_frequency(t, y) == pytest.approx(1280.0, rel=0.01)

    def test_too_short_raises(self):
        with pytest.raises(PhysicsError):
            estimate_oscillation_frequency(np.array([0.0, 1.0]), np.array([0.0, 1.0]))

    def test_nonuniform_raises(self):
        t = np.array([0.0, 1.0, 3.0, 4.0, 5.0])
        with pytest.raises(PhysicsError):
            estimate_oscillation_frequency(t, np.zeros(5))

    def test_shape_mismatch_raises(self):
        with pytest.raises(PhysicsError):
            estimate_oscillation_frequency(np.zeros(10), np.zeros(11))

    @settings(max_examples=20, deadline=None)
    @given(f=st.floats(min_value=500.0, max_value=5000.0))
    def test_frequency_property(self, f):
        t, y = _sine(f, 100e3, 8192)
        assert estimate_oscillation_frequency(t, y) == pytest.approx(f, rel=5e-3)


class TestDampingFit:
    def test_known_decay_rate(self):
        t = np.arange(20000) / 100e3
        rate = 150.0
        y = np.exp(-rate * t) * np.sin(2 * np.pi * 1280 * t)
        fit = fit_damping_envelope(t, y)
        assert fit.rate == pytest.approx(rate, rel=0.05)
        assert fit.r_squared > 0.95
        assert fit.time_constant == pytest.approx(1 / rate, rel=0.05)

    def test_undamped_trace(self):
        t, y = _sine(1280.0, 100e3, 20000)
        fit = fit_damping_envelope(t, y)
        assert abs(fit.rate) < 5.0  # essentially zero

    def test_offset_invariant(self):
        t = np.arange(20000) / 100e3
        y = 42.0 + np.exp(-100 * t) * np.sin(2 * np.pi * 1280 * t)
        fit = fit_damping_envelope(t, y)
        assert fit.rate == pytest.approx(100.0, rel=0.08)

    def test_flat_trace_raises(self):
        with pytest.raises(PhysicsError):
            fit_damping_envelope(np.arange(10.0), np.zeros(10))

    def test_infinite_time_constant_for_growth(self):
        t = np.arange(20000) / 100e3
        y = np.exp(+20 * t) * np.sin(2 * np.pi * 1280 * t)
        fit = fit_damping_envelope(t, y)
        assert fit.rate < 0  # growing
        assert fit.time_constant == float("inf")

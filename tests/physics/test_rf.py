"""Tests for the RF system, bucket stability and synchrotron frequency."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsError
from repro.physics.rf import (
    RFSystem,
    bucket_is_stable,
    synchrotron_frequency,
    voltage_for_synchrotron_frequency,
)


class TestRFSystem:
    def test_rf_frequency_is_harmonic_multiple(self):
        rf = RFSystem(harmonic=4, voltage=5e3)
        assert rf.rf_frequency(800e3) == pytest.approx(3.2e6)

    def test_gap_voltage_zero_at_crossing(self):
        rf = RFSystem(harmonic=4, voltage=5e3)
        assert rf.gap_voltage_at(0.0, 800e3) == pytest.approx(0.0, abs=1e-9)

    def test_gap_voltage_sign_convention(self):
        # Paper Fig. 1: a late particle (dt > 0) sees a higher voltage.
        rf = RFSystem(harmonic=4, voltage=5e3)
        assert rf.gap_voltage_at(10e-9, 800e3) > 0.0
        assert rf.gap_voltage_at(-10e-9, 800e3) < 0.0

    def test_gap_voltage_periodicity(self):
        rf = RFSystem(harmonic=4, voltage=5e3)
        t_rf = 1.0 / (4 * 800e3)
        assert rf.gap_voltage_at(12e-9 + t_rf, 800e3) == pytest.approx(
            rf.gap_voltage_at(12e-9, 800e3), abs=1e-6
        )

    def test_phase_offset_shifts_voltage(self):
        rf = RFSystem(harmonic=4, voltage=5e3, phase_offset=math.radians(8))
        assert rf.gap_voltage_at(0.0, 800e3) == pytest.approx(
            5e3 * math.sin(math.radians(8))
        )

    def test_with_phase_offset_returns_copy(self):
        rf = RFSystem(harmonic=4, voltage=5e3)
        rf2 = rf.with_phase_offset(0.3)
        assert rf.phase_offset == 0.0
        assert rf2.phase_offset == 0.3
        assert rf2.voltage == rf.voltage

    def test_array_delta_t(self):
        rf = RFSystem(harmonic=2, voltage=1.0)
        v = rf.gap_voltage_at(np.array([0.0, 1e-7]), 800e3)
        assert v.shape == (2,)

    def test_invalid_harmonic(self):
        with pytest.raises(ConfigurationError):
            RFSystem(harmonic=0, voltage=1e3)

    def test_negative_voltage(self):
        with pytest.raises(ConfigurationError):
            RFSystem(harmonic=1, voltage=-5.0)


class TestStability:
    def test_below_transition_rising_slope_stable(self):
        assert bucket_is_stable(eta=-0.6, synchronous_phase=0.0)

    def test_above_transition_rising_slope_unstable(self):
        assert not bucket_is_stable(eta=0.02, synchronous_phase=0.0)

    def test_above_transition_falling_slope_stable(self):
        assert bucket_is_stable(eta=0.02, synchronous_phase=math.pi)


class TestSynchrotronFrequency:
    def test_mde_calibration(self, ring, ion, gamma0):
        """The paper's operating point: f_s = 1.28 kHz needs ~4.9 kV."""
        probe = RFSystem(harmonic=4, voltage=1.0)
        v = voltage_for_synchrotron_frequency(ring, ion, probe, gamma0, 1.28e3)
        assert 3e3 < v < 8e3  # kV scale, as the paper's "several 10 kV" ceiling allows
        rf = probe.with_voltage(v)
        assert synchrotron_frequency(ring, ion, rf, gamma0) == pytest.approx(1.28e3, rel=1e-9)

    def test_scales_with_sqrt_voltage(self, ring, ion, gamma0, rf):
        f1 = synchrotron_frequency(ring, ion, rf, gamma0)
        f2 = synchrotron_frequency(ring, ion, rf.with_voltage(4 * rf.voltage), gamma0)
        assert f2 == pytest.approx(2 * f1, rel=1e-12)

    def test_scales_with_sqrt_harmonic(self, ring, ion, gamma0, rf):
        f_h4 = synchrotron_frequency(ring, ion, rf, gamma0)
        rf_h1 = RFSystem(harmonic=1, voltage=rf.voltage)
        f_h1 = synchrotron_frequency(ring, ion, rf_h1, gamma0)
        assert f_h4 == pytest.approx(2.0 * f_h1, rel=1e-12)

    def test_much_slower_than_revolution(self, ring, ion, gamma0, rf):
        # Synchrotron motion is slow: f_s / f_R ~ 1.6e-3 at the MDE point.
        f_s = synchrotron_frequency(ring, ion, rf, gamma0)
        assert f_s < 1e-2 * ring.revolution_frequency(gamma0)

    def test_unstable_bucket_raises(self, ring, ion, rf):
        gamma_above = 1.5 / np.sqrt(ring.alpha_c)  # 1.5 γ_t
        with pytest.raises(PhysicsError):
            synchrotron_frequency(ring, ion, rf, gamma_above)

    def test_negative_target_rejected(self, ring, ion, gamma0, rf):
        with pytest.raises(PhysicsError):
            voltage_for_synchrotron_frequency(ring, ion, rf, gamma0, -5.0)

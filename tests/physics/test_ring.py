"""Tests for the synchrotron ring and phase-slip relations (Eqs. 4–5)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError, PhysicsError
from repro.physics.ring import SIS18, SynchrotronRing


class TestSIS18:
    def test_circumference(self):
        assert SIS18.circumference == pytest.approx(216.72)

    def test_transition_gamma(self):
        # γ_t = 1/√α_c
        assert 1.0 / np.sqrt(SIS18.alpha_c) == pytest.approx(5.45, rel=1e-9)

    def test_mde_operating_point_below_transition(self):
        gamma = SIS18.gamma_from_revolution_frequency(800e3)
        assert gamma < 1.0 / np.sqrt(SIS18.alpha_c)
        assert SIS18.phase_slip(gamma) < 0.0


class TestPhaseSlip:
    def test_sign_change_at_transition(self):
        ring = SIS18
        gt = 1.0 / np.sqrt(ring.alpha_c)
        assert ring.phase_slip(gt * 0.9) < 0.0
        assert ring.phase_slip(gt * 1.1) > 0.0
        assert ring.phase_slip(gt) == pytest.approx(0.0, abs=1e-12)

    def test_array_input(self):
        etas = SIS18.phase_slip(np.array([1.1, 2.0, 10.0]))
        assert etas.shape == (3,)
        assert etas[0] < 0 < etas[2]

    def test_invalid_gamma(self):
        with pytest.raises(PhysicsError):
            SIS18.phase_slip(0.5)

    def test_eta_approaches_alpha_c(self):
        assert SIS18.phase_slip(1e9) == pytest.approx(SIS18.alpha_c, rel=1e-6)


class TestRevolutionKinematics:
    def test_frequency_roundtrip(self):
        for f in (100e3, 800e3, 1.2e6):
            gamma = SIS18.gamma_from_revolution_frequency(f)
            assert SIS18.revolution_frequency(gamma) == pytest.approx(f, rel=1e-12)

    def test_beta_from_frequency(self):
        beta = SIS18.beta_from_revolution_frequency(800e3)
        assert beta == pytest.approx(800e3 * 216.72 / SPEED_OF_LIGHT)

    def test_superluminal_frequency_rejected(self):
        with pytest.raises(PhysicsError):
            SIS18.beta_from_revolution_frequency(2e6)
        with pytest.raises(PhysicsError):
            SIS18.beta_from_revolution_frequency(0.0)

    @given(st.floats(min_value=1e3, max_value=1.38e6))
    def test_roundtrip_property(self, f):
        gamma = SIS18.gamma_from_revolution_frequency(f)
        assert SIS18.revolution_frequency(gamma) == pytest.approx(f, rel=1e-9)


class TestValidation:
    def test_negative_circumference(self):
        with pytest.raises(ConfigurationError):
            SynchrotronRing("bad", circumference=-1.0, alpha_c=0.03)

    def test_negative_alpha_c(self):
        with pytest.raises(ConfigurationError):
            SynchrotronRing("bad", circumference=100.0, alpha_c=-0.01)
        with pytest.raises(ConfigurationError):
            SynchrotronRing("bad", circumference=100.0, alpha_c=0.0)

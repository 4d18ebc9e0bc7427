"""Unit and property tests for the relativistic kinematics (Eq. 1)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import PhysicsError
from repro.physics.relativity import (
    beta_from_gamma,
    beta_gamma_product,
    gamma_from_beta,
    gamma_from_kinetic_energy,
    kinetic_energy_from_gamma,
    momentum_ev_per_c,
    velocity,
)


class TestGammaBeta:
    def test_rest_particle(self):
        assert gamma_from_beta(0.0) == 1.0
        assert beta_from_gamma(1.0) == 0.0

    def test_known_value(self):
        # beta = 0.6 -> gamma = 1.25 (3-4-5 triangle)
        assert gamma_from_beta(0.6) == pytest.approx(1.25)
        assert beta_from_gamma(1.25) == pytest.approx(0.6)

    def test_roundtrip_scalar(self):
        for beta in (0.1, 0.5783, 0.99, 0.999999):
            assert beta_from_gamma(gamma_from_beta(beta)) == pytest.approx(beta, rel=1e-12)

    def test_array_input_returns_array(self):
        betas = np.array([0.1, 0.5, 0.9])
        gammas = gamma_from_beta(betas)
        assert isinstance(gammas, np.ndarray)
        np.testing.assert_allclose(beta_from_gamma(gammas), betas)

    def test_scalar_input_returns_float(self):
        assert isinstance(gamma_from_beta(0.5), float)
        assert isinstance(beta_from_gamma(2.0), float)

    def test_superluminal_rejected(self):
        with pytest.raises(PhysicsError):
            gamma_from_beta(1.0)
        with pytest.raises(PhysicsError):
            gamma_from_beta(-1.2)

    def test_subunity_gamma_rejected(self):
        with pytest.raises(PhysicsError):
            beta_from_gamma(0.99)
        with pytest.raises(PhysicsError):
            beta_gamma_product(0.5)

    @given(st.floats(min_value=1e-3, max_value=0.999999))
    def test_roundtrip_property(self, beta):
        # Below beta ~ 1e-3 the gamma representation loses the velocity to
        # cancellation in 1 - beta^2 (gamma - 1 ~ 5e-7 eats the mantissa);
        # the tracker never operates there (injection is beta >= 0.15).
        assert beta_from_gamma(gamma_from_beta(beta)) == pytest.approx(beta, rel=1e-7)

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e6))
    def test_gamma_beta_monotonic(self, gamma):
        beta = beta_from_gamma(gamma)
        assert 0.0 <= beta < 1.0
        assert beta_from_gamma(gamma * 2) > beta


class TestEnergyMomentum:
    def test_beta_gamma_identity(self):
        # betagamma^2 = gamma^2 - 1
        for gamma in (1.0, 1.2258, 5.0):
            bg = beta_gamma_product(gamma)
            assert bg**2 == pytest.approx(gamma**2 - 1.0, rel=1e-12)

    def test_kinetic_energy_roundtrip(self):
        rest = 13.04e9  # ~14 u in eV
        for t in (0.0, 1e6, 3e9):
            gamma = gamma_from_kinetic_energy(t, rest)
            assert kinetic_energy_from_gamma(gamma, rest) == pytest.approx(t, abs=1e-3)

    def test_kinetic_energy_negative_rejected(self):
        with pytest.raises(PhysicsError):
            gamma_from_kinetic_energy(-1.0, 1e9)
        with pytest.raises(PhysicsError):
            gamma_from_kinetic_energy(1.0, 0.0)

    def test_momentum_scales_with_rest_energy(self):
        assert momentum_ev_per_c(2.0, 2e9) == pytest.approx(2 * momentum_ev_per_c(2.0, 1e9))

    def test_velocity_below_c(self):
        assert velocity(1.2258) == pytest.approx(0.5783 * 299_792_458.0, rel=1e-3)
        assert velocity(100.0) < 299_792_458.0
        # At extreme gamma, beta rounds to 1.0 in float64; never above c.
        assert velocity(1e9) <= 299_792_458.0

    @given(st.floats(min_value=0.0, max_value=1e12))
    def test_kinetic_energy_property(self, t):
        rest = 9.3e9
        gamma = gamma_from_kinetic_energy(t, rest)
        assert gamma >= 1.0
        # Absolute floor: gamma carries ~2e-16 relative precision, so T
        # round-trips to within rest_energy * eps ~ 2e-6 eV.
        assert kinetic_energy_from_gamma(gamma, rest) == pytest.approx(t, rel=1e-9, abs=1e-5)

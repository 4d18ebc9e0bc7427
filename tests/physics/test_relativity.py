"""Unit and property tests for the relativistic kinematics (Eq. 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import PhysicsError
from repro.physics.relativity import beta_from_gamma


class TestGammaBeta:
    def test_rest_particle(self):
        assert beta_from_gamma(1.0) == 0.0

    def test_known_value(self):
        # beta = 0.6 -> gamma = 1.25 (3-4-5 triangle)
        assert beta_from_gamma(1.25) == pytest.approx(0.6)

    def test_roundtrip_scalar(self):
        for beta in (0.1, 0.5783, 0.99, 0.999999):
            gamma = 1.0 / math.sqrt(1.0 - beta * beta)
            assert beta_from_gamma(gamma) == pytest.approx(beta, rel=1e-12)

    def test_array_input_returns_array(self):
        betas = np.array([0.1, 0.5, 0.9])
        out = beta_from_gamma(1.0 / np.sqrt(1.0 - betas * betas))
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, betas)

    def test_scalar_input_returns_float(self):
        assert isinstance(beta_from_gamma(2.0), float)

    def test_subunity_gamma_rejected(self):
        with pytest.raises(PhysicsError):
            beta_from_gamma(0.99)
        with pytest.raises(PhysicsError):
            beta_from_gamma(np.array([1.5, 0.5]))

    @given(st.floats(min_value=1e-3, max_value=0.999999))
    def test_roundtrip_property(self, beta):
        # Below beta ~ 1e-3 the gamma representation loses the velocity to
        # cancellation in 1 - beta^2 (gamma - 1 ~ 5e-7 eats the mantissa);
        # the tracker never operates there (injection is beta >= 0.15).
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        assert beta_from_gamma(gamma) == pytest.approx(beta, rel=1e-7)

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e6))
    def test_gamma_beta_monotonic(self, gamma):
        beta = beta_from_gamma(gamma)
        assert 0.0 <= beta < 1.0
        assert beta_from_gamma(gamma * 2) > beta

"""Tests for matched bunch distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PhysicsError
from repro.physics.distributions import (
    gaussian_bunch,
    matched_rms_delta_gamma,
)


class TestMatchedRatio:
    def test_positive(self, ring, ion, rf, gamma0):
        assert matched_rms_delta_gamma(ring, ion, rf, gamma0, 30e-9) > 0.0

    def test_linear_in_sigma(self, ring, ion, rf, gamma0):
        r1 = matched_rms_delta_gamma(ring, ion, rf, gamma0, 10e-9)
        r2 = matched_rms_delta_gamma(ring, ion, rf, gamma0, 20e-9)
        assert r2 == pytest.approx(2 * r1)

    def test_zero_sigma(self, ring, ion, rf, gamma0):
        assert matched_rms_delta_gamma(ring, ion, rf, gamma0, 0.0) == 0.0

    def test_negative_sigma_rejected(self, ring, ion, rf, gamma0):
        with pytest.raises(PhysicsError):
            matched_rms_delta_gamma(ring, ion, rf, gamma0, -1e-9)

    def test_unstable_bucket_rejected(self, ring, ion, rf):
        with pytest.raises(PhysicsError):
            matched_rms_delta_gamma(ring, ion, rf, 2.0 / np.sqrt(ring.alpha_c), 1e-9)


class TestGaussianBunch:
    def test_shapes(self, ring, ion, rf, gamma0, rng):
        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, 30e-9, 1000, rng)
        assert dt.shape == dg.shape == (1000,)

    def test_moments(self, ring, ion, rf, gamma0, rng):
        sigma = 30e-9
        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, sigma, 50000, rng)
        assert dt.std() == pytest.approx(sigma, rel=0.02)
        expected_dg = matched_rms_delta_gamma(ring, ion, rf, gamma0, sigma)
        assert dg.std() == pytest.approx(expected_dg, rel=0.02)
        assert abs(dt.mean()) < 3 * sigma / np.sqrt(50000)

    def test_centre_offset(self, ring, ion, rf, gamma0, rng):
        dt, _ = gaussian_bunch(ring, ion, rf, gamma0, 10e-9, 20000, rng, centre_delta_t=50e-9)
        assert dt.mean() == pytest.approx(50e-9, abs=1e-9)

    def test_reproducible_with_seed(self, ring, ion, rf, gamma0):
        a = gaussian_bunch(ring, ion, rf, gamma0, 30e-9, 100, np.random.default_rng(7))
        b = gaussian_bunch(ring, ion, rf, gamma0, 30e-9, 100, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])

    def test_zero_particles_rejected(self, ring, ion, rf, gamma0, rng):
        with pytest.raises(PhysicsError):
            gaussian_bunch(ring, ion, rf, gamma0, 30e-9, 0, rng)


class TestMatchingProperty:
    # Upper bound 18 ns: beyond that the matched energy spread reaches
    # the bucket half-height within ~5 sigma and tail particles escape,
    # which is physical loss, not a matching failure.
    @settings(max_examples=10, deadline=None)
    @given(sigma=st.floats(min_value=5e-9, max_value=18e-9))
    def test_matched_bunch_sigma_stable_one_synchrotron_period(
        self, ring, ion, rf, gamma0, sigma
    ):
        """Property: a matched bunch's sigma oscillates < 10% over half a
        synchrotron period regardless of its length."""
        from repro.physics.multiparticle import MultiParticleTracker

        rng = np.random.default_rng(99)
        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, sigma, 1500, rng)
        tracker = MultiParticleTracker(ring, ion, rf, dt, dg, gamma0)
        rec = tracker.track(300, f_rev=800e3, record_every=30)
        assert rec.std_delta_t.max() / rec.std_delta_t.min() < 1.1

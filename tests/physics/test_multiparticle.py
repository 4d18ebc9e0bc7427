"""Tests for the vectorised multi-macro-particle tracker."""

import numpy as np
import pytest

from repro.errors import PhysicsError
from repro.physics.multiparticle import MultiParticleTracker
from repro.physics.distributions import gaussian_bunch
from repro.physics.oscillation import estimate_oscillation_frequency
from repro.physics.rf import synchrotron_frequency
from repro.physics.tracking import MacroParticleTracker


class TestConstruction:
    def test_shapes_must_match(self, ring, ion, rf, gamma0):
        with pytest.raises(PhysicsError):
            MultiParticleTracker(ring, ion, rf, np.zeros(3), np.zeros(4), gamma0)

    def test_needs_particles(self, ring, ion, rf, gamma0):
        with pytest.raises(PhysicsError):
            MultiParticleTracker(ring, ion, rf, np.zeros(0), np.zeros(0), gamma0)

    def test_needs_1d(self, ring, ion, rf, gamma0):
        with pytest.raises(PhysicsError):
            MultiParticleTracker(ring, ion, rf, np.zeros((2, 2)), np.zeros((2, 2)), gamma0)

    def test_invalid_gamma(self, ring, ion, rf):
        with pytest.raises(PhysicsError):
            MultiParticleTracker(ring, ion, rf, np.zeros(2), np.zeros(2), 0.5)
        # NaN passes `gamma_ref < 1`; one step would turn every Δt to NaN.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(PhysicsError, match="gamma_ref must be finite"):
                MultiParticleTracker(ring, ion, rf, np.zeros(2), np.zeros(2), bad)


class TestAgainstSingleParticle:
    def test_cold_beam_follows_macro_particle(self, ring, ion, rf, f_rev, gamma0):
        """A zero-spread ensemble must reproduce the single-particle orbit."""
        n = 16
        multi = MultiParticleTracker(
            ring, ion, rf, np.full(n, 5e-9), np.zeros(n), gamma0
        )
        single = MacroParticleTracker(ring, ion, rf)
        st = single.initial_state(f_rev, delta_t=5e-9)
        for _ in range(2000):
            multi.step(f_rev)
            single.step(st, f_rev)
        assert multi.delta_t.mean() == pytest.approx(st.delta_t, rel=1e-9)
        assert multi.delta_gamma.mean() == pytest.approx(st.delta_gamma, rel=1e-9)

    def test_centroid_oscillates_at_fs(self, ring, ion, rf, f_rev, gamma0, rng):
        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, 12e-9, 500, rng, centre_delta_t=10e-9)
        tracker = MultiParticleTracker(ring, ion, rf, dt, dg, gamma0)
        rec = tracker.track(20000, f_rev=f_rev, record_every=4)
        f = estimate_oscillation_frequency(rec.time, rec.mean_delta_t)
        f_analytic = synchrotron_frequency(ring, ion, rf, gamma0)
        assert f == pytest.approx(f_analytic, rel=0.03)


class TestEnsembleBehaviour:
    def test_matched_bunch_moments_stationary(self, ring, ion, rf, f_rev, gamma0, rng):
        # sigma = 12 ns keeps the bunch well inside the bucket: the
        # matched energy spread puts the separatrix at ~8 sigma, so no
        # particle escapes (at 30 ns it would sit at only 3.3 sigma and
        # tail particles would leak out and blow up the moments).
        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, 12e-9, 4000, rng)
        tracker = MultiParticleTracker(ring, ion, rf, dt, dg, gamma0)
        rec = tracker.track(8000, f_rev=f_rev, record_every=16)
        # Matched: sigma stays within a few percent, centroid near zero.
        assert rec.std_delta_t.max() / rec.std_delta_t.min() < 1.1
        assert np.abs(rec.mean_delta_t).max() < 0.1 * rec.std_delta_t[0]

    def test_mismatched_bunch_quadrupole_oscillation(self, ring, ion, rf, f_rev, gamma0, rng):
        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, 12e-9, 3000, rng)
        dt *= 0.5  # squeeze: quadrupole mismatch
        tracker = MultiParticleTracker(ring, ion, rf, dt, dg, gamma0)
        rec = tracker.track(16000, f_rev=f_rev, record_every=4)
        f_quad = estimate_oscillation_frequency(rec.time, rec.std_delta_t)
        f_s = synchrotron_frequency(ring, ion, rf, gamma0)
        assert f_quad == pytest.approx(2 * f_s, rel=0.06)

    def test_filamentation_decoheres_displaced_bunch(self, ring, ion, rf, f_rev, gamma0, rng):
        """A displaced warm bunch loses coherent amplitude without control."""
        sigma = 12e-9
        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, sigma, 4000, rng, centre_delta_t=40e-9)
        tracker = MultiParticleTracker(ring, ion, rf, dt, dg, gamma0)
        rec = tracker.track(60000, f_rev=f_rev, record_every=32)
        first = np.abs(rec.mean_delta_t[: len(rec.mean_delta_t) // 4]).max()
        last = np.abs(rec.mean_delta_t[-len(rec.mean_delta_t) // 4 :]).max()
        assert last < 0.8 * first  # coherent dipole amplitude decayed
        assert rec.std_delta_t[-1] > rec.std_delta_t[0]  # bunch smeared out

    def test_step_rejects_lost_particles(self, ring, ion, rf, gamma0):
        tracker = MultiParticleTracker(
            ring, ion, rf, np.zeros(2), np.array([0.0, -(gamma0 - 1.0) * 1.01]), gamma0
        )
        with pytest.raises(PhysicsError):
            tracker.step(800e3)

    def test_lost_particle_found_past_nan(self, ring, ion, rf, gamma0):
        """A NaN Δγ does not hide a particle below γ = 1 on the same turn
        (a NaN-propagating minimum would compare False and pass)."""
        tracker = MultiParticleTracker(
            ring, ion, rf, np.zeros(3),
            np.array([np.nan, 0.0, -(gamma0 - 1.0) * 1.01]), gamma0,
        )
        with pytest.raises(PhysicsError):
            tracker.step(800e3)

    def test_all_nan_ensemble_does_not_raise(self, ring, ion, rf, gamma0):
        tracker = MultiParticleTracker(ring, ion, rf, np.zeros(2), np.full(2, np.nan), gamma0)
        tracker.step(800e3)
        assert np.isnan(tracker.delta_t).all()

    def test_debunching_with_rf_off(self, ring, ion, rf, gamma0, rng):
        """Coasting-beam limit (paper Section I): with no RF voltage the
        bunch debunches — sigma_t grows linearly with the momentum spread
        and nothing restores it."""
        from repro.physics.rf import RFSystem

        dt, dg = gaussian_bunch(ring, ion, rf, gamma0, 12e-9, 1000, rng)
        rf_off = RFSystem(harmonic=4, voltage=0.0)
        tracker = MultiParticleTracker(ring, ion, rf_off, dt, dg, gamma0)
        rec = tracker.track(4000, f_rev=800e3, record_every=500)
        sigmas = rec.std_delta_t
        assert sigmas[-1] > 3 * sigmas[0]
        # Linear growth: consecutive increments roughly constant.
        increments = np.diff(sigmas[2:])
        assert increments.std() < 0.2 * increments.mean()

    def test_track_validation(self, ring, ion, rf, gamma0):
        tracker = MultiParticleTracker(ring, ion, rf, np.zeros(2), np.zeros(2), gamma0)
        with pytest.raises(PhysicsError):
            tracker.track(-1)
        with pytest.raises(PhysicsError):
            tracker.track(1, record_every=0)

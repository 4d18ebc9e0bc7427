"""Initial bunch distributions for the multi-particle tracker.

The paper observes Gaussian pickup pulses ("Observing such a bunch leads
to a pickup signal pulse which is often Gaussian but can have different
distributions as well", Section I), so the ensemble is a bi-Gaussian
matched to the small-amplitude bucket.

Matching: for small amplitudes the (Δt, Δγ) motion is a harmonic
oscillator whose amplitude ratio is fixed by the per-turn map
coefficients (see :func:`matched_rms_delta_gamma`).  A distribution with
σ_Δγ = ratio · σ_Δt fills phase-space ellipses uniformly in phase and is
stationary — its moments do not oscillate, which the property tests
verify.
"""

from __future__ import annotations

import math

import numpy as np

from repro.constants import SPEED_OF_LIGHT, TWO_PI
from repro.errors import PhysicsError
from repro.physics.ion import IonSpecies
from repro.physics.rf import RFSystem, bucket_is_stable
from repro.physics.relativity import beta_from_gamma
from repro.physics.ring import SynchrotronRing

__all__ = ["matched_rms_delta_gamma", "gaussian_bunch"]


def matched_rms_delta_gamma(
    ring: SynchrotronRing,
    ion: IonSpecies,
    rf: RFSystem,
    gamma: float,
    sigma_delta_t: float,
) -> float:
    """σ_Δγ that matches a given σ_Δt for small-amplitude motion.

    From the linearised map ``dΔγ/dn = k_t Δt`` and ``dΔt/dn = a Δγ`` the
    matched ellipse satisfies ``Δγ_max / Δt_max = sqrt(-k_t / a)``.
    """
    if sigma_delta_t < 0.0:
        raise PhysicsError("sigma_delta_t must be non-negative")
    beta = beta_from_gamma(gamma)
    eta = ring.phase_slip(gamma)
    if not bucket_is_stable(eta, rf.synchronous_phase):
        raise PhysicsError("cannot match a bunch in an unstable bucket")
    f_rev = ring.revolution_frequency(gamma)
    omega_rf = TWO_PI * rf.harmonic * f_rev
    k_t = ion.charge_state * rf.voltage * omega_rf * math.cos(rf.synchronous_phase) / ion.rest_energy_ev
    a = ring.circumference * eta / (beta**3 * SPEED_OF_LIGHT * gamma)
    return math.sqrt(-k_t / a) * sigma_delta_t


def gaussian_bunch(
    ring: SynchrotronRing,
    ion: IonSpecies,
    rf: RFSystem,
    gamma: float,
    sigma_delta_t: float,
    n_particles: int,
    rng: np.random.Generator | None = None,
    centre_delta_t: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Matched bi-Gaussian bunch: returns ``(delta_t, delta_gamma)`` arrays.

    ``sigma_delta_t`` is the RMS bunch length in seconds;
    ``centre_delta_t`` shifts the whole bunch (a coherent dipole offset).
    """
    if n_particles <= 0:
        raise PhysicsError("n_particles must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    sigma_dg = matched_rms_delta_gamma(ring, ion, rf, gamma, sigma_delta_t)
    delta_t = rng.normal(centre_delta_t, sigma_delta_t, n_particles)
    delta_gamma = rng.normal(0.0, sigma_dg, n_particles)
    return delta_t, delta_gamma

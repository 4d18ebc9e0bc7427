"""Longitudinal beam-dynamics substrate.

Implements the physics of Section IV of the paper: relativistic
kinematics (Eq. 1), the synchrotron ring and phase-slip relations
(Eqs. 4–5), RF bucket theory, and the recursive two-particle tracking map
(Eqs. 2, 3 and 6), plus the multi-macro-particle extension discussed in
the paper's outlook (Section VI).
"""

from repro.physics.relativity import beta_from_gamma
from repro.physics.ion import IonSpecies, KNOWN_IONS
from repro.physics.ring import SynchrotronRing, SIS18
from repro.physics.rf import RFSystem, synchrotron_frequency, bucket_is_stable
from repro.physics.tracking import (
    TrackingState,
    MacroParticleTracker,
    reference_gamma_update,
    delta_gamma_update,
    delta_t_update,
)
from repro.physics.multiparticle import MultiParticleTracker
from repro.physics.distributions import gaussian_bunch, matched_rms_delta_gamma
from repro.physics.oscillation import estimate_oscillation_frequency, fit_damping_envelope
from repro.physics.dual_harmonic import (
    DualHarmonicRF,
    dual_harmonic_synchrotron_frequency,
    synchrotron_frequency_vs_amplitude,
)

__all__ = [
    "beta_from_gamma",
    "IonSpecies",
    "KNOWN_IONS",
    "SynchrotronRing",
    "SIS18",
    "RFSystem",
    "synchrotron_frequency",
    "bucket_is_stable",
    "TrackingState",
    "MacroParticleTracker",
    "reference_gamma_update",
    "delta_gamma_update",
    "delta_t_update",
    "MultiParticleTracker",
    "gaussian_bunch",
    "matched_rms_delta_gamma",
    "estimate_oscillation_frequency",
    "fit_damping_envelope",
    "DualHarmonicRF",
    "dual_harmonic_synchrotron_frequency",
    "synchrotron_frequency_vs_amplitude",
]

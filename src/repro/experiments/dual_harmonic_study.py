"""E12 — dual-harmonic cavity extension (paper ref. [9]'s system).

SIS18's LLRF is a dual-harmonic system; the beam-phase control chain the
paper tests was designed for it.  This experiment exercises the
extension end to end:

1. the synchrotron-frequency-vs-amplitude curve for single-harmonic,
   intermediate and flat-bucket configurations (the Landau reservoir);
2. the uncontrolled decoherence rate of a displaced bunch under each —
   bunch-lengthening mode damps coherent oscillations far faster;
3. a closed-loop HIL bench run with a dual-harmonic gap signal,
   demonstrating the architecture's key free lunch: the CGRA beam model
   reads the gap *ring buffer*, so no model change is needed at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.mde import (
    MDE_ION,
    MDE_REVOLUTION_FREQUENCY,
    MDE_RING,
    MDE_SYNCHROTRON_FREQUENCY_BENCH,
)
from repro.parallel import WorkerPool, dispatch
from repro.physics.distributions import gaussian_bunch
from repro.physics.dual_harmonic import (
    DualHarmonicRF,
    dual_harmonic_synchrotron_frequency,
    synchrotron_frequency_vs_amplitude,
)
from repro.physics.multiparticle import MultiParticleTracker
from repro.physics.rf import RFSystem, voltage_for_synchrotron_frequency

__all__ = [
    "DualHarmonicRow",
    "DualHarmonicTask",
    "dual_harmonic_row",
    "dual_harmonic_landau_study",
]

#: Second-harmonic ratios compared: single harmonic, intermediate and
#: the flat bucket.
RATIOS = (0.0, 0.35, 0.5)
#: Bunch length and coherent displacement of the ensemble, seconds.
SIGMA_DELTA_T = 10e-9
DISPLACEMENT = 15e-9
#: Shared across ratios on purpose: the same ensemble probes each bucket
#: shape, so retention differences isolate the ratio.
SEED = 9


@dataclass(frozen=True)
class DualHarmonicRow:
    """One cavity configuration's Landau behaviour."""

    ratio: float
    #: Linear (small-amplitude) synchrotron frequency, Hz.
    f_s_linear: float
    #: f_s at a 5 ns and at a 50 ns amplitude (the spread across a bunch).
    f_s_small: float
    f_s_large: float
    #: Fraction of the coherent dipole amplitude surviving the window
    #: without control (last-quarter peak / first-quarter peak): lower =
    #: stronger Landau damping/decoherence.
    amplitude_retention: float

    @property
    def frequency_spread(self) -> float:
        """Relative f_s spread between small and large amplitudes."""
        top = max(self.f_s_small, self.f_s_large)
        return abs(self.f_s_small - self.f_s_large) / top if top > 0 else 0.0


@dataclass(frozen=True)
class DualHarmonicTask:
    """One cavity ratio of the study (plain data, so it pickles into
    workers)."""

    ratio: float
    n_particles: int
    n_turns: int


def dual_harmonic_row(task: DualHarmonicTask) -> DualHarmonicRow:
    """Track one ratio's ensemble and extract its Landau behaviour."""
    ring, ion, ratio = MDE_RING, MDE_ION, task.ratio
    f_rev = MDE_REVOLUTION_FREQUENCY
    gamma0 = ring.gamma_from_revolution_frequency(f_rev)
    probe = RFSystem(harmonic=4, voltage=1.0)
    v1 = voltage_for_synchrotron_frequency(
        ring, ion, probe, gamma0, MDE_SYNCHROTRON_FREQUENCY_BENCH
    )
    rf = DualHarmonicRF(harmonic=4, voltage=v1, ratio=ratio)
    f_lin = dual_harmonic_synchrotron_frequency(ring, ion, rf, gamma0)
    f_amp = synchrotron_frequency_vs_amplitude(
        ring, ion, rf, gamma0, [5e-9, 50e-9], f_rev=f_rev
    )
    # Matched-ish ensemble: use the single-harmonic matching for the
    # momentum spread (conservative for the flattened bucket) and
    # displace it to excite a coherent dipole.
    rng = np.random.default_rng(SEED)
    single = RFSystem(harmonic=4, voltage=v1)
    dt, dgamma = gaussian_bunch(
        ring, ion, single, gamma0, SIGMA_DELTA_T, task.n_particles, rng,
        centre_delta_t=DISPLACEMENT,
    )
    tracker = MultiParticleTracker(ring, ion, rf, dt, dgamma, gamma0)
    rec = tracker.track(task.n_turns, f_rev=f_rev, record_every=16)
    centred = np.abs(rec.mean_delta_t - rec.mean_delta_t.mean())
    quarter = max(1, len(centred) // 4)
    early = float(centred[:quarter].max())
    late = float(centred[-quarter:].max())
    return DualHarmonicRow(
        ratio=ratio,
        f_s_linear=f_lin,
        f_s_small=float(f_amp[0]),
        f_s_large=float(f_amp[1]),
        amplitude_retention=late / early if early > 0 else 1.0,
    )


def dual_harmonic_landau_study(
    n_particles: int = 2500, n_turns: int = 48000, pool: WorkerPool | None = None
) -> list[DualHarmonicRow]:
    """Compare Landau behaviour across second-harmonic ratios: one task
    per ratio on ``pool`` (inline without one).

    The fundamental amplitude is fixed to the single-harmonic value that
    gives the bench's 1.28 kHz (as in the MDE calibration), so rising
    ratio flattens the bucket at constant V̂₁ — the operational knob of
    a real dual-harmonic system.
    """
    if n_particles < 10:
        raise ConfigurationError("need a meaningful ensemble")
    tasks = [
        DualHarmonicTask(ratio=ratio, n_particles=n_particles, n_turns=n_turns)
        for ratio in RATIOS
    ]
    return dispatch(pool, dual_harmonic_row, tasks, "dual")

"""E1 — Fig. 1: sample forces that influence a bunch.

Fig. 1 illustrates the stationary-bucket mechanics: the sinusoidal gap
voltage over one RF period, the reference particle in the rising zero
crossing, and the forces on early/late particles (an early particle sees
a lower voltage and is slowed down, a late one a higher voltage and is
accelerated).  :func:`fig1_forces_data` regenerates the underlying
series and the per-particle energy kicks from the actual model
(Eq. 3), so the figure is produced by the production code path rather
than a hand-drawn sketch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.mde import MDE_HARMONIC, MDE_ION, MDE_REVOLUTION_FREQUENCY
from repro.physics.rf import RFSystem
from repro.physics.tracking import delta_gamma_update

__all__ = ["Fig1Data", "fig1_forces_data"]

#: The illustrated gap: the MDE harmonic at a 5 kV amplitude.
RF = RFSystem(harmonic=MDE_HARMONIC, voltage=5e3)
#: The early/late sample particles sit this fraction of an RF period
#: either side of the reference crossing.
OFFSET_FRACTION = 0.08
#: Points of the gap-voltage curve across one RF period.
N_POINTS = 512


@dataclass
class Fig1Data:
    """Series behind Fig. 1."""

    #: Time axis across one RF period, centred on the zero crossing (s).
    time: np.ndarray
    #: Gap voltage along the time axis (V).
    voltage: np.ndarray
    #: Sample particle arrival offsets: (early, reference, late) (s).
    particle_delta_t: np.ndarray
    #: Voltage each sample particle experiences (V).
    particle_voltage: np.ndarray
    #: Energy kick each particle receives, as Δγ change per turn (Eq. 3).
    particle_delta_gamma_kick: np.ndarray


def fig1_forces_data() -> Fig1Data:
    """Regenerate Fig. 1's content: ¹⁴N⁷⁺ at the MDE's 800 kHz
    revolution frequency in the gap :data:`RF`."""
    ion, rf, f_rev = MDE_ION, RF, MDE_REVOLUTION_FREQUENCY
    t_rf = 1.0 / (rf.harmonic * f_rev)
    time = np.linspace(-0.5 * t_rf, 0.5 * t_rf, N_POINTS)
    voltage = rf.gap_voltage_at(time, f_rev)

    offsets = np.array([-OFFSET_FRACTION * t_rf, 0.0, OFFSET_FRACTION * t_rf])
    p_voltage = rf.gap_voltage_at(offsets, f_rev)
    v_ref = rf.gap_voltage_at(0.0, f_rev)
    kicks = np.array(
        [delta_gamma_update(0.0, float(v), v_ref, ion) for v in p_voltage]
    )
    return Fig1Data(
        time=time,
        voltage=voltage,
        particle_delta_t=offsets,
        particle_voltage=p_voltage,
        particle_delta_gamma_kick=kicks,
    )

"""E2 — Fig. 2: bench input/output signals, h = 2 non-equilibrium snapshot.

Fig. 2 shows, over a couple of revolutions: the reference sine (blue),
the gap sine at twice the frequency (black, h = 2), and the simulator's
beam output — Gaussian pulses (green) displaced from the gap zero
crossings because the snapshot is out of equilibrium.

:func:`fig2_signal_snapshot` produces the same three traces through the
*sample-accurate* component chain: group DDS → Gauss-pulse generator →
DAC, with the bunches given an explicit non-equilibrium Δt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.signal.dds import GroupDDS
from repro.signal.gauss_pulse import GaussPulseGenerator
from repro.signal.dac import DAC

__all__ = ["Fig2Data", "fig2_signal_snapshot"]

F_REV = 800e3
#: The figure shows h = 2: two bunches per revolution.
HARMONIC = 2
N_REVOLUTIONS = 2
AMPLITUDE = 0.9
#: Every bunch's displacement from its gap zero crossing, seconds.
BUNCH_DELTA_T = 60e-9
PULSE_SIGMA = 25e-9
SAMPLE_RATE = 250e6
#: Offset of the gap signal, radians.
GAP_PHASE_RAD = 0.35


@dataclass
class Fig2Data:
    """The three Fig. 2 traces on a shared 250 MHz time axis."""

    time: np.ndarray
    reference: np.ndarray
    gap: np.ndarray
    beam: np.ndarray
    #: The Δt offsets the bunches were given (one per bunch), seconds.
    bunch_offsets: np.ndarray


def fig2_signal_snapshot() -> Fig2Data:
    """Produce the Fig. 2 snapshot: h = 2, visibly displaced.

    :data:`BUNCH_DELTA_T` displaces every bunch from its gap zero
    crossing and :data:`GAP_PHASE_RAD` offsets the gap signal, so the
    snapshot is "non-equilibrium" like the paper's.
    """
    group = GroupDDS(
        revolution_frequency=F_REV,
        harmonic=HARMONIC,
        amplitude=AMPLITUDE,
        sample_rate=SAMPLE_RATE,
        gap_phase_drive=lambda t: GAP_PHASE_RAD,
    )
    group.reset_phase()
    n_samples = int(round(N_REVOLUTIONS / F_REV * SAMPLE_RATE))
    ref_wf, gap_wf = group.generate(n_samples)

    pulses = GaussPulseGenerator(sigma=PULSE_SIGMA, sample_rate=SAMPLE_RATE, amplitude=AMPLITUDE)
    t_rev = 1.0 / F_REV
    for rev in range(N_REVOLUTIONS + 1):
        for b in range(HARMONIC):
            centre = rev * t_rev + b * t_rev / HARMONIC + BUNCH_DELTA_T
            if centre < (n_samples + 8 * PULSE_SIGMA * SAMPLE_RATE) / SAMPLE_RATE:
                pulses.schedule(centre)
    beam_wf = pulses.render(0.0, n_samples)
    dac = DAC(bits=16, vpp=2.0, sample_rate=SAMPLE_RATE)
    beam = dac.convert(beam_wf.samples)
    dac.publish()
    return Fig2Data(
        time=ref_wf.time_axis(),
        reference=ref_wf.samples,
        gap=gap_wf.samples,
        beam=beam,
        bunch_offsets=np.full(HARMONIC, BUNCH_DELTA_T),
    )

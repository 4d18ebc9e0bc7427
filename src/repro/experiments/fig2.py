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

from repro.errors import ConfigurationError
from repro.signal.dds import GroupDDS
from repro.signal.gauss_pulse import GaussPulseGenerator
from repro.signal.dac import DAC

__all__ = ["Fig2Data", "fig2_signal_snapshot"]


@dataclass
class Fig2Data:
    """The three Fig. 2 traces on a shared 250 MHz time axis."""

    time: np.ndarray
    reference: np.ndarray
    gap: np.ndarray
    beam: np.ndarray
    #: The Δt offsets the bunches were given (one per bunch), seconds.
    bunch_offsets: np.ndarray


def fig2_signal_snapshot(
    f_rev: float = 800e3,
    harmonic: int = 2,
    n_revolutions: int = 2,
    amplitude: float = 0.9,
    bunch_delta_t: float = 60e-9,
    pulse_sigma: float = 25e-9,
    sample_rate: float = 250e6,
    gap_phase_rad: float = 0.35,
) -> Fig2Data:
    """Produce the Fig. 2 snapshot (defaults: h = 2, visibly displaced).

    ``bunch_delta_t`` displaces every bunch from its gap zero crossing
    and ``gap_phase_rad`` offsets the gap signal, so the snapshot is
    "non-equilibrium" like the paper's.
    """
    if n_revolutions < 1:
        raise ConfigurationError("need at least one revolution")
    if harmonic < 1:
        raise ConfigurationError("harmonic must be >= 1")
    group = GroupDDS(
        revolution_frequency=f_rev,
        harmonic=harmonic,
        amplitude=amplitude,
        sample_rate=sample_rate,
        gap_phase_drive=lambda t: gap_phase_rad,
    )
    group.reset_phase()
    n_samples = int(round(n_revolutions / f_rev * sample_rate))
    ref_wf, gap_wf = group.generate(n_samples)

    pulses = GaussPulseGenerator(sigma=pulse_sigma, sample_rate=sample_rate, amplitude=amplitude)
    t_rev = 1.0 / f_rev
    offsets = []
    for rev in range(n_revolutions + 1):
        for b in range(harmonic):
            centre = rev * t_rev + b * t_rev / harmonic + bunch_delta_t
            offsets.append(bunch_delta_t)
            if centre < (n_samples + 8 * pulse_sigma * sample_rate) / sample_rate:
                pulses.schedule(centre)
    beam_wf = pulses.render(0.0, n_samples)
    dac = DAC(bits=16, vpp=2.0, sample_rate=sample_rate)
    beam = dac.convert(beam_wf.samples)
    dac.publish()
    return Fig2Data(
        time=ref_wf.time_axis(),
        reference=ref_wf.samples,
        gap=gap_wf.samples,
        beam=beam,
        bunch_offsets=np.asarray(offsets[: harmonic]),
    )

"""Direct digital synthesis (DDS) signal sources.

The test bench (paper Fig. 4) uses three DDS modules that generate
synchronised RF signals with a programmable phase relationship; their
phase accumulators are reset simultaneously by a mini control system and
they share the BuTiS campus clock.  :class:`DDS` models one phase-
accumulator synthesiser; :class:`GroupDDS` models the synchronised group
(reference at f_R, gap at h·f_R, plus optional monitor outputs).

Two evaluation modes are provided:

* **streamed** — :meth:`DDS.generate` produces blocks of samples at the
  DDS sample clock with a persistent phase accumulator (used by the
  sample-accurate HIL framework);
* **analytic** — :meth:`DDS.voltage_at` evaluates the ideal output at
  arbitrary times (identical phase bookkeeping, no sample grid: the
  reference the streamed mode is checked against).

Frequency and phase-offset changes take effect phase-continuously, as in
real DDS hardware: the accumulated phase is preserved across programming
events.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.constants import TWO_PI
from repro.errors import SignalError
from repro.signal.waveform import Waveform

__all__ = ["DDS", "GroupDDS"]


class DDS:
    """One phase-continuous sinusoidal synthesiser.

    Parameters
    ----------
    frequency:
        Output frequency in Hz.
    amplitude:
        Peak output amplitude in volts.
    sample_rate:
        Sample clock for the streamed mode.  Frequencies at or above the
        Nyquist rate are rejected.
    phase_offset:
        Initial phase offset in radians (the runtime-programmable port the
        beam-phase control loop actuates).
    """

    def __init__(
        self,
        frequency: float,
        amplitude: float = 1.0,
        sample_rate: float = 250e6,
        phase_offset: float = 0.0,
    ) -> None:
        if sample_rate <= 0.0:
            raise SignalError("sample_rate must be positive")
        if amplitude < 0.0:
            raise SignalError("amplitude must be non-negative")
        self.sample_rate = float(sample_rate)
        self.amplitude = float(amplitude)
        self._frequency = 0.0
        self.phase_offset = float(phase_offset)
        #: Accumulated phase (radians) at time :attr:`current_time`.
        self._accum_phase = 0.0
        #: Time corresponding to the current accumulator value.
        self.current_time = 0.0
        self.set_frequency(frequency)

    @property
    def frequency(self) -> float:
        """Current output frequency in Hz."""
        return self._frequency

    def set_frequency(self, frequency: float) -> None:
        """Program a new frequency, phase-continuously."""
        if frequency <= 0.0:
            raise SignalError(f"frequency must be positive, got {frequency}")
        if frequency >= 0.5 * self.sample_rate:
            raise SignalError(
                f"frequency {frequency} Hz is not below Nyquist "
                f"({0.5 * self.sample_rate} Hz)"
            )
        self._frequency = float(frequency)

    def set_phase_offset(self, phase_offset: float) -> None:
        """Program the phase-offset port (radians), effective immediately."""
        self.phase_offset = float(phase_offset)

    def reset_phase(self, at_time: float = 0.0) -> None:
        """Simultaneous phase reset (the paper's mini-control-system sync)."""
        self._accum_phase = 0.0
        self.current_time = float(at_time)

    def voltage_at(self, t) -> np.ndarray | float:
        """Ideal (analytic) output voltage at time(s) ``t`` ≥ the last
        event time.

        Valid while the frequency stays constant from
        :attr:`current_time` to ``t`` — callers that ramp the frequency
        must advance the DDS stepwise (which is what the hardware does).
        """
        phase = (
            self._accum_phase
            + TWO_PI * self._frequency * (np.asarray(t, dtype=float) - self.current_time)
            + self.phase_offset
        )
        v = self.amplitude * np.sin(phase)
        return float(v) if np.isscalar(t) else v

    def advance_to(self, t: float) -> None:
        """Move the accumulator to time ``t`` without generating samples."""
        if t < self.current_time:
            raise SignalError("DDS cannot run backwards")
        self._accum_phase += TWO_PI * self._frequency * (t - self.current_time)
        self._accum_phase = math.remainder(self._accum_phase, TWO_PI)
        self.current_time = t

    def generate(self, n_samples: int) -> Waveform:
        """Produce the next ``n_samples`` output samples (streamed mode)."""
        if n_samples < 0:
            raise SignalError("n_samples must be non-negative")
        t0 = self.current_time
        n = np.arange(n_samples)
        phase = self._accum_phase + TWO_PI * self._frequency * n / self.sample_rate + self.phase_offset
        samples = self.amplitude * np.sin(phase)
        self.advance_to(t0 + n_samples / self.sample_rate)
        return Waveform(samples, self.sample_rate, t0)


class GroupDDS:
    """A group of phase-synchronised DDS modules (paper Fig. 4).

    Creates a *reference* DDS at the revolution frequency and a *gap* DDS
    at the RF frequency h·f_R.  An optional callable ``gap_phase_drive``
    (e.g. the AWG phase-jump pattern) sets the gap DDS phase offset.

    All members share the same sample clock and are reset together, so
    their phase relationship is deterministic — the property the BuTiS
    system provides in the real facility.
    """

    def __init__(
        self,
        revolution_frequency: float,
        harmonic: int,
        amplitude: float = 1.0,
        sample_rate: float = 250e6,
        gap_phase_drive: Callable[[float], float] | None = None,
    ) -> None:
        if harmonic < 1:
            raise SignalError(f"harmonic must be >= 1, got {harmonic}")
        self.harmonic = int(harmonic)
        self.reference = DDS(revolution_frequency, amplitude, sample_rate)
        self.gap = DDS(revolution_frequency * harmonic, amplitude, sample_rate)
        self._gap_phase_drive = gap_phase_drive

    @property
    def revolution_frequency(self) -> float:
        """Reference (revolution) frequency in Hz."""
        return self.reference.frequency

    def _apply_gap_phase(self, t: float) -> None:
        drive = self._gap_phase_drive(t) if self._gap_phase_drive is not None else 0.0
        self.gap.set_phase_offset(drive)

    def reset_phase(self, at_time: float = 0.0) -> None:
        """Simultaneous phase reset of all members."""
        self.reference.reset_phase(at_time)
        self.gap.reset_phase(at_time)
        self._apply_gap_phase(at_time)

    def generate(self, n_samples: int) -> tuple[Waveform, Waveform]:
        """Produce the next block of (reference, gap) samples.

        The gap phase drive is refreshed at the block boundary; blocks
        should therefore be short relative to the drive's time structure
        (the HIL framework uses one block per reference period).
        """
        self._apply_gap_phase(self.gap.current_time)
        ref = self.reference.generate(n_samples)
        gap = self.gap.generate(n_samples)
        return ref, gap

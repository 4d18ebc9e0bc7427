"""Fully sample-accurate closed-loop bench.

The fast path (:class:`~repro.hil.simulator.CavityInTheLoop`) closes the
loop on the model's Δt output directly.  This module closes it the way
the *real bench* does: the DSP sees only the analogue beam waveform the
DAC produced, IQ-demodulates it against the RF frequency, and feeds the
resulting phase into the control filter, which actuates the gap DDS —
every stage at the 250 MHz sample level:

    GroupDDS ──► ADCs ──► ring buffers ──► CGRA model ──► Gauss pulses
        ▲                                                     │
        └── control filter ◄── IQ phase detector ◄── DAC ◄────┘

This validates the measurement chain end to end: the IQ detector must
recover the bunch phase from the pulse train accurately enough for the
loop to damp, through ADC quantisation, pulse shaping and DAC
reconstruction.  It is slow (Python at 250 MHz), so it is used on
hundred-millisecond-scale windows in tests; the fast path covers
second-scale runs (their equivalence is pinned by
``tests/integration/test_cross_fidelity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import deg_to_rad
from repro.control import BeamPhaseControlLoop, ControlLoopConfig
from repro.errors import ConfigurationError
from repro.hil.framework import FpgaFramework, FrameworkConfig
from repro.obs import get_tracer, record_hil_run
from repro.obs._state import STATE as _OBS
from repro.physics.ion import IonSpecies
from repro.physics.rf import RFSystem, voltage_for_synchrotron_frequency
from repro.physics.ring import SynchrotronRing
from repro.signal.awg import PhaseJumpPattern
from repro.signal.dds import GroupDDS
from repro.signal.phase_detector import IQPhaseDetector

__all__ = ["SampleAccurateBenchConfig", "SampleAccurateBench", "SampleAccurateRun"]


@dataclass(frozen=True)
class SampleAccurateBenchConfig:
    """Configuration of the sample-accurate closed loop."""

    ring: SynchrotronRing
    ion: IonSpecies
    harmonic: int = 4
    revolution_frequency: float = 800e3
    synchrotron_frequency: float = 1.28e3
    jump_deg: float = 8.0
    jump_toggle_period: float = 0.05
    jump_start_time: float = 0.0
    adc_amplitude: float = 0.9
    sample_rate: float = 250e6
    control: ControlLoopConfig | None = None
    n_bunches: int = 1
    #: IQ integration window in revolutions (longer = less noise, more lag).
    detector_window_revolutions: int = 2

    def __post_init__(self) -> None:
        if self.detector_window_revolutions < 1:
            raise ConfigurationError("detector window must be >= 1 revolution")
        if self.harmonic < 1:
            raise ConfigurationError("harmonic must be >= 1")
        if self.control is not None:
            self.control.check_revolution_frequency(self.revolution_frequency)


@dataclass
class SampleAccurateRun:
    """Per-revolution traces of a sample-accurate closed-loop run."""

    time: np.ndarray
    #: Phase measured by the IQ DSP on the beam waveform, degrees.
    phase_deg: np.ndarray
    #: Model-internal Δt of bunch 0 (ground truth), seconds.
    delta_t: np.ndarray
    correction_deg: np.ndarray


class SampleAccurateBench:
    """Runs the whole Fig. 4 loop at 250 MHz sample resolution."""

    def __init__(self, config: SampleAccurateBenchConfig) -> None:
        self.config = config
        ring, ion = config.ring, config.ion
        gamma0 = ring.gamma_from_revolution_frequency(config.revolution_frequency)
        probe = RFSystem(harmonic=config.harmonic, voltage=1.0)
        self.gap_voltage_amplitude = voltage_for_synchrotron_frequency(
            ring, ion, probe, gamma0, config.synchrotron_frequency
        )
        self.framework = FpgaFramework(FrameworkConfig(
            ring=ring,
            ion=ion,
            harmonic=config.harmonic,
            gap_volts_per_adc_volt=self.gap_voltage_amplitude / config.adc_amplitude,
            ref_volts_per_adc_volt=(
                config.harmonic * self.gap_voltage_amplitude / config.adc_amplitude
            ),
            n_bunches=config.n_bunches,
            sample_rate=config.sample_rate,
        ))
        self.jump = PhaseJumpPattern(
            jump_deg=config.jump_deg,
            toggle_period=config.jump_toggle_period,
            start_time=config.jump_start_time,
        )
        self.control = BeamPhaseControlLoop(
            config.control
            or ControlLoopConfig(sample_rate=config.revolution_frequency)
        )
        self.group = GroupDDS(
            revolution_frequency=config.revolution_frequency,
            harmonic=config.harmonic,
            amplitude=config.adc_amplitude,
            sample_rate=config.sample_rate,
            gap_phase_drive=self._gap_drive,
        )
        self.group.reset_phase()
        self.detector = IQPhaseDetector(config.harmonic * config.revolution_frequency)
        self._samples_per_rev = config.sample_rate / config.revolution_frequency
        self._sample_accum = 0.0
        self._beam_history: list[np.ndarray] = []
        self._history_t0 = 0.0

    def _gap_drive(self, t: float) -> float:
        return float(self.jump.phase_rad_at(t)) + deg_to_rad(self.control.last_output_deg)

    def _next_block_size(self) -> int:
        """Alternate block sizes so block boundaries track the exact
        (non-integer) samples-per-revolution ratio."""
        self._sample_accum += self._samples_per_rev
        n = int(self._sample_accum)
        self._sample_accum -= n
        return n

    def _measure_phase(self) -> float | None:
        """IQ-demodulate the most recent detector window of beam signal."""
        window = self.config.detector_window_revolutions
        if len(self._beam_history) < window:
            return None
        block = np.concatenate(self._beam_history[-window:])
        if block.max() < 0.05:  # no pulses yet
            return None
        t0 = self._history_t0
        for earlier in self._beam_history[:-window]:
            t0 += earlier.size / self.config.sample_rate
        measured = self.detector.measure(block, self.config.sample_rate, t0)
        # Pulse-train convention (see signal.phase_detector): the measure
        # of a train at offset dt is 90 - 360·f_rf·dt; map onto the
        # bench's phase convention  -360·h·f_R·dt.
        phase = measured - 90.0
        return (phase + 180.0) % 360.0 - 180.0

    def run_revolutions(self, n_revolutions: int) -> SampleAccurateRun:
        """Run ``n_revolutions`` of the fully closed loop."""
        if n_revolutions < 1:
            raise ConfigurationError("need at least one revolution")
        time = np.empty(n_revolutions)
        phase = np.empty(n_revolutions)
        delta_t = np.empty(n_revolutions)
        correction = np.empty(n_revolutions)
        tracer = get_tracer()
        t = 0.0
        for i in range(n_revolutions):
            span = tracer.span("closed_loop.revolution", revolution=i)
            n = self._next_block_size()
            ref, gap = self.group.generate(n)
            beam, _monitor = self.framework.feed(ref.samples, gap.samples)
            self._beam_history.append(beam.samples)
            # Bound the history (keep a few windows).
            keep = 4 * self.config.detector_window_revolutions
            while len(self._beam_history) > keep:
                dropped = self._beam_history.pop(0)
                self._history_t0 += dropped.size / self.config.sample_rate
            measured = self._measure_phase()
            if measured is not None:
                self.control.update(measured)
            time[i] = t
            phase[i] = measured if measured is not None else 0.0
            delta_t[i] = self.framework.delta_t[0] if self.framework.initialised else 0.0
            correction[i] = self.control.last_output_deg
            t += n / self.config.sample_rate
            span.end()
        # The run's per-revolution telemetry, once (no-ops while disabled).
        self.framework.deadline.publish()
        self.framework.adc_ref.publish()
        self.framework.adc_gap.publish()
        self.control.publish()
        if _OBS.enabled:
            record_hil_run(
                name="sample_accurate_bench",
                stats=self.framework.deadline.stats(allow_empty=True),
                schedule_length=self.framework.model.schedule_length,
                engine="sample-accurate",
                n_revolutions=n_revolutions,
                control_saturations=self.control.saturation_count,
            )
        return SampleAccurateRun(
            time=time, phase_deg=phase, delta_t=delta_t, correction_deg=correction
        )

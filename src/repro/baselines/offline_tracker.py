"""Offline multi-particle reference tracker / machine-experiment emulator.

Plays two roles:

1. **Offline baseline** (related work, Section II): a BLonD-class
   multi-particle longitudinal tracker.  It is physically richer than the
   bench's single macro particle — it shows Landau damping and
   filamentation — but has no real-time story; the E7/E8 benches quantify
   that gap.

2. **The "real machine" of Fig. 5b**: we have no SIS18 beam time, so the
   machine development experiment (MDE) of 2023-11-24 is emulated by
   tracking an ensemble with energy spread through the *same* phase-jump
   drive and the *same* beam-phase control loop as the bench.  The
   paper's own analysis supports this substitution: the machine response
   is the coherent dipole oscillation, damped dominantly by the control
   loop, with only weak additional Landau damping ("since the damping
   from the control loop is much stronger, the effect of filamentation
   and Landau damping can be neglected for the controlled system").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import deg_to_rad
from repro.control import BeamPhaseControlLoop, ControlLoopConfig
from repro.errors import ConfigurationError
from repro.hil.scenario import check_scenario
from repro.physics.distributions import gaussian_bunch
from repro.physics.ion import IonSpecies
from repro.physics.multiparticle import MultiParticleTracker
from repro.physics.rf import RFSystem, voltage_for_synchrotron_frequency
from repro.physics.ring import SynchrotronRing
from repro.signal.awg import PhaseJumpPattern

__all__ = ["MachineExperimentConfig", "MachineExperimentEmulator", "MachineRunResult"]


@dataclass(frozen=True)
class MachineExperimentConfig:
    """Configuration of the emulated machine development experiment.

    Defaults are the MDE values the paper reports: 10° phase jumps (the
    bench used 8°), synchrotron frequency 1.2 kHz, f_ref = 800 kHz,
    h = 4, ¹⁴N⁷⁺.
    """

    ring: SynchrotronRing
    ion: IonSpecies
    harmonic: int = 4
    revolution_frequency: float = 800e3
    synchrotron_frequency: float = 1.2e3
    jump_deg: float = 10.0
    jump_toggle_period: float = 0.05
    jump_start_time: float = 0.005
    n_particles: int = 5000
    #: RMS bunch length in seconds (sets the energy spread through the
    #: matched distribution, hence the Landau-damping strength).
    sigma_delta_t: float = 15e-9
    control: ControlLoopConfig | None = None
    control_enabled: bool = True
    seed: int = 20231124  # the MDE date
    record_every: int = 8

    def __post_init__(self) -> None:
        check_scenario(self)
        # NaN passes the sign check below, so finiteness comes first.
        if not math.isfinite(self.sigma_delta_t):
            raise ConfigurationError(f"sigma_delta_t must be finite, got {self.sigma_delta_t!r}")
        if self.n_particles < 2:
            raise ConfigurationError("need at least 2 macro particles")
        if self.sigma_delta_t <= 0:
            raise ConfigurationError("sigma_delta_t must be positive")
        if self.control is not None:
            self.control.check_revolution_frequency(self.revolution_frequency)


@dataclass
class MachineRunResult:
    """Recorded traces of one emulated machine experiment."""

    time: np.ndarray
    #: Coherent dipole phase of the bunch (degrees at h·f_R), the
    #: quantity the machine's DSP reports in Fig. 5b.
    phase_deg: np.ndarray
    #: RMS bunch length trace (quadrupole/filamentation observable).
    sigma_delta_t: np.ndarray
    correction_deg: np.ndarray
    jump_deg: np.ndarray


class MachineExperimentEmulator:
    """Closed-loop multi-particle emulation of the SIS18 MDE."""

    def __init__(self, config: MachineExperimentConfig) -> None:
        self.config = config
        ring, ion = config.ring, config.ion
        self.f_rev = config.revolution_frequency
        self.gamma0 = ring.gamma_from_revolution_frequency(self.f_rev)
        probe = RFSystem(harmonic=config.harmonic, voltage=1.0)
        voltage = voltage_for_synchrotron_frequency(
            ring, ion, probe, self.gamma0, config.synchrotron_frequency
        )
        self.rf = probe.with_voltage(voltage)
        rng = np.random.default_rng(config.seed)
        delta_t, delta_gamma = gaussian_bunch(
            ring, ion, self.rf, self.gamma0, config.sigma_delta_t, config.n_particles, rng
        )
        self._gap_phase_rad = 0.0
        self._omega_rf = 2.0 * math.pi * config.harmonic * self.f_rev
        # Gap-voltage buffer _gap_voltage fills and returns every turn.
        self._v_gap = np.empty(config.n_particles)
        # Dipole phase per second of mean Δt: −360°·h·f_R.
        self._phase_per_s = -360.0 * config.harmonic * self.f_rev
        self.tracker = MultiParticleTracker(
            ring, ion, self.rf, delta_t, delta_gamma, self.gamma0,
            gap_voltage=self._gap_voltage,
        )
        self.jump = PhaseJumpPattern(
            jump_deg=config.jump_deg,
            toggle_period=config.jump_toggle_period,
            start_time=config.jump_start_time,
        )
        if config.control is not None:
            loop_cfg = config.control
            if loop_cfg.enabled != config.control_enabled:
                # control_enabled is the master switch even when an
                # explicit loop configuration is supplied.
                from dataclasses import replace

                loop_cfg = replace(loop_cfg, enabled=config.control_enabled)
        else:
            loop_cfg = ControlLoopConfig(
                sample_rate=self.f_rev, enabled=config.control_enabled
            )
        self.control = BeamPhaseControlLoop(loop_cfg)
        self._time = 0.0

    def _gap_voltage(self, delta_t: np.ndarray, f_rev: float, turn: int) -> np.ndarray:
        """Gap voltage V̂·sin(ω_RF·Δt + φ) for the whole ensemble with the
        commanded phase φ, in the emulator's buffer (overwritten next turn).
        """
        v = self._v_gap
        np.multiply(self._omega_rf, delta_t, out=v)
        v += self._gap_phase_rad
        np.sin(v, out=v)
        v *= self.rf.voltage
        return v

    def measured_phase_deg(self) -> float:
        """DSP dipole-phase reading (same polarity as the bench)."""
        delta_t = self.tracker.delta_t
        return self._phase_per_s * float(np.add.reduce(delta_t) / delta_t.size)

    def run(self, duration: float) -> MachineRunResult:
        """Run the emulated machine experiment for ``duration`` seconds."""
        if not (math.isfinite(duration) and duration > 0):
            raise ConfigurationError(f"duration must be finite and positive, got {duration!r}")
        n_turns = int(round(duration * self.f_rev))
        every = self.config.record_every
        n_rec = n_turns // every + 1
        time = np.empty(n_rec)
        phase = np.empty(n_rec)
        sigma = np.empty(n_rec)
        corr = np.empty(n_rec)
        jump = np.empty(n_rec)
        idx = 0

        def record() -> None:
            nonlocal idx
            time[idx] = self._time
            phase[idx] = self.measured_phase_deg()
            sigma[idx] = float(self.tracker.delta_t.std())
            corr[idx] = self.control.last_output_deg
            jump[idx] = float(self.jump.phase_deg_at(self._time))
            idx += 1

        record()
        for n in range(n_turns):
            jump_rad = float(self.jump.phase_rad_at(self._time))
            self._gap_phase_rad = jump_rad + deg_to_rad(self.control.last_output_deg)
            self.tracker.step(self.f_rev)
            self.control.update(self.measured_phase_deg())
            self._time += 1.0 / self.f_rev
            if (n + 1) % every == 0:
                record()
        self.control.publish()
        return MachineRunResult(
            time=time[:idx],
            phase_deg=phase[:idx],
            sigma_delta_t=sigma[:idx],
            correction_deg=corr[:idx],
            jump_deg=jump[:idx],
        )

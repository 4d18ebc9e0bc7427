"""E9 — the ramp-up case (paper Section VI, work in progress there).

"Currently, we are also implementing the ramp-up case, which simulates
the bunches after injection into the ring.  At that point bunches have
much smaller energies and longer revolution times.  Therefore, the
challenge is to emulate the acceleration phase with variable RF
frequencies and amplitudes."

This module implements that extension on the model side: a linear
revolution-frequency ramp with the synchronous phase derived per turn
from the required energy gain, optional gap-amplitude ramp, tracking of
the asynchronous particle through the whole ramp, and the real-time
budget check at the (tightest) top of the ramp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cgra.models import compile_beam_model
from repro.constants import TWO_PI
from repro.errors import ConfigurationError, PhysicsError
from repro.hil.realtime import DeadlineMonitor, JitterStats
from repro.physics.ion import IonSpecies
from repro.physics.rf import RFSystem
from repro.physics.ring import SynchrotronRing
from repro.physics.tracking import MacroParticleTracker

__all__ = ["RampUpScenario", "RampUpResult", "rampup_run"]


@dataclass(frozen=True)
class RampUpScenario:
    """An acceleration ramp in the synchrotron.

    The revolution frequency rises linearly from ``f_start`` to
    ``f_end`` over ``duration``; the gap amplitude ramps linearly from
    ``voltage_start`` to ``voltage_end``.  Each turn's synchronous phase
    follows from the energy gain the frequency programme demands:
    ``sin φ_s = Δγ_required / (Q·V̂ / mc²)``.
    """

    ring: SynchrotronRing
    ion: IonSpecies
    harmonic: int = 4
    f_start: float = 600e3
    f_end: float = 800e3
    duration: float = 0.2
    voltage_start: float = 6e3
    voltage_end: float = 6e3
    #: Initial bunch offset (a small injection error), seconds.
    initial_delta_t: float = 15e-9

    def __post_init__(self) -> None:
        if self.f_start <= 0 or self.f_end <= self.f_start:
            raise ConfigurationError("need 0 < f_start < f_end")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.voltage_start <= 0 or self.voltage_end <= 0:
            raise ConfigurationError("voltages must be positive")

    def frequency_at(self, t: float) -> float:
        """Programmed revolution frequency at machine time ``t``."""
        x = min(max(t / self.duration, 0.0), 1.0)
        return self.f_start + (self.f_end - self.f_start) * x

    def voltage_at(self, t: float) -> float:
        """Programmed gap amplitude at machine time ``t``."""
        x = min(max(t / self.duration, 0.0), 1.0)
        return self.voltage_start + (self.voltage_end - self.voltage_start) * x


@dataclass
class RampUpResult:
    """Traces of one ramp-up run."""

    time: np.ndarray
    f_rev: np.ndarray
    gamma_ref: np.ndarray
    #: γ the frequency programme demands at each record.
    gamma_programme: np.ndarray
    delta_t: np.ndarray
    delta_gamma: np.ndarray
    synchronous_phase_deg: np.ndarray
    #: Bunch phase relative to the RF, degrees (bounded ⇒ stable ramp).
    bunch_phase_deg: np.ndarray
    deadline: JitterStats

    @property
    def max_abs_bunch_phase_deg(self) -> float:
        """Largest RF-phase excursion of the bunch during the ramp."""
        return float(np.abs(self.bunch_phase_deg).max())

    @property
    def final_gamma_error(self) -> float:
        """|γ_R − γ_programme| at the end of the ramp."""
        return float(abs(self.gamma_ref[-1] - self.gamma_programme[-1]))


def rampup_run(
    scenario: RampUpScenario,
    record_every: int = 64,
    n_bunches: int = 1,
) -> RampUpResult:
    """Track one bunch through the acceleration ramp.

    Raises :class:`~repro.errors.PhysicsError` if the programme demands
    more energy gain per turn than the gap voltage can deliver
    (``|sin φ_s| > 1``) — an infeasible ramp.
    """
    ring, ion = scenario.ring, scenario.ion
    qmc2 = ion.gamma_gain_per_volt()

    # Real-time budget: tightest at the top of the ramp.
    model = compile_beam_model(n_bunches=n_bunches, pipelined=True)
    deadline = DeadlineMonitor(model.schedule_length)

    state_holder: dict[str, float] = {"phi_s": 0.0, "voltage": scenario.voltage_start, "f": scenario.f_start}

    def gap_voltage(delta_t: float, f_rev: float, turn: int) -> float:
        omega_rf = TWO_PI * scenario.harmonic * f_rev
        return state_holder["voltage"] * math.sin(omega_rf * delta_t + state_holder["phi_s"])

    def reference_voltage(f_rev: float, turn: int) -> float:
        return state_holder["voltage"] * math.sin(state_holder["phi_s"])

    rf = RFSystem(harmonic=scenario.harmonic, voltage=scenario.voltage_start)
    tracker = MacroParticleTracker(ring, ion, rf, gap_voltage=gap_voltage, reference_voltage=reference_voltage)
    state = tracker.initial_state(scenario.f_start, delta_t=scenario.initial_delta_t)

    records: list[tuple[float, ...]] = []
    t = 0.0
    turn = 0
    while t < scenario.duration:
        f_now = scenario.frequency_at(t)
        t_rev = 1.0 / f_now
        f_next = scenario.frequency_at(t + t_rev)
        gamma_now = ring.gamma_from_revolution_frequency(f_now)
        gamma_next = ring.gamma_from_revolution_frequency(f_next)
        dgamma_required = gamma_next - gamma_now
        voltage = scenario.voltage_at(t)
        sin_phi = dgamma_required / (qmc2 * voltage)
        if abs(sin_phi) > 1.0:
            raise PhysicsError(
                f"infeasible ramp at t={t:.4f}s: requires sin(phi_s)={sin_phi:.2f} "
                f"(raise the gap voltage or slow the ramp)"
            )
        state_holder["phi_s"] = math.asin(sin_phi)
        state_holder["voltage"] = voltage
        deadline.check_revolution(t_rev)
        tracker.step(state, f_rev=f_now)
        if turn % record_every == 0:
            records.append(
                (
                    t,
                    f_now,
                    state.gamma_ref,
                    gamma_now,
                    state.delta_t,
                    state.delta_gamma,
                    math.degrees(state_holder["phi_s"]),
                    360.0 * scenario.harmonic * f_now * state.delta_t,
                )
            )
        t += t_rev
        turn += 1

    deadline.publish()
    arr = np.asarray(records)
    return RampUpResult(
        time=arr[:, 0],
        f_rev=arr[:, 1],
        gamma_ref=arr[:, 2],
        gamma_programme=arr[:, 3],
        delta_t=arr[:, 4],
        delta_gamma=arr[:, 5],
        synchronous_phase_deg=arr[:, 6],
        bunch_phase_deg=arr[:, 7],
        deadline=deadline.stats(),
    )

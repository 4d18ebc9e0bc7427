"""The paper's two-particle recursive tracking map (Section IV-A).

The beam model consists of a *reference particle* (index R, a mathematical
construct that stays on the design orbit) and one *asynchronous macro
particle* representing a whole bunch.  Per revolution ``n`` the model
updates

* Eq. 2 — the reference Lorentz factor:
  ``γ_{R,n} = γ_{R,n-1} + (Q/mc²)·V_{R,n-1}``
* Eq. 3 — the Lorentz-factor difference:
  ``Δγ_n = Δγ_{n-1} + (Q/mc²)·ΔV_{n-1}`` with ``ΔV = V_{n-1} − V_{R,n-1}``
* Eq. 6 — the arrival-time difference:
  ``Δt_n = Δt_{n-1} + l_R·η_{R,n}/(β_n·β_{R,n}²·c) · Δγ_n/γ_{R,n}``

where the gap voltages are sampled at the arrival times of the two
particles.  :class:`MacroParticleTracker` binds the map to a ring, an ion
species and voltage sources; the free functions below expose the three
update equations individually (they are also the operations compiled onto
the CGRA by :mod:`repro.cgra`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import PhysicsError
from repro.physics.ion import IonSpecies
from repro.physics.rf import RFSystem
from repro.physics.ring import SynchrotronRing

__all__ = [
    "TrackingState",
    "TrackRecord",
    "MacroParticleTracker",
    "reference_gamma_update",
    "delta_gamma_update",
    "delta_t_update",
]


def reference_gamma_update(gamma_ref: float, v_ref: float, ion: IonSpecies) -> float:
    """Paper Eq. 2: advance the reference particle's Lorentz factor.

    ``v_ref`` is the effective gap voltage (volts) seen by the reference
    particle on this passage.  In the stationary case the reference
    particle crosses at the RF zero, so ``v_ref == 0`` and γ_R stays
    constant.
    """
    gamma_new = gamma_ref + ion.gamma_gain_per_volt() * v_ref
    if gamma_new < 1.0:
        raise PhysicsError(
            f"reference gamma dropped below 1 ({gamma_new}); "
            "decelerating voltage exceeds the particle energy"
        )
    return gamma_new


def delta_gamma_update(delta_gamma: float, v_async: float, v_ref: float, ion: IonSpecies) -> float:
    """Paper Eq. 3: advance the Lorentz-factor difference Δγ."""
    return delta_gamma + ion.gamma_gain_per_volt() * (v_async - v_ref)


def delta_t_update(
    delta_t: float,
    delta_gamma: float,
    gamma_ref: float,
    ring: SynchrotronRing,
) -> float:
    """Paper Eq. 6: advance the arrival-time difference Δt.

    Uses β of the asynchronous particle (γ = γ_R + Δγ) in the first power
    and β_R² of the reference particle, exactly as printed in Eq. 6.
    """
    gamma_async = gamma_ref + delta_gamma
    if gamma_async < 1.0:
        raise PhysicsError(
            f"asynchronous gamma dropped below 1 ({gamma_async})"
        )
    # Scalar forms of beta_from_gamma / ring.phase_slip: same expressions
    # without the ndarray round-trip (math.sqrt and np.sqrt are both
    # correctly-rounded IEEE sqrt, so results are bit-identical).  γ_R ≥ 1
    # is guaranteed by reference_gamma_update, γ checked above.
    beta_ref = math.sqrt(1.0 - 1.0 / (gamma_ref * gamma_ref))
    beta_async = math.sqrt(1.0 - 1.0 / (gamma_async * gamma_async))
    eta = ring.alpha_c - 1.0 / (gamma_ref * gamma_ref)
    coeff = ring.circumference * eta / (beta_async * beta_ref * beta_ref * SPEED_OF_LIGHT)
    return delta_t + coeff * delta_gamma / gamma_ref


@dataclass
class TrackingState:
    """Mutable longitudinal phase-space state of the two-particle model."""

    gamma_ref: float
    delta_gamma: float = 0.0
    delta_t: float = 0.0
    turn: int = 0

    def __post_init__(self) -> None:
        if self.gamma_ref < 1.0:
            raise PhysicsError(f"gamma_ref must be >= 1, got {self.gamma_ref}")

    @property
    def gamma_async(self) -> float:
        """Lorentz factor of the asynchronous macro particle."""
        return self.gamma_ref + self.delta_gamma

    def copy(self) -> "TrackingState":
        """Independent copy of the state."""
        return TrackingState(self.gamma_ref, self.delta_gamma, self.delta_t, self.turn)


@dataclass
class TrackRecord:
    """Turn-by-turn arrays recorded by :meth:`MacroParticleTracker.track`."""

    turns: np.ndarray
    time: np.ndarray
    delta_t: np.ndarray
    delta_gamma: np.ndarray
    gamma_ref: np.ndarray

    def phase_deg(self, harmonic: int, f_rev) -> np.ndarray:
        """Convert Δt to RF phase in degrees: 360°·h·f_R·Δt.

        ``f_rev`` may be a scalar or a per-turn array (acceleration ramps).
        """
        return 360.0 * harmonic * np.asarray(f_rev, dtype=float) * self.delta_t


class MacroParticleTracker:
    """Turn-by-turn tracker for the two-particle model.

    Parameters
    ----------
    ring, ion, rf:
        Machine, species and RF-system parameters.
    gap_voltage:
        Optional override: a callable ``(delta_t, f_rev, turn) -> volts``
        returning the gap voltage at arrival-time offset ``delta_t``.  When
        omitted, the analytic ``rf.gap_voltage_at`` is used.  The HIL
        framework passes a callable backed by the sampled/quantised ring
        buffer here, so the identical map runs in both fidelities.
    reference_voltage:
        Optional callable ``(f_rev, turn) -> volts`` for the voltage seen
        by the reference particle; defaults to sampling ``gap_voltage`` at
        ``delta_t = 0``.
    """

    def __init__(
        self,
        ring: SynchrotronRing,
        ion: IonSpecies,
        rf: RFSystem,
        gap_voltage: Callable[[float, float, int], float] | None = None,
        reference_voltage: Callable[[float, int], float] | None = None,
    ) -> None:
        self.ring = ring
        self.ion = ion
        self.rf = rf
        self._gap_voltage = gap_voltage
        self._reference_voltage = reference_voltage
        # V̂·sin(φ_s) is a run constant (rf is bound at construction);
        # hoisted out of the per-turn step.
        self._v_ref_default = rf.voltage * math.sin(rf.synchronous_phase)

    def initial_state(self, f_rev: float, delta_gamma: float = 0.0, delta_t: float = 0.0) -> TrackingState:
        """Build the initial state from a measured revolution frequency.

        Mirrors the CGRA program's initialisation (Section IV-B): the
        period-length detector yields T_R, from which β_R,0 and γ_R,0
        follow via Eq. 1.  Δγ₀ and Δt₀ default to zero — the paper excites
        oscillations through the input signals, not the initial state.
        """
        gamma0 = self.ring.gamma_from_revolution_frequency(f_rev)
        return TrackingState(gamma_ref=gamma0, delta_gamma=delta_gamma, delta_t=delta_t)

    def _voltages(self, state: TrackingState, f_rev: float) -> tuple[float, float]:
        if self._gap_voltage is not None:
            v_async = self._gap_voltage(state.delta_t, f_rev, state.turn)
            if self._reference_voltage is not None:
                v_ref = self._reference_voltage(f_rev, state.turn)
            else:
                v_ref = self._default_reference_voltage()
        else:
            v_async = self.rf.gap_voltage_at(state.delta_t, f_rev)
            v_ref = self._default_reference_voltage()
        return v_ref, v_async

    def _default_reference_voltage(self) -> float:
        """Voltage seen by the reference particle: V̂·sin(φ_s).

        The reference particle is a mathematical construct pinned to the
        *undisturbed* reference signal (in the bench it reads the
        reference ring buffer, not the gap buffer), so control-loop and
        phase-jump offsets of the gap signal do not act on it — only the
        synchronous phase does.
        """
        return self._v_ref_default

    def step(self, state: TrackingState, f_rev: float | None = None) -> TrackingState:
        """Advance the state by one revolution (Eqs. 2, 3, 6 in order).

        Mutates and returns ``state``.  ``f_rev`` defaults to the
        revolution frequency implied by the current γ_R, which is the
        self-consistent stationary behaviour; pass an explicit value to
        follow an external frequency programme (ramp-up case).
        """
        if f_rev is None:
            f_rev = self.ring.revolution_frequency(state.gamma_ref)
        v_ref, v_async = self._voltages(state, f_rev)
        state.gamma_ref = reference_gamma_update(state.gamma_ref, v_ref, self.ion)
        state.delta_gamma = delta_gamma_update(state.delta_gamma, v_async, v_ref, self.ion)
        state.delta_t = delta_t_update(state.delta_t, state.delta_gamma, state.gamma_ref, self.ring)
        state.turn += 1
        return state

    def track(
        self,
        state: TrackingState,
        n_turns: int,
        f_rev: float | None = None,
        record_every: int = 1,
    ) -> TrackRecord:
        """Track ``n_turns`` revolutions, recording every ``record_every``-th.

        Returns a :class:`TrackRecord` with elapsed machine time computed
        from the accumulated revolution periods.
        """
        if n_turns < 0:
            raise PhysicsError("n_turns must be non-negative")
        if record_every < 1:
            raise PhysicsError("record_every must be >= 1")
        n_rec = n_turns // record_every + 1
        turns = np.empty(n_rec, dtype=np.int64)
        time = np.empty(n_rec, dtype=float)
        dts = np.empty(n_rec, dtype=float)
        dgs = np.empty(n_rec, dtype=float)
        grs = np.empty(n_rec, dtype=float)

        elapsed = 0.0
        idx = 0

        def record() -> None:
            nonlocal idx
            turns[idx] = state.turn
            time[idx] = elapsed
            dts[idx] = state.delta_t
            dgs[idx] = state.delta_gamma
            grs[idx] = state.gamma_ref
            idx += 1

        record()
        for i in range(n_turns):
            current_f = f_rev if f_rev is not None else self.ring.revolution_frequency(state.gamma_ref)
            self.step(state, current_f)
            elapsed += 1.0 / current_f
            if (i + 1) % record_every == 0:
                record()
        return TrackRecord(
            turns=turns[:idx],
            time=time[:idx],
            delta_t=dts[:idx],
            delta_gamma=dgs[:idx],
            gamma_ref=grs[:idx],
        )

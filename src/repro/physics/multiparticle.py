"""Vectorised multi-macro-particle longitudinal tracker.

The paper's simulator deliberately collapses the bunch to a single macro
particle; Section V notes that reproducing Landau damping and
filamentation "would require the simulation of tens of thousands of
individual particles", and Section VI lists a multi-macro-particle model
as future work.  This module implements that model as a NumPy-vectorised
tracker.  It serves three purposes here:

1. the "real machine" stand-in for Fig. 5b (via
   :mod:`repro.baselines.offline_tracker`),
2. the paper's future-work extension (quadrupole mode, adaptive bunch
   profile),
3. a ground-truth cross-check for the single-particle map (the bunch
   centroid of a cold beam must follow the macro-particle trajectory).

All particles share the reference particle of
:mod:`repro.physics.tracking`; states are arrays ``delta_t[N]`` and
``delta_gamma[N]`` advanced by the same Eqs. 3 and 6 in vector form.
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
from repro.physics.tracking import reference_gamma_update

__all__ = ["MultiParticleTracker", "MultiTrackRecord"]


@dataclass
class MultiTrackRecord:
    """Per-turn moment traces recorded by :meth:`MultiParticleTracker.track`."""

    turns: np.ndarray
    time: np.ndarray
    mean_delta_t: np.ndarray
    std_delta_t: np.ndarray
    mean_delta_gamma: np.ndarray
    std_delta_gamma: np.ndarray


class MultiParticleTracker:
    """Track N macro particles through the longitudinal map.

    Parameters
    ----------
    ring, ion, rf:
        Machine, species and RF parameters (same objects as the
        single-particle tracker).
    delta_t, delta_gamma:
        Initial phase-space coordinates, 1-D arrays of equal length.
    gap_voltage:
        Optional callable ``(delta_t_array, f_rev, turn) -> volts_array``
        overriding the analytic RF voltage — used to drive the ensemble
        with the same (possibly phase-jumped, quantised) gap signal the
        HIL bench produces.
    """

    def __init__(
        self,
        ring: SynchrotronRing,
        ion: IonSpecies,
        rf: RFSystem,
        delta_t: np.ndarray,
        delta_gamma: np.ndarray,
        gamma_ref: float,
        gap_voltage: Callable[[np.ndarray, float, int], np.ndarray] | None = None,
    ) -> None:
        delta_t = np.ascontiguousarray(delta_t, dtype=float)
        delta_gamma = np.ascontiguousarray(delta_gamma, dtype=float)
        if delta_t.ndim != 1 or delta_gamma.ndim != 1:
            raise PhysicsError("delta_t and delta_gamma must be 1-D arrays")
        if delta_t.shape != delta_gamma.shape:
            raise PhysicsError(
                f"shape mismatch: delta_t {delta_t.shape} vs delta_gamma {delta_gamma.shape}"
            )
        if delta_t.size == 0:
            raise PhysicsError("need at least one macro particle")
        if not math.isfinite(gamma_ref):
            raise PhysicsError(f"gamma_ref must be finite, got {gamma_ref}")
        if gamma_ref < 1.0:
            raise PhysicsError(f"gamma_ref must be >= 1, got {gamma_ref}")
        self.ring = ring
        self.ion = ion
        self.rf = rf
        self.delta_t = delta_t
        self.delta_gamma = delta_gamma
        self.gamma_ref = float(gamma_ref)
        self.turn = 0
        self._gap_voltage = gap_voltage
        # Scratch buffers reused every turn to avoid per-turn allocation
        # (the guides' "in-place operations / be easy on the memory" rule).
        self._scratch = np.empty_like(delta_t)
        self._scratch2 = np.empty_like(delta_t)
        # The reference particle sees only the synchronous-phase voltage
        # (it is pinned to the undisturbed reference signal; phase jumps
        # and control corrections act on the bunches, not on it).
        self._v_ref = rf.voltage * math.sin(rf.synchronous_phase)
        self._gain = ion.gamma_gain_per_volt()

    @property
    def n_particles(self) -> int:
        """Number of macro particles in the ensemble."""
        return self.delta_t.size

    def step(self, f_rev: float | None = None) -> None:
        """Advance the whole ensemble by one revolution.

        Vector form of Eqs. 2, 3 and 6 as a fixed chain of in-place ufuncs
        on two scratch buffers.  V_R and Q/mc² are hoisted to
        construction and the Eq. 6 factor is computed in scalar ``math``;
        all are shared by every particle, and each result is
        bit-identical to the direct array expressions.
        """
        if f_rev is None:
            f_rev = self.ring.revolution_frequency(self.gamma_ref)
        if self._gap_voltage is not None:
            v_async = self._gap_voltage(self.delta_t, f_rev, self.turn)
        else:
            v_async = self.rf.gap_voltage_at(self.delta_t, f_rev)

        gamma_ref = reference_gamma_update(self.gamma_ref, self._v_ref, self.ion)
        self.gamma_ref = gamma_ref

        # Eq. 3 vectorised, in place:
        scratch = self._scratch
        np.subtract(v_async, self._v_ref, out=scratch)
        scratch *= self._gain
        self.delta_gamma += scratch

        # Eq. 6 vectorised.  β of each particle differs; compute it from
        # γ = γ_R + Δγ in the second scratch buffer.  fmin skips NaN as a
        # γ < 1 test does; a NaN-propagating minimum would let one NaN
        # hide a lost particle.
        gamma_async = np.add(self.delta_gamma, gamma_ref, out=self._scratch2)
        if np.fmin.reduce(gamma_async) < 1.0:
            raise PhysicsError("a macro particle dropped below gamma=1")
        # Scalar forms of beta_from_gamma and ring.phase_slip, as in
        # tracking.delta_t_update; γ_R ≥ 1 was checked above.
        beta_ref = math.sqrt(1.0 - 1.0 / (gamma_ref * gamma_ref))
        eta = self.ring.alpha_c - 1.0 / (gamma_ref * gamma_ref)
        coeff = self.ring.circumference * eta / (beta_ref * beta_ref * SPEED_OF_LIGHT)
        np.multiply(gamma_async, gamma_async, out=scratch)
        np.divide(1.0, scratch, out=scratch)
        np.subtract(1.0, scratch, out=scratch)
        np.sqrt(scratch, out=scratch)  # beta_async
        # delta_t += coeff / beta_async * delta_gamma / gamma_ref
        np.divide(self.delta_gamma, scratch, out=scratch)
        scratch *= coeff / gamma_ref
        self.delta_t += scratch
        self.turn += 1

    def track(
        self,
        n_turns: int,
        f_rev: float | None = None,
        record_every: int = 1,
    ) -> MultiTrackRecord:
        """Track ``n_turns`` revolutions recording bunch moments.

        The moment traces (not per-particle trajectories) are recorded to
        keep memory bounded for 10⁴–10⁵ particle runs.
        """
        if n_turns < 0:
            raise PhysicsError("n_turns must be non-negative")
        if record_every < 1:
            raise PhysicsError("record_every must be >= 1")
        n_rec = n_turns // record_every + 1
        turns = np.empty(n_rec, dtype=np.int64)
        time = np.empty(n_rec, dtype=float)
        m_dt = np.empty(n_rec, dtype=float)
        s_dt = np.empty(n_rec, dtype=float)
        m_dg = np.empty(n_rec, dtype=float)
        s_dg = np.empty(n_rec, dtype=float)

        elapsed = 0.0
        idx = 0

        def record() -> None:
            nonlocal idx
            turns[idx] = self.turn
            time[idx] = elapsed
            m_dt[idx] = self.delta_t.mean()
            s_dt[idx] = self.delta_t.std()
            m_dg[idx] = self.delta_gamma.mean()
            s_dg[idx] = self.delta_gamma.std()
            idx += 1

        record()
        for i in range(n_turns):
            current_f = f_rev if f_rev is not None else self.ring.revolution_frequency(self.gamma_ref)
            self.step(current_f)
            elapsed += 1.0 / current_f
            if (i + 1) % record_every == 0:
                record()
        return MultiTrackRecord(
            turns=turns[:idx],
            time=time[:idx],
            mean_delta_t=m_dt[:idx],
            std_delta_t=s_dt[:idx],
            mean_delta_gamma=m_dg[:idx],
            std_delta_gamma=s_dg[:idx],
        )

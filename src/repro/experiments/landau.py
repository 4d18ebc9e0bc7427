"""E10 — Landau damping / filamentation vs. control-loop damping.

Section V of the paper explains what the single-macro-particle bench
*cannot* show: "Without the control loop, the real particle bunch in the
accelerator would also experience a decrease of the phase oscillation
amplitude due to Landau damping and filamentation. ... It would require
the simulation of tens of thousands of individual particles to see this
effect.  However, since the damping from the control loop is much
stronger, the effect of filamentation and Landau damping can be
neglected for the controlled system."

:func:`landau_damping_comparison` runs the multi-particle tracker (the
paper's future-work model) through one phase jump with the loop off and
on and fits the dipole-envelope decay rates.  The reproduced claim:
λ_loop ≫ λ_landau > 0, and the bunch length grows (filaments) in the
uncontrolled case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.offline_tracker import MachineExperimentEmulator
from repro.experiments.mde import machine_config
from repro.parallel import WorkerPool, dispatch
from repro.physics.oscillation import fit_damping_envelope

__all__ = [
    "LandauRow",
    "LandauTask",
    "landau_row",
    "landau_damping_comparison",
]

#: Window, seconds: one jump (at 5 ms) and its aftermath, inside the
#: 50 ms toggle period so only one jump acts.
DURATION = 0.045
#: Bunch length, seconds.  It sets the Landau-damping strength (the
#: decoherence rate grows with the amplitude-dependent frequency spread,
#: i.e. with the bunch length squared): 8 ns puts the uncontrolled decay
#: clearly below the loop's — the paper's "much stronger" regime — while
#: still being measurable within one window.
SIGMA_DELTA_T = 8e-9
#: Shared across both configurations on purpose: the ensembles must be
#: identical so the on/off contrast isolates the loop.
SEED = 20231124


@dataclass(frozen=True)
class LandauRow:
    """Damping behaviour of one configuration after a phase jump."""

    control_enabled: bool
    n_particles: int
    #: Fitted dipole-envelope decay rate (1/s).
    damping_rate: float
    #: Envelope 1/e time (s).
    time_constant: float
    #: Relative bunch-length growth over the window (filamentation).
    bunch_length_growth: float
    #: Residual dipole amplitude at the end of the window, degrees.
    residual_amplitude_deg: float


@dataclass(frozen=True)
class LandauTask:
    """One configuration (loop off or on) of the comparison — plain
    data, so the two runs shard across :mod:`repro.parallel` workers."""

    control_enabled: bool
    n_particles: int


def landau_row(task: LandauTask) -> LandauRow:
    """Run one configuration's jump response and fit its decay rate."""
    emu = MachineExperimentEmulator(
        machine_config(
            n_particles=task.n_particles,
            sigma_delta_t=SIGMA_DELTA_T,
            control_enabled=task.control_enabled,
            seed=SEED,
            record_every=4,
        )
    )
    res = emu.run(DURATION)
    sel = res.time > emu.jump.start_time
    fit = fit_damping_envelope(res.time[sel], res.phase_deg[sel])
    sigma0 = float(res.sigma_delta_t[0])
    sigma1 = float(res.sigma_delta_t[-1])
    tail = res.phase_deg[res.time > 0.8 * DURATION]
    centred = tail - tail.mean()
    return LandauRow(
        control_enabled=task.control_enabled,
        n_particles=task.n_particles,
        damping_rate=fit.rate,
        time_constant=fit.time_constant,
        bunch_length_growth=sigma1 / sigma0 - 1.0,
        residual_amplitude_deg=float(np.abs(centred).max()),
    )


def landau_damping_comparison(
    n_particles: int = 4000, pool: WorkerPool | None = None
) -> list[LandauRow]:
    """Run the jump response with the loop off, then on, on ``pool``
    (inline without one); fit decay rates."""
    tasks = [
        LandauTask(control_enabled=enabled, n_particles=n_particles)
        for enabled in (False, True)
    ]
    return dispatch(pool, landau_row, tasks, "landau")

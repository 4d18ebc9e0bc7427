"""E5 — Fig. 5: phase-difference traces, bench (5a) vs. machine (5b).

The headline experiment.  :func:`fig5_run_bench` runs the cavity-in-the-
loop simulator with the 8°-jump MDE scenario; :func:`fig5_run_machine`
runs the multi-particle machine emulation with 10° jumps;
:func:`fig5_metrics` extracts the quantities the paper uses to argue the
match:

* the synchrotron frequency of the post-jump oscillation
  (1.28 kHz bench / 1.2 kHz machine),
* the first post-jump peak-to-peak amplitude ≈ 2 × jump amplitude,
* damping of the oscillation well inside the 50 ms inter-jump window,
* the settled phase level equals the jump amplitude (relative phase;
  constant dead-time offsets are explicitly irrelevant in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.offline_tracker import MachineExperimentEmulator, MachineRunResult
from repro.errors import ConfigurationError
from repro.experiments.mde import MDE_TOGGLE_PERIOD, bench_config, machine_config
from repro.hil.simulator import CavityInTheLoop, HilRunResult
from repro.physics.oscillation import estimate_oscillation_frequency

__all__ = ["Fig5Metrics", "fig5_run_bench", "fig5_run_machine", "fig5_metrics"]


def fig5_run_bench(duration: float = 0.30, engine: str = "python", **overrides) -> HilRunResult:
    """Run the Fig. 5a bench for ``duration`` seconds (≥ several jumps)."""
    sim = CavityInTheLoop(bench_config(engine=engine, **overrides))
    return sim.run(duration)


def fig5_run_machine(duration: float = 0.30, n_particles: int = 5000, **overrides) -> MachineRunResult:
    """Run the Fig. 5b machine emulation for ``duration`` seconds."""
    emu = MachineExperimentEmulator(machine_config(n_particles=n_particles, **overrides))
    return emu.run(duration)


@dataclass
class Fig5Metrics:
    """Quantities extracted from one phase-difference trace."""

    #: Oscillation frequency after the first jump (Hz).
    synchrotron_frequency: float
    #: Peak-to-peak of the first post-jump oscillation (degrees).
    first_peak_to_peak: float
    #: Ratio of that peak-to-peak to twice the jump amplitude (≈ 1).
    peak_ratio: float
    #: Residual peak-to-peak just before the next jump (degrees).
    residual_peak_to_peak: float
    #: Mean settled phase minus pre-jump level, degrees (≈ jump size).
    settled_shift: float


def fig5_metrics(
    time: np.ndarray,
    phase_deg: np.ndarray,
    jump_deg: float,
    jump_time: float,
) -> Fig5Metrics:
    """Extract the Fig. 5 match metrics around one jump at ``jump_time``.

    The analysis windows, in the MDE's 50 ms inter-jump period:

    * *pre*: 5 ms before the jump (baseline level),
    * *transient*: the first 1.5 synchrotron periods after the jump
      (first peak),
    * *spectral*: 40% of the inter-jump window (frequency estimate),
    * *settled*: the last 20% of the inter-jump window.
    """
    time = np.asarray(time, dtype=float)
    phase_deg = np.asarray(phase_deg, dtype=float)
    if time.shape != phase_deg.shape:
        raise ConfigurationError("time/phase shape mismatch")
    if not time[0] <= jump_time <= time[-1] - 0.5 * MDE_TOGGLE_PERIOD:
        raise ConfigurationError("jump_time not inside the trace (with settling room)")

    pre = phase_deg[(time > jump_time - 0.005) & (time < jump_time)]
    if pre.size == 0:
        raise ConfigurationError("no pre-jump samples in trace")
    base = float(np.median(pre))

    spectral_sel = (time > jump_time) & (time < jump_time + 0.4 * MDE_TOGGLE_PERIOD)
    f_s = estimate_oscillation_frequency(time[spectral_sel], phase_deg[spectral_sel])

    transient_sel = (time > jump_time) & (time < jump_time + 1.5 / f_s)
    transient = phase_deg[transient_sel]
    first_pp = float(transient.max() - transient.min())

    settled_sel = (time > jump_time + 0.8 * MDE_TOGGLE_PERIOD) & (
        time < jump_time + MDE_TOGGLE_PERIOD
    )
    settled = phase_deg[settled_sel]
    residual_pp = float(settled.max() - settled.min())
    settled_shift = float(np.median(settled) - base)

    return Fig5Metrics(
        synchrotron_frequency=f_s,
        first_peak_to_peak=first_pp,
        peak_ratio=first_pp / (2.0 * jump_deg),
        residual_peak_to_peak=residual_pp,
        settled_shift=settled_shift,
    )

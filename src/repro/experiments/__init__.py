"""Experiment scenario builders and per-figure data generators.

One module per paper artefact (see DESIGN.md §3 for the index):
``fig1`` (forces on a bunch), ``fig2`` (bench signals, h = 2),
``fig5`` (phase-oscillation traces, bench vs. machine),
``schedule_table`` (Section IV-B schedule lengths),
``jitter_study`` (software vs. CGRA timing), ``reconfig`` (turnaround),
``rampup`` (Section VI ramp-up extension), ``landau`` (multi-particle
damping extension).  ``mde`` holds the shared machine-development-
experiment scenario of 2023-11-24.
"""

from repro.experiments.mde import (
    MDE_DATE,
    bench_config,
    machine_config,
)
from repro.experiments.fig1 import fig1_forces_data
from repro.experiments.fig2 import fig2_signal_snapshot
from repro.experiments.fig5 import fig5_run_bench, fig5_run_machine, fig5_metrics
from repro.experiments.schedule_table import schedule_length_table, PAPER_SCHEDULE_LENGTHS
from repro.experiments.jitter_study import jitter_comparison
from repro.experiments.reconfig import reconfiguration_table
from repro.experiments.rampup import RampUpScenario, rampup_run
from repro.experiments.landau import landau_damping_comparison
from repro.experiments.dual_harmonic_study import dual_harmonic_landau_study

__all__ = [
    "MDE_DATE",
    "bench_config",
    "machine_config",
    "fig1_forces_data",
    "fig2_signal_snapshot",
    "fig5_run_bench",
    "fig5_run_machine",
    "fig5_metrics",
    "schedule_length_table",
    "PAPER_SCHEDULE_LENGTHS",
    "jitter_comparison",
    "reconfiguration_table",
    "RampUpScenario",
    "rampup_run",
    "landau_damping_comparison",
    "dual_harmonic_landau_study",
]

"""Baselines and comparators.

* :mod:`offline_tracker` — a BLonD/ESME/Long1D-style offline
  multi-particle reference (the class of tools the paper cites as "far
  from the real-time requirements"), doubling as the "real machine"
  stand-in for Fig. 5b;
* :mod:`fpga_direct` — the rejected direct-FPGA implementation's
  turnaround cost model (synthesis hours vs. CGRA seconds).

The rejected pure-software simulator is represented by its output
timing alone, :class:`repro.hil.jitter.SoftwareTimingModel`, which E7
(:mod:`repro.experiments.jitter_study`) samples directly.
"""

from repro.baselines.offline_tracker import (
    MachineExperimentConfig,
    MachineExperimentEmulator,
    MachineRunResult,
)
from repro.baselines.fpga_direct import DirectFpgaFlow

__all__ = [
    "MachineExperimentConfig",
    "MachineExperimentEmulator",
    "MachineRunResult",
    "DirectFpgaFlow",
]

"""Hardware-in-the-loop framework (paper Sections III and V).

``framework`` is the sample-accurate FPGA top level of Fig. 3 (ADC →
ring buffers → detectors → CGRA → Gauss pulse generator → DAC);
``simulator`` is the full closed-loop bench of Fig. 4 at revolution
level, used for second-scale runs: one loop in host floats, or one
lockstep lane per entry of a tuple ``jump_deg`` for sweeps and the fault
campaign; ``closed_loop`` is the sample-accurate closed loop;
``batch`` keeps two names the repository benchmark reaches by path;
``softcore`` is the SpartanMC-style parameter/monitoring interface;
``realtime`` and ``jitter`` provide the deadline accounting and the
timing models behind the paper's "software is too jittery, the CGRA is
deterministic" argument.
"""

from repro.hil.jitter import CgraTimingModel, SoftwareTimingModel, TimingSample
from repro.hil.realtime import DeadlineMonitor, JitterStats
from repro.hil.softcore import ParameterInterface, DramRecorder
from repro.hil.framework import FpgaFramework, FrameworkConfig
from repro.hil.simulator import CavityInTheLoop, HilConfig, HilRunResult
from repro.hil.closed_loop import (
    SampleAccurateBench,
    SampleAccurateBenchConfig,
    SampleAccurateRun,
)

__all__ = [
    "CgraTimingModel",
    "SoftwareTimingModel",
    "TimingSample",
    "DeadlineMonitor",
    "JitterStats",
    "ParameterInterface",
    "DramRecorder",
    "FpgaFramework",
    "FrameworkConfig",
    "CavityInTheLoop",
    "HilConfig",
    "HilRunResult",
    "SampleAccurateBench",
    "SampleAccurateBenchConfig",
    "SampleAccurateRun",
]

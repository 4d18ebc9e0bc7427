"""Coarse-Grained Reconfigurable Architecture (CGRA) substrate.

Reproduces the paper's Section III-C tool flow end to end:

1. the beam model is written in (a subset of) C;
2. a code parser converts it into a control/data-flow graph — the paper's
   "Scheduler Application Representation (SCAR)" (:mod:`repro.cgra.frontend`,
   :mod:`repro.cgra.dfg`);
3. a customised resource-constrained list scheduler maps the graph onto a
   processing-element fabric with a configurable interconnect
   (:mod:`repro.cgra.scheduler`, :mod:`repro.cgra.fabric`);
4. the scheduler's output is a set of context-memory images that can be
   loaded without re-synthesis (:mod:`repro.cgra.context`);
5. the contexts execute cycle-accurately against the SensorAccess bus
   (:mod:`repro.cgra.executor`, :mod:`repro.cgra.sensor`) — the
   interpreter that is the bit-exactness oracle — and, lowered to
   generated NumPy code, in B ≥ 1 lockstep lanes
   (:mod:`repro.cgra.engine`, the compiled engine);
6. every stage can be checked statically — schedule/context legality,
   mini-C semantics, value ranges — without executing anything
   (:mod:`repro.cgra.verify`, ``python -m repro.analysis``).

The schedule length in clock ticks, divided into the CGRA clock rate,
gives the maximum revolution frequency the simulator can sustain — the
paper's central real-time argument (reproduced by :mod:`repro.cgra.timing`).
"""

from repro.cgra.ops import Op, OperatorLatencies
from repro.cgra.dfg import DFGNode, DataflowGraph
from repro.cgra.fabric import CgraFabric, CgraConfig
from repro.cgra.sensor import BatchSensorBus, SensorBus
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler, Schedule, ScheduledOp
from repro.cgra.modulo import ModuloScheduler, ModuloSchedule
from repro.cgra.engine import (
    BatchedCgraExecutor,
    CompiledProgram,
    compile_program,
)
from repro.cgra.reference import ReferenceInterpreter
from repro.cgra.context import ContextImage, build_context_images
from repro.cgra.executor import CgraExecutor
from repro.cgra.timing import ClockDomain, max_revolution_frequency
from repro.cgra.models import (
    beam_model_source,
    clear_cache,
    compile_beam_model,
    CompiledModel,
)
from repro.cgra.verify import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    analyze_ranges,
    lint_source,
    verify_context_images,
    verify_modulo_schedule,
    verify_schedule,
)

__all__ = [
    "Op",
    "OperatorLatencies",
    "DFGNode",
    "DataflowGraph",
    "CgraFabric",
    "CgraConfig",
    "SensorBus",
    "BatchSensorBus",
    "compile_c_to_dfg",
    "ListScheduler",
    "Schedule",
    "ScheduledOp",
    "ModuloScheduler",
    "ModuloSchedule",
    "BatchedCgraExecutor",
    "CompiledProgram",
    "compile_program",
    "ReferenceInterpreter",
    "ContextImage",
    "build_context_images",
    "CgraExecutor",
    "ClockDomain",
    "max_revolution_frequency",
    "beam_model_source",
    "clear_cache",
    "compile_beam_model",
    "CompiledModel",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "analyze_ranges",
    "lint_source",
    "verify_context_images",
    "verify_modulo_schedule",
    "verify_schedule",
]

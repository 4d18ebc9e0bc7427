"""E8 — model-change turnaround: CGRA seconds vs. FPGA synthesis hours.

"The usage of a CGRA to carry out the simulation has proven extremely
useful as the turn-around time after model changes is only in the range
of seconds (compared to a full FPGA synthesis that can easily take
hours)."

:func:`reconfiguration_table` measures our actual tool-flow wall clock
(parse → lower → schedule → context generation) for each model variant
and sets it against the direct-FPGA cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.fpga_direct import DirectFpgaFlow
from repro.cgra.models import compile_beam_model
from repro.parallel import WorkerPool, dispatch

__all__ = ["ReconfigRow", "ReconfigTask", "reconfig_row", "reconfiguration_table"]

#: Model variants timed, as ``(n_bunches, pipelined)``: the Section IV-B
#: table's four configurations.
CONFIGURATIONS = ((8, False), (8, True), (4, True), (1, True))
#: Size of the beam-model design the direct-FPGA flow synthesises, kLUT.
DESIGN_KLUTS = 180.0


@dataclass(frozen=True)
class ReconfigRow:
    """Turnaround of one model variant through both flows."""

    n_bunches: int
    pipelined: bool
    cgra_seconds: float
    fpga_seconds: float

    @property
    def speedup(self) -> float:
        """How many times faster the CGRA flow iterates."""
        return self.fpga_seconds / self.cgra_seconds


@dataclass(frozen=True)
class ReconfigTask:
    """One model variant's turnaround measurement (plain data)."""

    n_bunches: int
    pipelined: bool


def reconfig_row(task: ReconfigTask) -> ReconfigRow:
    """Measure one variant's tool-flow wall clock.

    The CSV column this feeds is a *measured duration*, so it is the one
    runner output that is inherently not byte-reproducible across runs
    (any job count included).
    """
    fpga_seconds = DirectFpgaFlow().synthesis_seconds(DESIGN_KLUTS)
    # use_cache=False: this experiment *measures* the tool-flow
    # turnaround, so a cache hit would report a stale duration.
    model = compile_beam_model(
        n_bunches=task.n_bunches, pipelined=task.pipelined, use_cache=False
    )
    return ReconfigRow(
        n_bunches=task.n_bunches,
        pipelined=task.pipelined,
        cgra_seconds=model.compile_seconds,
        fpga_seconds=fpga_seconds,
    )


def reconfiguration_table(pool: WorkerPool | None = None) -> list[ReconfigRow]:
    """Measure CGRA turnaround and compare with modelled FPGA synthesis:
    one task per model variant on ``pool`` (inline without one)."""
    tasks = [ReconfigTask(n_bunches=n, pipelined=p) for n, p in CONFIGURATIONS]
    return dispatch(pool, reconfig_row, tasks, "reconfig")

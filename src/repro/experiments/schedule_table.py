"""E6 — the Section IV-B schedule-length "table".

The paper reports, for the beam model on the 111 MHz CGRA:

========================  ===============  =======================
configuration             schedule length  max revolution frequency
========================  ===============  =======================
8 bunches, no pipelining  128 ticks        ≈ 867 kHz
8 bunches, pipelined      111 ticks        1 MHz
4 bunches, pipelined       99 ticks        ≈ 1.12 MHz
1 bunch,   pipelined       93 ticks        ≈ 1.19 MHz
========================  ===============  =======================

:func:`schedule_length_table` reproduces the table with our tool flow.
Absolute tick counts depend on FP-core latencies we can only estimate
(see :class:`~repro.cgra.ops.OperatorLatencies`); the *shape* —
pipelining shaves the schedule below the 1 MHz line, fewer bunches
shave it further — is the reproduced claim, checked by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cgra.fabric import CgraConfig
from repro.cgra.models import compile_beam_model

__all__ = ["ScheduleRow", "PAPER_SCHEDULE_LENGTHS", "schedule_length_table"]

#: The paper's reported values: (n_bunches, pipelined) → ticks.
PAPER_SCHEDULE_LENGTHS: dict[tuple[int, bool], int] = {
    (8, False): 128,
    (8, True): 111,
    (4, True): 99,
    (1, True): 93,
}


@dataclass(frozen=True)
class ScheduleRow:
    """One row of the reproduced schedule-length table."""

    n_bunches: int
    pipelined: bool
    schedule_ticks: int
    max_f_rev_hz: float
    paper_ticks: int
    paper_max_f_rev_hz: float
    dfg_nodes: int
    critical_path_ticks: int
    io_ops: int

    @property
    def meets_1mhz(self) -> bool:
        """Whether this configuration sustains 1 MHz revolutions."""
        return self.max_f_rev_hz >= 1e6


def schedule_length_table() -> list[ScheduleRow]:
    """Compile and schedule every configuration of the paper's table on
    the default fabric."""
    config = CgraConfig()
    rows: list[ScheduleRow] = []
    for (n_bunches, pipelined), paper_ticks in PAPER_SCHEDULE_LENGTHS.items():
        model = compile_beam_model(n_bunches=n_bunches, pipelined=pipelined, config=config)
        rows.append(
            ScheduleRow(
                n_bunches=n_bunches,
                pipelined=pipelined,
                schedule_ticks=model.schedule_length,
                max_f_rev_hz=model.max_f_rev,
                paper_ticks=paper_ticks,
                paper_max_f_rev_hz=config.clock_mhz * 1e6 / paper_ticks,
                dfg_nodes=len(model.graph),
                critical_path_ticks=model.graph.critical_path_length(config.latencies),
                io_ops=model.schedule.io_op_count(),
            )
        )
    return rows

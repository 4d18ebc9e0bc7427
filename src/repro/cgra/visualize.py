"""ASCII rendering of CGRA schedules (debugging / teaching aid).

Renders a schedule as a per-PE Gantt chart in plain text — which PE
executes what at which tick, where the SensorAccess serialisation
bites, and how long the tail of the critical path is.  Used by the
``cgra_playground`` example and handy when calibrating
:class:`~repro.cgra.ops.OperatorLatencies` against a real overlay.
"""

from __future__ import annotations

from repro.cgra.scheduler import ListScheduler, Schedule

__all__ = ["render_schedule", "utilisation_bars"]

#: One letter per op family for the Gantt cells.
_OP_LETTER = {
    "fadd": "+", "fsub": "-", "fmul": "*", "fdiv": "/", "fsqrt": "r",
    "fneg": "n", "fmin": "m", "fmax": "M", "cmp_lt": "<", "cmp_le": "=",
    "select": "?", "sensor_read": "S", "sensor_read_addr": "A",
    "actuator_write": "W",
}


def render_schedule(schedule: Schedule, max_width: int = 160) -> str:
    """Per-PE Gantt chart of a list schedule.

    Each row is one PE; each column one tick (compressed if the schedule
    exceeds ``max_width`` columns).  Occupied ticks show the operation's
    letter, idle ticks a dot.
    """
    length = max(schedule.length, 1)
    step = max(1, -(-length // max_width))  # ceil division
    columns = -(-length // step)
    lines = [
        f"schedule: {length} ticks on {len(schedule.fabric.pes)} PEs"
        + (f" (1 col = {step} ticks)" if step > 1 else "")
    ]
    latencies = schedule.fabric.config.latencies
    for pe in schedule.fabric.pes:
        row = ["."] * columns
        for placed in schedule.ops_on_pe(pe):
            node = schedule.graph.node(placed.node_id)
            occupancy = (
                ListScheduler.IO_ISSUE_TICKS if node.is_io()
                else max(1, latencies.of(placed.op))
            )
            letter = _OP_LETTER.get(placed.op.value, "x")
            for tick in range(placed.start, placed.start + occupancy):
                col = tick // step
                if col < columns:
                    row[col] = letter
        marker = " io" if pe == schedule.fabric.io_pe else (
            " hv" if pe in schedule.fabric.heavy_pes else "   "
        )
        lines.append(f"PE{pe[0]},{pe[1]}{marker} |{''.join(row)}|")
    lines.append(
        "legend: +-*/ arithmetic, r sqrt, S/A sensor reads, W actuator "
        "write, ? select; io = SensorAccess PE, hv = div/sqrt-capable"
    )
    return "\n".join(lines)


def utilisation_bars(schedule: Schedule, width: int = 40) -> str:
    """Horizontal utilisation bars, one per PE."""
    lines = []
    for pe, util in sorted(schedule.pe_utilisation().items()):
        filled = int(round(util * width))
        bar = "#" * filled + "-" * (width - filled)
        lines.append(f"PE{pe[0]},{pe[1]} [{bar}] {util * 100:5.1f}%")
    return "\n".join(lines)

"""Resource-constrained list scheduler (paper Section III-C).

"The scheduler is a customised resource-constrained list scheduler.
Output of the scheduler are the contents for all context memories."

Model of the machine the scheduler targets:

* each PE executes one operation at a time: an operation issued at tick
  ``t`` occupies its PE until ``t + latency`` and its result is available
  (locally) at ``t + latency``;
* zero-time values (constants, parameters, loop-carried registers) are
  preloaded into context/register memory and readable by any PE at tick
  0 at no routing cost;
* moving a value between PEs costs ``route_hop`` ticks per interconnect
  hop ("results of operations can be passed on, allowing the routing of
  operands where no direct connection exists");
* the SensorAccess module is a single pipelined memory port on one PE:
  it accepts one request per :attr:`io_issue_ticks` and delivers the
  result after the operation's latency — all IO of the model serialises
  through it, which is why the schedule grows with the bunch count
  (paper: 93 → 99 → 111 ticks for 1 → 4 → 8 bunches).

Priorities are latency-weighted longest-path-to-sink (critical path
first), the classic list-scheduling heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cgra.dfg import DataflowGraph
from repro.cgra.fabric import CgraFabric
from repro.cgra.ops import Op
from repro.errors import ScheduleError

__all__ = ["ScheduledOp", "Schedule", "ListScheduler"]


@dataclass(frozen=True)
class ScheduledOp:
    """Placement of one operation: PE, issue tick and completion tick."""

    node_id: int
    op: Op
    pe: tuple[int, int]
    start: int
    finish: int


@dataclass
class Schedule:
    """Result of scheduling one loop body onto a fabric."""

    graph: DataflowGraph
    fabric: CgraFabric
    ops: dict[int, ScheduledOp] = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Schedule length in clock ticks (the paper's headline metric):
        the tick by which every operation of one iteration has finished."""
        return max((s.finish for s in self.ops.values()), default=0)

    def ops_on_pe(self, pe: tuple[int, int]) -> list[ScheduledOp]:
        """All operations placed on one PE, by issue tick."""
        return sorted((s for s in self.ops.values() if s.pe == pe), key=lambda s: s.start)

    def pe_utilisation(self) -> dict[tuple[int, int], float]:
        """Busy fraction of each PE over the schedule length.

        Uses the same occupancy the scheduler enforces: IO operations
        hold their PE only for the SensorAccess issue window, other
        operations for their full latency.
        """
        length = max(self.length, 1)
        busy: dict[tuple[int, int], int] = {pe: 0 for pe in self.fabric.pes}
        latencies = self.fabric.config.latencies
        for s in self.ops.values():
            node = self.graph.node(s.node_id)
            occupancy = (
                ListScheduler.IO_ISSUE_TICKS
                if node.is_io()
                else max(1, latencies.of(s.op))
            )
            busy[s.pe] += occupancy
        return {pe: b / length for pe, b in busy.items()}

    def io_op_count(self) -> int:
        """Number of SensorAccess operations per iteration."""
        return sum(1 for s in self.ops.values() if self.graph.node(s.node_id).is_io())

    def context_depths(self) -> dict[tuple[int, int], int]:
        """Context-memory entries each PE needs for this schedule."""
        depths = {pe: 0 for pe in self.fabric.pes}
        for s in self.ops.values():
            depths[s.pe] += 1
        return depths

    def max_context_depth(self) -> int:
        """Deepest per-PE context memory the schedule requires."""
        return max(self.context_depths().values(), default=0)

    def verify(self, f_rev: float | None = None):
        """Run the static verifier; return its diagnostic report.

        Unlike :meth:`validate` (first-error-wins exception), this
        re-derives legality from the graph and fabric alone and reports
        *every* violation as a diagnostic — see
        :func:`repro.cgra.verify.verify_schedule`.
        """
        # Imported lazily: repro.cgra.verify imports this module.
        from repro.cgra.verify import verify_schedule

        return verify_schedule(self, f_rev=f_rev)

    def validate(self) -> None:
        """Re-check all resource and dependence constraints.

        Raises :class:`~repro.errors.ScheduleError` on any violation;
        used by tests and run once after scheduling as a safety net.
        """
        latencies = self.fabric.config.latencies
        # 1. every non-zero-time node is scheduled exactly once
        for node in self.graph.nodes.values():
            if node.is_zero_time():
                continue
            if node.node_id not in self.ops:
                raise ScheduleError(f"node {node.node_id} ({node.op}) not scheduled")
        # 2. dependences with routing
        for s in self.ops.values():
            node = self.graph.node(s.node_id)
            for operand_id in node.operands:
                producer = self.graph.node(operand_id)
                if producer.is_zero_time():
                    continue
                p = self.ops[operand_id]
                ready = p.finish + self.fabric.routing_delay(p.pe, s.pe)
                if s.start < ready:
                    raise ScheduleError(
                        f"node {s.node_id} starts at {s.start} before operand "
                        f"{operand_id} is ready at {ready}"
                    )
        # 3. PE exclusivity
        by_pe: dict[tuple[int, int], list[ScheduledOp]] = {}
        for s in self.ops.values():
            by_pe.setdefault(s.pe, []).append(s)
        for pe, ops in by_pe.items():
            ops.sort(key=lambda s: s.start)
            for a, b in zip(ops, ops[1:]):
                node_a = self.graph.node(a.node_id)
                occupancy = (
                    ListScheduler.IO_ISSUE_TICKS
                    if node_a.is_io()
                    else max(1, latencies.of(a.op))
                )
                if b.start < a.start + occupancy:
                    raise ScheduleError(
                        f"PE {pe} oversubscribed: ops {a.node_id} and {b.node_id} overlap"
                    )
        # 4. capability
        for s in self.ops.values():
            if not self.fabric.supports(s.pe, s.op):
                raise ScheduleError(f"PE {s.pe} cannot execute {s.op}")
        # 5. context-memory capacity
        limit = self.fabric.config.context_slots
        for pe, depth in self.context_depths().items():
            if depth > limit:
                raise ScheduleError(
                    f"PE {pe} needs {depth} context entries, memory holds {limit}"
                )


class ListScheduler:
    """Critical-path-first list scheduler with routing-aware placement."""

    #: SensorAccess accepts a new request every this many ticks (the port
    #: is pipelined; results still take the operation's full latency).
    IO_ISSUE_TICKS = 2

    def __init__(self, fabric: CgraFabric) -> None:
        self.fabric = fabric

    def _priorities(self, graph: DataflowGraph) -> dict[int, int]:
        """Longest latency-weighted path from each node to any sink."""
        latencies = self.fabric.config.latencies
        order = list(graph.topological_order())
        prio: dict[int, int] = {}
        consumers = graph.consumers()
        for node in reversed(order):
            downstream = max((prio[c] for c in consumers[node.node_id]), default=0)
            prio[node.node_id] = downstream + latencies.of(node.op)
        return prio

    @staticmethod
    def _earliest_gap(busy: list[tuple[int, int]], t: int, span: int) -> int:
        """Earliest start ≥ t such that [start, start+span) avoids ``busy``
        (sorted, non-overlapping intervals)."""
        start = t
        for b0, b1 in busy:
            if start + span <= b0:
                break
            if start < b1:
                start = b1
        return start

    @staticmethod
    def _insert_interval(busy: list[tuple[int, int]], start: int, span: int) -> None:
        import bisect

        bisect.insort(busy, (start, start + span))

    def schedule(self, graph: DataflowGraph) -> Schedule:
        """Schedule one loop body; returns a validated :class:`Schedule`."""
        graph.validate()
        latencies = self.fabric.config.latencies
        prio = self._priorities(graph)
        consumers = graph.consumers()
        result = Schedule(graph=graph, fabric=self.fabric)
        busy: dict[tuple[int, int], list[tuple[int, int]]] = {pe: [] for pe in self.fabric.pes}
        depth: dict[tuple[int, int], int] = {pe: 0 for pe in self.fabric.pes}
        slot_limit = self.fabric.config.context_slots

        pending = {
            n.node_id: sum(1 for o in graph.node(n.node_id).operands
                           if not graph.node(o).is_zero_time())
            for n in graph.nodes.values()
            if not n.is_zero_time()
        }
        ready = [nid for nid, deps in pending.items() if deps == 0]

        while ready:
            ready.sort(key=lambda nid: (-prio[nid], nid))
            nid = ready.pop(0)
            node = graph.node(nid)
            latency = latencies.of(node.op)
            occupancy = self.IO_ISSUE_TICKS if node.is_io() else max(1, latency)
            candidates = (
                [self.fabric.io_pe] if node.is_io() else self.fabric.candidates(node.op)
            )

            best: tuple[int, int, tuple[int, int]] | None = None  # (finish, start, pe)
            for pe in candidates:
                if depth[pe] >= slot_limit:
                    continue  # context memory full on this PE
                data_ready = 0
                for operand_id in node.operands:
                    producer = graph.node(operand_id)
                    if producer.is_zero_time():
                        continue
                    p = result.ops[operand_id]
                    data_ready = max(
                        data_ready, p.finish + self.fabric.routing_delay(p.pe, pe)
                    )
                start = self._earliest_gap(busy[pe], data_ready, occupancy)
                finish = start + latency
                key = (finish, start, pe)
                if best is None or key < best:
                    best = key
            if best is None:
                raise ScheduleError(
                    f"no placement found for node {nid} ({node.op}); "
                    "all capable PEs are at context-memory capacity"
                )
            finish, start, pe = best
            depth[pe] += 1
            self._insert_interval(busy[pe], start, occupancy)
            result.ops[nid] = ScheduledOp(
                node_id=nid, op=node.op, pe=pe, start=start, finish=finish
            )
            for c in consumers[nid]:
                if c in pending:
                    pending[c] -= 1
                    if pending[c] == 0:
                        ready.append(c)

        unscheduled = [nid for nid, deps in pending.items() if nid not in result.ops]
        if unscheduled:
            raise ScheduleError(f"could not schedule nodes {unscheduled}")
        result.validate()
        return result

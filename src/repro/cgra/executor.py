"""Cycle-accurate execution of scheduled contexts: the interpreter.

Runs the context images tick by tick against a
:class:`~repro.cgra.sensor.SensorBus`.  This interpreter is the
bit-exactness oracle of the CGRA: the compiled engine
(:class:`~repro.cgra.engine.BatchedCgraExecutor`) must reproduce its
registers, actuator writes and fault text in every lane.  Numeric
behaviour matches the
overlay's single-precision floating-point operators by default
(``numpy.float32`` arithmetic per operation); ``precision="double"``
switches to float64 for precision-ablation studies (benchmark E6b).

Loop-carried registers are initialised from the PHI nodes' init
values/parameters; at the end of every iteration each PHI register
latches its back-edge value — exactly the register update the hardware
performs between contexts.

The executor also records the tick at which every actuator write issues.
Because the schedule is static, that tick is the *same every iteration*:
this determinism is the CGRA's core real-time property, and the jitter
study (E7) reads it from :attr:`CgraExecutor.actuator_write_ticks`.

Telemetry: an iteration writes nothing to the registry.  Every ``cgra_*``
count follows from the iteration count (each iteration executes the whole
program and switches context once per tick), so :meth:`CgraExecutor.publish`
derives them once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cgra.context import build_context_images
from repro.cgra.dfg import DataflowGraph
from repro.cgra.ops import Op
from repro.cgra.scheduler import Schedule
from repro.cgra.sensor import SensorBus
from repro.errors import ExecutionError, VerificationError
from repro.obs import get_registry

__all__ = ["CgraExecutor"]

_OPS_EXECUTED = get_registry().counter(
    "cgra_ops_executed_total", "operations executed by the CGRA executors"
)
_CONTEXT_SWITCHES = get_registry().counter(
    "cgra_context_switches_total", "context switches (ticks) executed"
)
_TICKS_PER_ITER = get_registry().gauge(
    "cgra_ticks_per_iteration", "schedule length of the running model"
)
_ITERATIONS = get_registry().counter(
    "cgra_iterations_total", "model iterations executed"
)
_ENGINE_ITERATIONS = get_registry().counter(
    "cgra_engine_iterations_total", "iterations executed, by engine"
)


@dataclass
class _Entry:
    tick: int
    op: Op
    node_id: int
    operands: tuple[int, ...]
    io_id: int | None


class CgraExecutor:
    """Executes one compiled loop body iteration by iteration.

    Parameters
    ----------
    schedule:
        The scheduled loop body.
    bus:
        SensorAccess bus with all sensors/actuators registered.
    params:
        Values for the graph's live-in parameters.
    precision:
        ``"single"`` (default; float32 per-operation rounding, like the
        FPGA FP cores) or ``"double"``.
    verify:
        When true, run the static schedule verifier
        (:func:`repro.cgra.verify.verify_schedule`) before accepting the
        load and raise :class:`~repro.errors.VerificationError` listing
        every diagnostic if it finds errors.
    """

    def __init__(
        self,
        schedule: Schedule,
        bus: SensorBus,
        params: dict[str, float] | None = None,
        precision: str = "single",
        verify: bool = False,
    ) -> None:
        if precision not in ("single", "double"):
            raise ExecutionError(f"precision must be 'single' or 'double', got {precision!r}")
        if verify:
            # Imported lazily: repro.cgra.verify imports the scheduler.
            from repro.cgra.verify import Severity, verify_schedule

            report = verify_schedule(schedule)
            if not report.ok:
                raise VerificationError(
                    "schedule failed static verification:\n"
                    + report.format(min_severity=Severity.WARNING)
                )
        self.schedule = schedule
        self.graph: DataflowGraph = schedule.graph
        self.bus = bus
        self.precision = precision
        self._ftype = np.float32 if precision == "single" else np.float64
        params = dict(params or {})
        missing = [p for p in self.graph.params if p not in params]
        if missing:
            raise ExecutionError(f"missing parameter values: {missing}")
        extra = [p for p in params if p not in self.graph.params]
        if extra:
            raise ExecutionError(f"unknown parameters: {extra}")

        # Host-interface name indexes, precomputed once at load so
        # set_param/set_register/register_of need no graph scans.
        self._param_nodes: dict[str, list[int]] = {}
        self._phi_named: dict[str, int] = {}
        self._named_order: dict[str, list[int]] = {}
        for node in self.graph.nodes.values():
            if node.op is Op.PARAM:
                self._param_nodes.setdefault(node.name, []).append(node.node_id)
            if node.op is Op.PHI and node.name:
                self._phi_named.setdefault(node.name, node.node_id)
            if node.name:
                self._named_order.setdefault(node.name, []).append(node.node_id)

        self._params = {k: self._round(v) for k, v in params.items()}
        #: Register file: node id → current value.
        self.registers: dict[int, float] = {}
        for node in self.graph.nodes.values():
            if node.op is Op.CONST:
                self.registers[node.node_id] = self._round(node.value)
            elif node.op is Op.PARAM:
                self.registers[node.node_id] = self._params[node.name]
            elif node.op is Op.PHI:
                if node.init_param is not None:
                    self.registers[node.node_id] = self._params[node.init_param]
                else:
                    self.registers[node.node_id] = self._round(node.init_value)

        # Merge all context images into one tick-ordered program.  The
        # per-PE structure matters for scheduling/validation; execution
        # order only needs global tick order (ties are independent ops).
        images = build_context_images(schedule)
        entries: list[_Entry] = []
        for image in images.values():
            for e in image.sorted_entries():
                entries.append(
                    _Entry(
                        tick=e.tick,
                        op=Op(e.op),
                        node_id=e.node_id,
                        operands=e.operands,
                        io_id=e.io_id,
                    )
                )
        entries.sort(key=lambda e: (e.tick, e.node_id))
        self._program = entries
        #: Iteration count executed so far.
        self.iterations = 0
        # Iterations already handed to the registry (see publish()).
        self._published = 0
        #: Ticks (within the iteration) at which each actuator write
        #: issued during the most recent iteration: io_id → tick.
        self.actuator_write_ticks: dict[int, int] = {}

    # -- numeric core ---------------------------------------------------

    def _round(self, value: float) -> float:
        return float(self._ftype(value))

    def _apply(self, op: Op, args: list[float], entry: _Entry) -> float:
        f = self._ftype
        try:
            if op is Op.FADD:
                return float(f(f(args[0]) + f(args[1])))
            if op is Op.FSUB:
                return float(f(f(args[0]) - f(args[1])))
            if op is Op.FMUL:
                return float(f(f(args[0]) * f(args[1])))
            if op is Op.FDIV:
                if args[1] == 0.0:
                    raise ExecutionError(f"division by zero in node {entry.node_id}")
                return float(f(f(args[0]) / f(args[1])))
            if op is Op.FSQRT:
                if args[0] < 0.0:
                    raise ExecutionError(f"sqrt of negative value in node {entry.node_id}")
                return float(f(np.sqrt(f(args[0]))))
            if op is Op.FNEG:
                return float(f(-f(args[0])))
            if op is Op.FMIN:
                return float(f(min(args[0], args[1])))
            if op is Op.FMAX:
                return float(f(max(args[0], args[1])))
            if op is Op.CMP_LT:
                return 1.0 if args[0] < args[1] else 0.0
            if op is Op.CMP_LE:
                return 1.0 if args[0] <= args[1] else 0.0
            if op is Op.SELECT:
                return args[1] if args[0] != 0.0 else args[2]
        except (OverflowError, FloatingPointError) as exc:  # pragma: no cover
            raise ExecutionError(f"numeric fault in node {entry.node_id}: {exc}") from exc
        raise ExecutionError(f"op {op} cannot be applied arithmetically")

    # -- execution --------------------------------------------------------

    @property
    def schedule_length(self) -> int:
        """Ticks per iteration (the real-time budget consumer)."""
        return self.schedule.length

    def set_param(self, name: str, value: float) -> None:
        """Update a live-in parameter *between* iterations (host access)."""
        if name not in self.graph.params:
            raise ExecutionError(f"unknown parameter {name!r}")
        self._params[name] = self._round(value)
        for nid in self._param_nodes.get(name, ()):
            self.registers[nid] = self._params[name]

    def run_iteration(self) -> None:
        """Execute one loop iteration (one particle revolution)."""
        regs = self.registers
        write_ticks: dict[int, int] = {}
        for entry in self._program:
            if entry.op is Op.SENSOR_READ:
                regs[entry.node_id] = self._round(self.bus.read(entry.io_id))
                continue
            if entry.op is Op.SENSOR_READ_ADDR:
                addr = regs[entry.operands[0]]
                regs[entry.node_id] = self._round(self.bus.read_addr(entry.io_id, addr))
                continue
            if entry.op is Op.ACTUATOR_WRITE:
                self.bus.write(entry.io_id, regs[entry.operands[0]])
                write_ticks[entry.io_id] = entry.tick
                regs[entry.node_id] = 0.0
                continue
            try:
                args = [regs[o] for o in entry.operands]
            except KeyError as exc:
                raise ExecutionError(
                    f"node {entry.node_id} reads unwritten register {exc}"
                ) from None
            with np.errstate(over="ignore", invalid="ignore"):
                value = self._apply(entry.op, args, entry)
            if not math.isfinite(value):
                raise ExecutionError(
                    f"non-finite value {value} produced by node {entry.node_id} "
                    f"({entry.op}) in iteration {self.iterations}"
                )
            regs[entry.node_id] = value
        # Latch loop-carried registers for the next iteration.
        for phi in self.graph.phis():
            regs[phi.node_id] = regs[phi.back_edge]
        self.actuator_write_ticks = write_ticks
        self.iterations += 1

    def run(self, n_iterations: int) -> None:
        """Execute ``n_iterations`` revolutions, then :meth:`publish`."""
        if n_iterations < 0:
            raise ExecutionError("n_iterations must be non-negative")
        for _ in range(n_iterations):
            self.run_iteration()
        self.publish()

    def publish(self) -> None:
        """Add the iterations run since the last call to the ``cgra_*``
        instruments (no-ops while observability is disabled); publishing
        again adds nothing.

        :meth:`run` calls this; a closed loop that steps
        :meth:`run_iteration` once per revolution calls it at the end of
        its run."""
        n = self.iterations - self._published
        self._published = self.iterations
        if n:
            length = self.schedule.length
            _OPS_EXECUTED.inc(n * len(self._program), executor="sequential")
            _CONTEXT_SWITCHES.inc(n * length, executor="sequential")
            _TICKS_PER_ITER.set(length, executor="sequential")
            _ITERATIONS.inc(n, executor="sequential")
            _ENGINE_ITERATIONS.inc(n, engine="interpreted")

    def set_register(self, name: str, value: float) -> None:
        """Set a loop-carried register by name *between* iterations.

        The host uses this to program initial conditions that are not
        compile-time constants (e.g. per-bunch injection offsets).
        """
        nid = self._phi_named.get(name)
        if nid is None:
            raise ExecutionError(f"no loop-carried register named {name!r}")
        self.registers[nid] = self._round(value)

    def register_of(self, name: str) -> float:
        """Read the current value of a named node (debug/monitoring).

        Looks up PHI registers first (the persistent state), then any
        named node's most recent value.
        """
        nid = self._phi_named.get(name)
        if nid is None:
            # First named node (graph insertion order) holding a value.
            for candidate in self._named_order.get(name, ()):
                if candidate in self.registers:
                    nid = candidate
                    break
        if nid is None:
            raise ExecutionError(f"no node named {name!r} with a value")
        return self.registers[nid]

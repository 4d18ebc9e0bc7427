"""Cycle-accurate execution of modulo schedules (overlapped iterations).

This is the interpreter for modulo schedules: like
:class:`~repro.cgra.executor.CgraExecutor` it is an oracle, not a fast
path.

:class:`~repro.cgra.executor.CgraExecutor` runs one iteration at a time;
a modulo schedule initiates a new iteration every II ticks *before* the
previous one finishes, so its execution interleaves operations of
several iterations on the global timeline.  :class:`PipelinedExecutor`
simulates exactly that: operation *o* of iteration *k* fires at global
tick ``k·II + start(o)``, operations are processed in global tick order,
and values live in per-iteration registers (the rotating-register-file
view of software pipelining).

Two properties follow, and the tests pin both:

* **value equivalence** — per iteration, every produced value equals the
  sequential executor's (the dependence constraints of
  :meth:`~repro.cgra.modulo.ModuloSchedule.validate` are exactly what
  makes this true);
* **IO interleaving** — SensorAccess operations of *different* ids from
  neighbouring iterations may interleave in time (real pipelined
  hardware behaviour), but the per-id order follows iteration order, so
  independent per-id bus handlers observe the sequential history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cgra.modulo import ModuloSchedule
from repro.cgra.ops import Op
from repro.cgra.sensor import SensorBus
from repro.errors import ExecutionError, VerificationError
from repro.obs import get_registry
from repro.obs._state import STATE as _OBS

__all__ = ["PipelinedExecutor"]

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


@dataclass(frozen=True)
class _Event:
    tick: int
    iteration: int
    node_id: int


class PipelinedExecutor:
    """Executes a :class:`~repro.cgra.modulo.ModuloSchedule`.

    Parameters mirror :class:`~repro.cgra.executor.CgraExecutor`.
    """

    def __init__(
        self,
        schedule: ModuloSchedule,
        bus: SensorBus,
        params: dict[str, float] | None = None,
        precision: str = "single",
        verify: bool = False,
    ) -> None:
        if precision not in ("single", "double"):
            raise ExecutionError(f"precision must be 'single' or 'double', got {precision!r}")
        if verify:
            # Imported lazily: repro.cgra.verify imports the scheduler.
            from repro.cgra.verify import Severity, verify_modulo_schedule

            report = verify_modulo_schedule(schedule)
            if not report.ok:
                raise VerificationError(
                    "modulo schedule failed static verification:\n"
                    + report.format(min_severity=Severity.WARNING)
                )
        schedule.validate()
        self.schedule = schedule
        self.graph = schedule.graph
        self.bus = bus
        self._ftype = np.float32 if precision == "single" else np.float64
        params = dict(params or {})
        missing = [p for p in self.graph.params if p not in params]
        if missing:
            raise ExecutionError(f"missing parameter values: {missing}")
        self._params = {k: self._round(v) for k, v in params.items()}
        #: Static (iteration-independent) values: constants and params.
        self._static: dict[int, float] = {}
        for node in self.graph.nodes.values():
            if node.op is Op.CONST:
                self._static[node.node_id] = self._round(node.value)
            elif node.op is Op.PARAM:
                self._static[node.node_id] = self._params[node.name]
        #: Per-(node, iteration) values of scheduled operations.
        self._values: dict[tuple[int, int], float] = {}
        self.iterations = 0
        #: First scheduled node per name, in graph insertion order —
        #: precomputed so :meth:`value_of` is O(1) instead of an O(N)
        #: scan of ``graph.nodes`` per call.
        self._named_scheduled: dict[str, int] = {}
        for node in self.graph.nodes.values():
            if node.name and not node.is_zero_time():
                self._named_scheduled.setdefault(node.name, node.node_id)

    def _round(self, value: float) -> float:
        return float(self._ftype(value))

    def _phi_value(self, phi, iteration: int) -> float:
        if iteration == 0:
            if phi.init_param is not None:
                return self._params[phi.init_param]
            return self._round(phi.init_value)
        return self._operand_value(phi.back_edge, iteration - 1)

    def _operand_value(self, node_id: int, iteration: int) -> float:
        node = self.graph.node(node_id)
        if node.op in (Op.CONST, Op.PARAM):
            return self._static[node_id]
        if node.op is Op.PHI:
            return self._phi_value(node, iteration)
        try:
            return self._values[(node_id, iteration)]
        except KeyError:
            raise ExecutionError(
                f"value of node {node_id} iteration {iteration} not yet "
                "computed — dependence constraints violated"
            ) from None

    def _apply(self, op: Op, args: list[float], node_id: int) -> float:
        f = self._ftype
        with np.errstate(over="ignore", invalid="ignore"):
            if op is Op.FADD:
                value = float(f(f(args[0]) + f(args[1])))
            elif op is Op.FSUB:
                value = float(f(f(args[0]) - f(args[1])))
            elif op is Op.FMUL:
                value = float(f(f(args[0]) * f(args[1])))
            elif op is Op.FDIV:
                if args[1] == 0.0:
                    raise ExecutionError(f"division by zero in node {node_id}")
                value = float(f(f(args[0]) / f(args[1])))
            elif op is Op.FSQRT:
                if args[0] < 0.0:
                    raise ExecutionError(f"sqrt of negative in node {node_id}")
                value = float(f(np.sqrt(f(args[0]))))
            elif op is Op.FNEG:
                value = float(f(-f(args[0])))
            elif op is Op.FMIN:
                value = float(f(min(args[0], args[1])))
            elif op is Op.FMAX:
                value = float(f(max(args[0], args[1])))
            elif op is Op.CMP_LT:
                value = 1.0 if args[0] < args[1] else 0.0
            elif op is Op.CMP_LE:
                value = 1.0 if args[0] <= args[1] else 0.0
            elif op is Op.SELECT:
                value = args[1] if args[0] != 0.0 else args[2]
            else:  # pragma: no cover - exhaustive
                raise ExecutionError(f"unhandled op {op}")
        if not math.isfinite(value):
            raise ExecutionError(f"non-finite value in node {node_id}")
        return value

    def run(self, n_iterations: int) -> None:
        """Execute ``n_iterations`` overlapped iterations to completion.

        Events are processed in global tick order (ties broken by node
        id, matching the per-PE determinism of the hardware), so the IO
        stream seen by the bus is the genuine pipelined interleaving.
        """
        if n_iterations < 0:
            raise ExecutionError("n_iterations must be non-negative")
        if n_iterations == 0:
            return
        ii = self.schedule.ii
        base = self.iterations
        events: list[_Event] = []
        for k in range(base, base + n_iterations):
            for nid, (_pe, start) in self.schedule.ops.items():
                events.append(_Event(tick=k * ii + start, iteration=k, node_id=nid))
        events.sort(key=lambda e: (e.tick, e.node_id))

        stage_span = max(1, self.schedule.stage_count) + 1
        for event in events:
            node = self.graph.node(event.node_id)
            if node.op is Op.SENSOR_READ:
                value = self._round(self.bus.read(node.sensor_id))
            elif node.op is Op.SENSOR_READ_ADDR:
                addr = self._operand_value(node.operands[0], event.iteration)
                value = self._round(self.bus.read_addr(node.sensor_id, addr))
            elif node.op is Op.ACTUATOR_WRITE:
                self.bus.write(
                    node.sensor_id,
                    self._operand_value(node.operands[0], event.iteration),
                )
                value = 0.0
            else:
                args = [
                    self._operand_value(o, event.iteration) for o in node.operands
                ]
                value = self._apply(node.op, args, event.node_id)
            self._values[(event.node_id, event.iteration)] = value
            # Prune values older than the deepest overlap window.
            stale = event.iteration - stage_span
            if stale >= 0:
                for nid in self.schedule.ops:
                    self._values.pop((nid, stale), None)
        self.iterations = base + n_iterations
        if _OBS.enabled:
            # One bulk update per run() call: in steady state a new
            # iteration initiates every II ticks.
            _OPS_EXECUTED.inc(len(events), executor="pipelined")
            _CONTEXT_SWITCHES.inc(n_iterations * ii, executor="pipelined")
            _TICKS_PER_ITER.set(ii, executor="pipelined")
            _ITERATIONS.inc(n_iterations, executor="pipelined")
            _ENGINE_ITERATIONS.inc(n_iterations, engine="interpreted")

    def value_of(self, name: str, iteration: int | None = None) -> float:
        """Value a named node produced in ``iteration`` (default: the
        last fully retained one)."""
        nid = self._named_scheduled.get(name)
        if nid is None:
            raise ExecutionError(f"no scheduled node named {name!r}")
        it = iteration if iteration is not None else self.iterations - 1
        return self._operand_value(nid, it)

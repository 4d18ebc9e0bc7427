"""The compiled engine: verified schedules lowered to NumPy lockstep code.

The CGRA has two executions of one static schedule.  The cycle-accurate
interpreter (:class:`~repro.cgra.executor.CgraExecutor`, and
:class:`~repro.cgra.pipelined_executor.PipelinedExecutor` for modulo
schedules) is the bit-exactness oracle.  This module is the compiled
engine, :class:`BatchedCgraExecutor`, which advances B ≥ 1 independent
scenarios per call and must match the interpreter's registers, actuator
writes and fault text in every lane.

The interpreter pays enum dispatch, dict register lookups and per-op
``float(f32(...))`` boxing for every operation.  This module lowers a
verified :class:`~repro.cgra.scheduler.Schedule` into a flat,
pre-resolved program once per kernel:

* operands are resolved to **dense register-array indices** at load time
  (node ids are dense, so the register file is a plain Python list);
* op dispatch disappears — the tick-ordered program is emitted as Python
  source and ``compile()``-ed once, with every operand reference inlined
  as a local variable;
* sensor/actuator bindings are hoisted to function arguments;
* per-op float32 rounding is preserved: each register holds a
  ``numpy.float32`` ``[B]`` array where lanes differ, or a NumPy scalar
  where they agree, and binary64 operations on binary32 inputs round
  identically to the interpreter's ``float(f32(f32(a) op f32(b)))``
  (double rounding is exact for +,−,×,÷,√ because 53 ≥ 2·24 + 2).

Two step variants are generated: ``step_batched_fast`` stores only the
PHI (loop-carried) registers back to the register file,
``step_batched`` additionally stores every computed node.  Running ``n``
iterations as ``(n−1)·fast + 1·traced`` leaves the register file in
exactly the state the interpreter produces — non-PHI registers only ever
hold the most recent iteration's values.

IO goes through a :class:`~repro.cgra.sensor.BatchSensorBus`, whose
handlers may answer with a scalar or a ``[B]`` array; a lane-uniform
operand keeps everything computed from it at scalar cost.  The step
carries **no** division or square-root guards — a per-op array reduction
costs more than the op itself.  Numeric faults are detected by running
the step under ``numpy.errstate(over="raise", invalid="raise",
divide="raise")``: the interpreter's per-op ``isfinite`` check can only
fail when an operation signals overflow or invalid, sqrt raises
``invalid`` exactly when some lane is negative, and a zero divisor
raises ``divide``/``invalid`` for every finite numerator, which is all
the loop can reach (every op that makes a non-finite value raises first,
and :class:`BatchedCgraExecutor` rejects non-finite host values).
:meth:`CompiledProgram.fault_error` maps such a fault back to the
interpreter's exact guard text.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.cgra.context import build_context_images
from repro.cgra.dfg import DataflowGraph
from repro.cgra.ops import Op
from repro.cgra.scheduler import Schedule
from repro.errors import ExecutionError
from repro.obs import get_registry
from repro.obs._state import STATE as _OBS

__all__ = [
    "CompiledProgram",
    "compile_program",
    "BatchedCgraExecutor",
    "clear_program_cache",
]

_PROGRAMS_COMPILED = get_registry().counter(
    "cgra_engine_programs_compiled_total", "kernels lowered by the compiled engine"
)
_ENGINE_ITERATIONS = get_registry().counter(
    "cgra_engine_iterations_total", "iterations executed, by engine"
)
_ITERS_PER_SECOND = get_registry().gauge(
    "cgra_iterations_per_second", "most recent bulk-run iteration throughput"
)

def _merged_entries(schedule: Schedule) -> list:
    """All context-image entries merged into one tick-ordered program.

    Same ordering as the interpreter: global tick order, ties broken by
    node id (tied ops are independent on legal schedules).  Each entry
    is ``(tick, Op, node_id, operands, io_id)``.
    """
    entries = []
    for image in build_context_images(schedule).values():
        for e in image.sorted_entries():
            entries.append((e.tick, Op(e.op), e.node_id, tuple(e.operands), e.io_id))
    entries.sort(key=lambda e: (e[0], e[2]))
    return entries


class _CodeEmitter:
    """Generates the Python source of one step function."""

    def __init__(self, graph: DataflowGraph, entries: list) -> None:
        self.graph = graph
        self.entries = entries
        self._loads: dict[int, str] = {}
        self._computed: set[int] = set()
        # Body index → (op, node id, guarded operand) of unguarded ops.
        self._sites: dict[int, tuple[Op, int, str]] = {}
        #: Source line → (op, node id, guarded operand local) of every
        #: unguarded FDIV/FSQRT in the last emitted step.
        self.fault_sites: dict[int, tuple[Op, int, str]] = {}

    def _operand(self, node_id: int) -> str:
        if node_id in self._computed:
            return f"v{node_id}"
        node = self.graph.node(node_id)
        if not node.is_zero_time():
            raise ExecutionError(
                f"node {node_id} is consumed before it is computed — "
                "schedule is illegal for the compiled engine"
            )
        self._loads.setdefault(node_id, f"z{node_id} = R[{node_id}]")
        return f"z{node_id}"

    def _emit_entry(self, body: list, tick: int, op: Op, nid: int,
                    operands: tuple, io_id: int | None) -> None:
        if op is Op.SENSOR_READ:
            body.append(f"v{nid} = _ft(read({io_id}))")
        elif op is Op.SENSOR_READ_ADDR:
            body.append(f"v{nid} = _ft(read_addr({io_id}, {self._operand(operands[0])}))")
        elif op is Op.ACTUATOR_WRITE:
            body.append(f"write({io_id}, {self._operand(operands[0])})")
        elif op is Op.FDIV:
            a, b = (self._operand(o) for o in operands)
            # Unguarded: errstate raises, fault_error names the node.
            self._sites[len(body)] = (op, nid, b)
            body.append(f"v{nid} = {a} / {b}")
        elif op is Op.FSQRT:
            a = self._operand(operands[0])
            self._sites[len(body)] = (op, nid, a)
            body.append(f"v{nid} = _sqrt({a})")
        elif op in (Op.FADD, Op.FSUB, Op.FMUL):
            sym = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}[op]
            a, b = (self._operand(o) for o in operands)
            body.append(f"v{nid} = {a} {sym} {b}")
        elif op is Op.FNEG:
            body.append(f"v{nid} = -{self._operand(operands[0])}")
        elif op is Op.FMIN:
            a, b = (self._operand(o) for o in operands)
            body.append(f"v{nid} = _minimum({a}, {b})")
        elif op is Op.FMAX:
            a, b = (self._operand(o) for o in operands)
            body.append(f"v{nid} = _maximum({a}, {b})")
        elif op in (Op.CMP_LT, Op.CMP_LE):
            sym = "<" if op is Op.CMP_LT else "<="
            a, b = (self._operand(o) for o in operands)
            body.append(f"v{nid} = _where({a} {sym} {b}, _ONE, _ZERO)")
        elif op is Op.SELECT:
            c, a, b = (self._operand(o) for o in operands)
            body.append(f"v{nid} = _where({c} != 0.0, {a}, {b})")
        else:
            raise ExecutionError(f"op {op} cannot be compiled")
        self._computed.add(nid)

    def emit(self, traced: bool) -> str:
        self._loads.clear()
        self._computed.clear()
        self._sites.clear()
        body: list[str] = []
        for tick, op, nid, operands, io_id in self.entries:
            self._emit_entry(body, tick, op, nid, operands, io_id)
        stores: list[str] = []
        if traced:
            for _tick, op, nid, _operands, _io in self.entries:
                if op is Op.ACTUATOR_WRITE:
                    stores.append(f"R[{nid}] = _ZERO")
                else:
                    stores.append(f"R[{nid}] = v{nid}")
        # PHI latch: sequential, in graph order, reading *live* register
        # slots — a PHI whose back edge is another PHI must observe the
        # value that PHI holds at this point in the latch sequence,
        # exactly as the interpreter does.
        latches: list[str] = []
        for phi in self.graph.phis():
            src = phi.back_edge
            value = f"v{src}" if src in self._computed else f"R[{src}]"
            latches.append(f"R[{phi.node_id}] = {value}")
        lines = ["def step(R, read, read_addr, write):"]
        for load in self._loads.values():
            lines.append(f"    {load}")
        # Body line i is source line len(lines) + 1 + i.
        self.fault_sites = {
            len(lines) + 1 + i: site for i, site in self._sites.items()
        }
        for section in (body, stores, latches):
            for line in section:
                lines.append(f"    {line}")
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(lines) + "\n"


class CompiledProgram:
    """One schedule lowered to the two compiled step functions.

    The program is stateless: the register file is a list of ``[B]``
    arrays and lane-uniform scalars, owned by the executor and passed
    into every step call.  Slot index == node id (node ids are dense).
    """

    def __init__(self, schedule: Schedule, precision: str = "single") -> None:
        if precision not in ("single", "double"):
            raise ExecutionError(f"precision must be 'single' or 'double', got {precision!r}")
        self.schedule = schedule
        self.graph: DataflowGraph = schedule.graph
        self.precision = precision
        self.ftype = np.float32 if precision == "single" else np.float64
        self.entries = _merged_entries(schedule)
        self.n_slots = max(self.graph.nodes, default=-1) + 1
        #: Static per-iteration tick of each actuator write (io_id → tick).
        self.actuator_write_ticks: dict[int, int] = {
            io_id: tick for tick, op, _nid, _ops, io_id in self.entries
            if op is Op.ACTUATOR_WRITE
        }
        emitter = _CodeEmitter(self.graph, self.entries)
        #: The step that stores every computed node (the last step of a run).
        self.source_batched = emitter.emit(traced=True)
        self.step_batched = self._compile(self.source_batched, "batched")
        #: The step that stores only the PHI latches.  Loads only ever
        #: come from CONST/PARAM/PHI slots, so running ``(n−1)·fast +
        #: 1·traced`` leaves the register file identical to tracing
        #: every step.
        self.source_batched_fast = emitter.emit(traced=False)
        self.step_batched_fast = self._compile(self.source_batched_fast, "batched-fast")
        #: Source line → (op, node id, guarded operand local) of the
        #: steps' unguarded FDIV/FSQRT ops (both variants share their
        #: body lines; the fast one only drops trailing stores).
        self.batched_fault_sites: dict[int, tuple[Op, int, str]] = emitter.fault_sites
        self._step_codes = {self.step_batched.__code__, self.step_batched_fast.__code__}
        if _OBS.enabled:
            _PROGRAMS_COMPILED.inc(precision=precision)

    def _compile(self, source: str, variant: str):
        ns = {
            "_ft": self.ftype,
            "_sqrt": np.sqrt,
            "_ZERO": self.ftype(0.0),
            "_ONE": self.ftype(1.0),
            "_where": np.where,
            "_minimum": np.minimum,
            "_maximum": np.maximum,
        }
        code = compile(source, f"<cgra-engine:{self.graph.name}:{variant}>", "exec")
        exec(code, ns)
        return ns["step"]

    def fault_error(
        self, exc: FloatingPointError, iteration: int, kernel: str
    ) -> ExecutionError:
        """The :class:`ExecutionError` for a ``FloatingPointError`` that a
        step raised under ``errstate(raise)`` in ``iteration``.

        When the innermost frame is a step stopped on one of its
        unguarded FDIV/FSQRT lines, and that op's divisor has a zero lane
        (or its radicand a negative lane) in the frame's locals, this is
        the interpreter's exact guard text.  Every other fault — overflow,
        or a fault inside a bus handler — gets the generic non-finite
        message naming the iteration and ``kernel``.
        """
        tb = exc.__traceback__
        while tb is not None and tb.tb_next is not None:
            tb = tb.tb_next
        if tb is not None and tb.tb_frame.f_code in self._step_codes:
            site = self.batched_fault_sites.get(tb.tb_lineno)
            if site is not None:
                op, nid, operand = site
                value = tb.tb_frame.f_locals[operand]
                if op is Op.FDIV and np.any(value == 0.0):
                    return ExecutionError(f"division by zero in node {nid}")
                if op is Op.FSQRT and np.any(value < 0.0):
                    return ExecutionError(f"sqrt of negative value in node {nid}")
        return ExecutionError(
            f"non-finite value produced in iteration {iteration} "
            f"of the {kernel} kernel: {exc}"
        )


#: id(schedule) → (weakref, {precision: CompiledProgram}).  Keyed by
#: identity so repeated executors over a (cached) CompiledModel skip
#: codegen entirely; the weakref guards against id reuse and cleans up
#: when the schedule is collected.
#:
#: **Multiprocess safety**: per-process only, like the model cache in
#: :mod:`repro.cgra.models` — and doubly so, because the key is an
#: ``id()``: an object's identity is meaningless in another process, so
#: a pickled schedule would never hit this cache anyway.  Worker pools
#: prime it per worker (via the initializer's model compile + first
#: run); never send CompiledProgram/Schedule handles between processes.
_PROGRAM_CACHE: dict[int, tuple] = {}


def compile_program(schedule: Schedule, precision: str = "single") -> CompiledProgram:
    """Lower ``schedule`` for ``precision``, memoised per schedule object."""
    key = id(schedule)
    cached = _PROGRAM_CACHE.get(key)
    if cached is None or cached[0]() is not schedule:
        # Capture the dict by value: at interpreter shutdown module
        # globals are already None when late finalizers fire.
        ref = weakref.ref(
            schedule, lambda _r, k=key, cache=_PROGRAM_CACHE: cache.pop(k, None)
        )
        cached = (ref, {})
        _PROGRAM_CACHE[key] = cached
    programs = cached[1]
    program = programs.get(precision)
    if program is None:
        program = CompiledProgram(schedule, precision)
        programs[precision] = program
    return program


def clear_program_cache() -> None:
    """Drop all memoised compiled programs."""
    _PROGRAM_CACHE.clear()


class BatchedCgraExecutor:
    """The compiled engine: B ≥ 1 independent scenarios in lockstep.

    The register file holds one ``[B]`` float array per node, or a NumPy
    scalar for a value that is lane-uniform; every arithmetic op is a
    NumPy operation, bit-identical per lane to the interpreter
    (:class:`~repro.cgra.executor.CgraExecutor`), and runs at scalar cost
    until a per-lane operand joins it.  IO goes through a
    :class:`~repro.cgra.sensor.BatchSensorBus`, whose handlers are
    NumPy-polymorphic: a lane-uniform read may answer with a scalar,
    which keeps everything computed from it scalar.

    Parameters are scalars (lane-uniform) or length-B arrays; the same
    holds for :meth:`set_register`/:meth:`set_param`.  They must be finite
    at the kernel precision.  A numeric fault in *any* lane faults the
    whole batch (lockstep semantics), with the interpreter's error text
    for division by zero and sqrt of a negative
    (:meth:`CompiledProgram.fault_error`).
    """

    def __init__(
        self,
        schedule: Schedule,
        bus,
        params: dict | None = None,
        precision: str = "single",
    ) -> None:
        self.schedule = schedule
        self.graph = schedule.graph
        self.bus = bus
        self.batch = int(bus.batch)
        self.precision = precision
        self._program = compile_program(schedule, precision)
        self._ftype = self._program.ftype
        params = dict(params or {})
        missing = [p for p in self.graph.params if p not in params]
        if missing:
            raise ExecutionError(f"missing parameter values: {missing}")
        extra = [p for p in params if p not in self.graph.params]
        if extra:
            raise ExecutionError(f"unknown parameters: {extra}")
        self._params = {k: self._lanes(v, f"parameter {k!r}") for k, v in params.items()}
        self._slots: list = [None] * self._program.n_slots
        for node in self.graph.nodes.values():
            if node.op is Op.CONST:
                self._slots[node.node_id] = self._ftype(node.value)
            elif node.op is Op.PARAM:
                self._slots[node.node_id] = self._params[node.name]
            elif node.op is Op.PHI:
                if node.init_param is not None:
                    self._slots[node.node_id] = self._params[node.init_param]
                else:
                    self._slots[node.node_id] = self._ftype(node.init_value)
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
        self.iterations = 0
        self.actuator_write_ticks: dict[int, int] = {}

    def _lanes(self, value, what: str):
        """Scalar → lane-uniform np scalar; array → [B] array, rounded.

        Non-finite values are rejected: the unguarded batched division
        relies on every register holding a finite value (a NaN or ±inf
        numerator over a zero divisor raises no FP error).
        """
        arr = np.asarray(value, dtype=float)
        if arr.ndim and arr.shape != (self.batch,):
            raise ExecutionError(
                f"per-lane value must be a scalar or shape ({self.batch},), "
                f"got shape {arr.shape}"
            )
        with np.errstate(over="ignore"):
            lanes = self._ftype(float(arr)) if arr.ndim == 0 else arr.astype(self._ftype)
        finite = np.isfinite(lanes)
        if not finite.all():
            bad = arr if arr.ndim == 0 else arr[~finite][0]
            raise ExecutionError(
                f"{what} must be finite at {self.precision} precision, "
                f"got {float(bad)!r}"
            )
        return lanes

    @property
    def schedule_length(self) -> int:
        """Ticks per iteration (same schedule for every lane)."""
        return self.schedule.length

    def set_param(self, name: str, value) -> None:
        """Update a live-in parameter between iterations (per-lane ok)."""
        if name not in self.graph.params:
            raise ExecutionError(f"unknown parameter {name!r}")
        lanes = self._lanes(value, f"parameter {name!r}")
        self._params[name] = lanes
        for nid in self._param_nodes.get(name, ()):
            self._slots[nid] = lanes

    def set_register(self, name: str, value) -> None:
        """Set a loop-carried register by name (scalar or per-lane)."""
        nid = self._phi_named.get(name)
        if nid is None:
            raise ExecutionError(f"no loop-carried register named {name!r}")
        self._slots[nid] = self._lanes(value, f"register {name!r}")

    def register_of(self, name: str) -> np.ndarray:
        """Current per-lane values of a named node, shape ``[B]`` float64."""
        nid = self._phi_named.get(name)
        if nid is None:
            for candidate in self._named_order.get(name, ()):
                if self._slots[candidate] is not None:
                    nid = candidate
                    break
        if nid is None or self._slots[nid] is None:
            raise ExecutionError(f"no node named {name!r} with a value")
        value = np.asarray(self._slots[nid], dtype=float)
        return np.broadcast_to(value, (self.batch,)).copy()

    def lane_registers(self, lane: int) -> dict[int, float]:
        """Register-file snapshot of one lane (comparable to the
        interpreter's ``registers`` dict)."""
        if not 0 <= lane < self.batch:
            raise ExecutionError(f"lane must be in [0, {self.batch}), got {lane}")
        out: dict[int, float] = {}
        for nid, value in enumerate(self._slots):
            if value is None:
                continue
            arr = np.asarray(value, dtype=float)
            out[nid] = float(arr) if arr.ndim == 0 else float(arr[lane])
        return out

    def run_iteration(self) -> None:
        """Advance every lane by one iteration."""
        self.run(1)

    def run(self, n_iterations: int) -> None:
        """Advance every lane by ``n_iterations`` in lockstep."""
        self.run_driven(n_iterations)

    def run_driven(self, n_iterations: int, pre=None, post=None) -> None:
        """Advance ``n_iterations`` with host callbacks around each step,
        under one errstate/telemetry envelope.

        The closed-loop HIL driver, and :meth:`run` (no callbacks): per
        iteration ``i`` (0-based) this runs ``pre(i)``, one batched
        step, then ``post(i)`` — exactly the call sequence of a Python
        loop over :meth:`run_iteration`, minus its per-iteration
        ``np.errstate`` enter/exit and telemetry.  All but the last step
        use the fast (PHI-only) variant, so callbacks may observe
        loop-carried registers and actuator-write effects — everything
        the closed loop reads back; after the call returns the register
        file is fully traced.  Callbacks execute under
        ``np.errstate(raise)``.
        """
        if n_iterations < 0:
            raise ExecutionError("n_iterations must be non-negative")
        if n_iterations == 0:
            return
        step_fast = self._program.step_batched_fast
        step_traced = self._program.step_batched
        R = self._slots
        read, read_addr, write = self.bus.read, self.bus.read_addr, self.bus.write
        done = 0
        obs = _OBS.enabled
        if obs:
            import time as _time

            t0 = _time.perf_counter()
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                last = n_iterations - 1
                for i in range(n_iterations):
                    if pre is not None:
                        pre(i)
                    if i < last:
                        step_fast(R, read, read_addr, write)
                    else:
                        step_traced(R, read, read_addr, write)
                    done += 1
                    if post is not None:
                        post(i)
        except FloatingPointError as exc:
            raise self._program.fault_error(exc, self.iterations + done, "batched") from exc
        finally:
            self.iterations += done
            if done:
                self.actuator_write_ticks = dict(self._program.actuator_write_ticks)
            if obs and done:
                elapsed = _time.perf_counter() - t0
                _ENGINE_ITERATIONS.inc(done * self.batch, engine="batched")
                if elapsed > 0.0:
                    _ITERS_PER_SECOND.set(done * self.batch / elapsed, engine="batched")

    def register_view(self, name: str):
        """Live value of a named loop-carried register — the current
        slot, no copy, no broadcast (may be a lane-uniform scalar).
        Read-only by contract; re-fetch after every step (slots rebind).
        """
        nid = self._phi_named.get(name)
        if nid is None:
            raise ExecutionError(f"no loop-carried register named {name!r}")
        return self._slots[nid]

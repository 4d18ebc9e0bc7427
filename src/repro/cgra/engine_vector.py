"""Vector (time-chunk) execution tier driven by vectorization certificates.

The compiled tier (:mod:`repro.cgra.engine`) still executes generated
*scalar* Python per cycle.  This module lowers a
:class:`~repro.cgra.engine.CompiledProgram` one level further, consuming
the :class:`~repro.cgra.verify.dependence.VectorizationCertificate`
partition the dependence pass proved:

* **chunkable segments** become fused NumPy expressions over
  ``[T]``-shaped time-chunk arrays (``[B, T]`` under the batched
  executor — the time axis is always last, so the same generated source
  serves both);
* **sequential segments** stay per-iteration loops, generated with the
  same per-op semantics as the compiled scalar step so every value is
  bit-identical;
* loop-carried (PHI) reads are satisfied by the certificate's distance-1
  shift trick: the observed vector is ``[incoming, src[..., :-1]]``.

The whole chunk body is one generated function, so cross-segment values
flow as plain locals.  Ordering guarantees match the interpreter under
the certificate's **pure-handler contract** (handlers are pure functions
of the iteration index / address — the same contract
:mod:`repro.cgra.verify.chunk_oracle` validates):

* address-less sensor reads of chunkable segments are gathered in one
  per-iteration prologue loop that calls every site in tick order, so a
  *stateful* handler still sees the interpreter's exact call stream;
* actuator writes are buffered and committed in global
  ``(iteration, tick, node)`` order after the chunk succeeds, so write
  handlers (stateful or not) see the interpreter's exact stream;
* address reads are gathered site-by-site (per-port per-site streams are
  preserved; cross-site interleaving within one port is only observable
  to impure address handlers, which the contract excludes).

**Fault parity** is by *abort and replay*: the chunk attempt runs under
``numpy.errstate(raise)`` with **no** guards in the generated code — any
numeric fault (division by zero, sqrt of a negative, overflow) aborts
the chunk, the register file is restored from the entry snapshot, and
the per-cycle compiled step replays the chunk against the recorded read
logs (falling through to the live bus when a log is exhausted).  The
replay reproduces the compiled tier's exact fault message (through
:meth:`~repro.cgra.engine.CompiledProgram.fault_error` for the unguarded
batched step), iteration count and partial side effects — which the
engine parity suites pin to the interpreter.

Programs the lowering cannot prove safe — unresolved or distance>1
carried registers, ports that are both read and written (closed-loop
feedback through the bus), no chunkable segment at all — fall back
wholesale to the compiled tier, which is trivially still bit-exact.
The first chunked run of each program additionally replays the
PR-6 :func:`~repro.cgra.verify.chunk_oracle.run_chunk_oracle`
differential gate under synthetic pure handlers.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cgra.engine import CompiledProgram
from repro.cgra.ops import Op
from repro.errors import ExecutionError
from repro.obs import get_registry
from repro.obs._state import STATE as _OBS

__all__ = ["VectorProgram", "get_vector_program", "clear_kernel_cache"]

#: Chunks below this length run on the per-cycle compiled path (the
#: generated finalize needs T >= 2, and tiny chunks cost more in array
#: setup than they save).  ``CgraExecutor.run_iteration`` therefore
#: always takes the compiled step — the HIL per-revolution loop keeps
#: its exact closed-loop bus semantics under ``engine="vector"``.
MIN_CHUNK = 8
#: Default upper bound on scalar chunk length; a calibrated chunk hint
#: (:func:`repro.cgra.autotune.chunk_elems_hint`) may raise T up to
#: :data:`MAX_CHUNK_HARD` (memory: every live op holds one ``[T]``
#: float32 vector while the chunk body runs).
MAX_CHUNK = 2048
#: Absolute chunk-length ceiling, hint or not.
MAX_CHUNK_HARD = 8192
#: Default element budget for batched chunks: T is scaled down so B*T
#: stays bounded (a [B, T] vector per live op).
CHUNK_ELEMS = 32768

_KERNEL_CACHE_HITS = get_registry().counter(
    "cgra_vector_kernel_cache_hits_total",
    "fused vector chunk kernels served from the source-keyed code cache",
)
_KERNEL_CACHE_MISSES = get_registry().counter(
    "cgra_vector_kernel_cache_misses_total",
    "fused vector chunk kernels compiled from generated source",
)

#: Generated chunk source → compiled code object.  The source text is a
#: pure function of (certificate, entries, batched flag), so equal
#: programs — including re-lowered ones after a cache clear or in a
#: fresh worker that re-ran codegen — share one ``compile()`` per
#: kernel; precision only affects the exec namespace, never the code.
_KERNEL_CODE_CACHE: dict[str, object] = {}


def clear_kernel_cache() -> None:
    """Drop all cached fused chunk-kernel code objects."""
    _KERNEL_CODE_CACHE.clear()

_READ_OPS = (Op.SENSOR_READ, Op.SENSOR_READ_ADDR)


def _carry_vec(incoming, src):
    """Distance-1 carried read over a chunk: ``[incoming, src[:-1]]``."""
    inc = np.asarray(incoming)
    lead = np.broadcast_shapes(inc.shape, src.shape[:-1])
    out = np.empty(lead + (src.shape[-1],), src.dtype)
    out[..., 0] = inc
    out[..., 1:] = src[..., :-1]
    return out


def _carry_const(incoming, value, n):
    """Carried read whose source is loop-invariant: ``[incoming, v, v, …]``."""
    inc = np.asarray(incoming)
    val = np.asarray(value)
    lead = np.broadcast_shapes(inc.shape, val.shape)
    out = np.empty(lead + (n,), val.dtype)
    out[..., 0] = inc
    out[..., 1:] = val[..., None]
    return out


def _col(value):
    """Lift a per-lane ``[B]`` value to ``[B, 1]`` so it broadcasts
    against ``[B, T]`` chunk vectors; scalars pass through."""
    arr = np.asarray(value)
    return arr[..., None] if arr.ndim else value


class _VectorEmitter:
    """Generates the single chunk function for one certified program."""

    def __init__(self, program: CompiledProgram, carried: dict, batched: bool) -> None:
        self.graph = program.graph
        self.batched = batched
        self.carried = carried
        self.entries: dict[int, tuple] = {
            nid: (tick, op, operands, io_id)
            for tick, op, nid, operands, io_id in program.entries
        }
        self.segments = list(program.certificate.segments)
        self.seg_of: dict[int, int] = {}
        for pos, seg in enumerate(self.segments):
            for nid in seg.node_ids:
                self.seg_of[nid] = pos

        # -- classification: time-varying vs loop-invariant values ------
        self.tv: set[int] = set()
        self.static: set[int] = set()
        self.writes: set[int] = set()
        for seg in self.segments:
            for nid in seg.node_ids:
                _tick, op, operands, _io = self.entries[nid]
                if op is Op.ACTUATOR_WRITE:
                    self.writes.add(nid)
                    continue
                if op in _READ_OPS:
                    self.tv.add(nid)
                    continue
                if any(o in self.tv or self._is_phi(o) for o in operands):
                    self.tv.add(nid)
                else:
                    self.static.add(nid)

        # -- which sequential-segment values must persist as vectors ----
        self.needs_vector: set[int] = set()
        for pos, seg in enumerate(self.segments):
            for nid in seg.node_ids:
                _tick, _op, operands, _io = self.entries[nid]
                for o in operands:
                    if o in self.entries:
                        self._mark_cross(o, pos)
                    elif self._is_phi(o):
                        reg = self.carried[o]
                        if reg.source_kind == "computed":
                            src_pos = self.seg_of[reg.source]
                            if src_pos != pos:
                                self._mark_cross(reg.source, pos)

        #: PHIs whose computed source lives in a sequential segment:
        #: tracked with the in-loop s/q latch pattern (seg pos → phis).
        self.seq_latch: dict[int, list[int]] = {}
        for phi_id, reg in self.carried.items():
            if reg.source_kind != "computed":
                continue
            pos = self.seg_of[reg.source]
            if self.segments[pos].kind == "sequential":
                self.seq_latch.setdefault(pos, []).append(phi_id)

        self._p_built: set[int] = set()
        self._lines: list[str] = []

    # -- helpers --------------------------------------------------------

    def _is_phi(self, node_id: int) -> bool:
        return self.graph.node(node_id).op is Op.PHI

    def _mark_cross(self, src: int, use_pos: int) -> None:
        """A value computed in one segment is consumed in a later one."""
        src_pos = self.seg_of[src]
        if (
            src_pos != use_pos
            and src in self.tv
            and self.segments[src_pos].kind == "sequential"
        ):
            self.needs_vector.add(src)

    def _add(self, line: str, depth: int = 1) -> None:
        self._lines.append("    " * depth + line)

    def _has_vector(self, nid: int) -> bool:
        """Whether ``v{nid}`` is a full ``[.., T]`` vector local."""
        if nid not in self.tv:
            return False
        return (
            self.segments[self.seg_of[nid]].kind == "chunkable"
            or nid in self.needs_vector
        )

    def _ensure_p(self, phi_id: int, depth: int = 1) -> str:
        """Emit (once) the observed-value vector of a carried register."""
        name = f"p{phi_id}"
        if phi_id in self._p_built:
            return name
        self._p_built.add(phi_id)
        reg = self.carried[phi_id]
        if reg.source_kind in ("const", "param"):
            self._add(f"{name} = _carry_const(R[{phi_id}], R[{reg.source}], T)", depth)
        elif reg.source in self.static:
            self._add(f"{name} = _carry_const(R[{phi_id}], v{reg.source}, T)", depth)
        else:
            self._add(f"{name} = _carry_vec(R[{phi_id}], v{reg.source})", depth)
        return name

    # -- operand references ---------------------------------------------

    def _ref_chunk(self, o: int, depth: int = 1, io: bool = False) -> str:
        """Operand reference inside a chunkable segment (vector rank).

        ``io=True`` keeps loop-invariant operands at per-lane rank (bus
        handlers and write buffers take ``[B]``/scalar values, not the
        broadcast-ready ``[B, 1]`` shape arithmetic wants)."""
        wrap = (lambda r: r) if (io or not self.batched) else (lambda r: f"_col({r})")
        if o in self.entries:
            if o in self.tv:
                return f"v{o}"
            return wrap(f"v{o}")
        if self._is_phi(o):
            return self._ensure_p(o, depth)
        return wrap(f"R[{o}]")

    def _ref_seq(self, o: int, pos: int) -> str:
        """Operand reference inside a sequential segment's loop body
        (per-iteration rank)."""
        if o in self.entries:
            if self.seg_of[o] == pos or o in self.static:
                return f"v{o}"
            return f"v{o}[..., _t]"
        if self._is_phi(o):
            reg = self.carried[o]
            if (
                reg.source_kind == "computed"
                and self.seg_of[reg.source] == pos
            ):
                return f"s{o}"
            return f"{self._ensure_p(o)}[..., _t]"
        return f"R[{o}]"

    # -- per-op expressions ----------------------------------------------

    def _arith(self, op: Op, nid: int, refs: list[str], array_form: bool) -> str:
        """One arithmetic op; no fault guards — the chunk runs under
        ``errstate(raise)`` and faults are replayed per-cycle."""
        if op in (Op.FADD, Op.FSUB, Op.FMUL):
            sym = {Op.FADD: "+", Op.FSUB: "-", Op.FMUL: "*"}[op]
            return f"{refs[0]} {sym} {refs[1]}"
        if op is Op.FDIV:
            return f"{refs[0]} / {refs[1]}"
        if op is Op.FSQRT:
            return f"_sqrt({refs[0]})"
        if op is Op.FNEG:
            return f"-{refs[0]}"
        if op is Op.FMIN:
            if array_form:
                return f"_minimum({refs[0]}, {refs[1]})"
            return f"{refs[1]} if {refs[1]} < {refs[0]} else {refs[0]}"
        if op is Op.FMAX:
            if array_form:
                return f"_maximum({refs[0]}, {refs[1]})"
            return f"{refs[1]} if {refs[0]} < {refs[1]} else {refs[0]}"
        if op in (Op.CMP_LT, Op.CMP_LE):
            sym = "<" if op is Op.CMP_LT else "<="
            if array_form:
                return f"_where({refs[0]} {sym} {refs[1]}, _ONE, _ZERO)"
            return f"_ONE if {refs[0]} {sym} {refs[1]} else _ZERO"
        if op is Op.SELECT:
            if array_form:
                return f"_where({refs[0]} != 0.0, {refs[1]}, {refs[2]})"
            return f"{refs[1]} if {refs[0]} != 0.0 else {refs[2]}"
        raise ExecutionError(f"op {op} cannot be vector-lowered")

    # -- emission ---------------------------------------------------------

    def emit(self) -> str:
        self._lines = ["def chunk(T, R, read, read_addr, wl, rl, LEAD):"]
        self._p_built.clear()
        self._emit_prologue()
        for pos, seg in enumerate(self.segments):
            self._add(f"# -- segment {pos}: {seg.kind} --")
            if seg.kind == "chunkable":
                self._emit_chunk_seg(seg)
            else:
                self._emit_seq_seg(pos, seg)
        self._emit_finalize()
        if len(self._lines) == 1:
            self._add("pass")
        return "\n".join(self._lines) + "\n"

    def _plain_read_sites(self) -> list[int]:
        return sorted(
            (
                nid
                for seg in self.segments
                if seg.kind == "chunkable"
                for nid in seg.node_ids
                if self.entries[nid][1] is Op.SENSOR_READ
            ),
            key=lambda n: (self.entries[n][0], n),
        )

    def _emit_prologue(self) -> None:
        """Gather every address-less read of the chunk in one loop that
        calls all sites in tick order per iteration — the interpreter's
        exact per-iteration call stream, stateful handlers included."""
        sites = self._plain_read_sites()
        if not sites:
            return
        for nid in sites:
            self._add(f"g{nid} = _empty(LEAD + (T,))")
        self._add("for _t in range(T):")
        for nid in sites:
            io = self.entries[nid][3]
            self._add(f"g{nid}[..., _t] = read({io})", 2)
        for nid in sites:
            tick, _op, _ops, io = self.entries[nid]
            self._add(f"rl.append((0, {io}, {tick}, {nid}, g{nid}))")

    def _emit_chunk_seg(self, seg) -> None:
        for nid in seg.node_ids:
            tick, op, operands, io = self.entries[nid]
            if op is Op.SENSOR_READ:
                self._add(f"v{nid} = g{nid}")
            elif op is Op.SENSOR_READ_ADDR:
                aref = self._ref_chunk(operands[0], io=True)
                varying = operands[0] in self.tv or self._is_phi(operands[0])
                self._add(f"v{nid} = _empty(LEAD + (T,))")
                if varying:
                    self._add(f"_a{nid} = {aref}")
                    self._add("for _t in range(T):")
                    self._add(f"v{nid}[..., _t] = read_addr({io}, _a{nid}[..., _t])", 2)
                else:
                    self._add("for _t in range(T):")
                    self._add(f"v{nid}[..., _t] = read_addr({io}, {aref})", 2)
                self._add(f"rl.append((1, {io}, {tick}, {nid}, v{nid}))")
            elif op is Op.ACTUATOR_WRITE:
                src = operands[0]
                ref = self._ref_chunk(src, io=True)
                varying = src in self.tv or self._is_phi(src)
                self._add(f"wl.append(({tick}, {nid}, {io}, {ref}, {int(varying)}))")
            elif nid in self.static:
                refs = [self._ref_chunk(o, io=True) for o in operands]
                self._add(f"v{nid} = {self._arith(op, nid, refs, self.batched)}")
            else:
                refs = [self._ref_chunk(o) for o in operands]
                self._add(f"v{nid} = {self._arith(op, nid, refs, True)}")

    def _emit_seq_seg(self, pos: int, seg) -> None:
        # Loop-invariant ops hoist above the loop (plain per-lane rank).
        for nid in seg.node_ids:
            if nid in self.static:
                _tick, op, operands, _io = self.entries[nid]
                refs = [self._ref_seq(o, pos) for o in operands]
                self._add(f"v{nid} = {self._arith(op, nid, refs, self.batched)}")
        # Pre-build observed vectors for cross-segment carried reads.
        for nid in seg.node_ids:
            _tick, op, operands, _io = self.entries[nid]
            for o in operands:
                if self._is_phi(o):
                    self._ref_seq(o, pos)  # may emit the p-vector build
        loop_nodes = [n for n in seg.node_ids if n not in self.static]
        for nid in loop_nodes:
            tick, op, operands, io = self.entries[nid]
            if nid in self.needs_vector:
                self._add(f"o{nid} = _empty(LEAD + (T,))")
            if op in _READ_OPS:
                kind = 0 if op is Op.SENSOR_READ else 1
                self._add(f"_r{nid} = []")
                self._add(f"rl.append(({kind}, {io}, {tick}, {nid}, _r{nid}))")
            elif op is Op.ACTUATOR_WRITE:
                self._add(f"_w{nid} = []")
                self._add(f"wl.append(({tick}, {nid}, {io}, _w{nid}, 2))")
        for phi_id in self.seq_latch.get(pos, ()):
            self._add(f"s{phi_id} = R[{phi_id}]")
            self._add(f"q{phi_id} = R[{phi_id}]")
        self._add("for _t in range(T):")
        for nid in loop_nodes:
            _tick, op, operands, io = self.entries[nid]
            if op is Op.SENSOR_READ:
                self._add(f"v{nid} = _ft(read({io}))", 2)
                self._add(f"_r{nid}.append(v{nid})", 2)
            elif op is Op.SENSOR_READ_ADDR:
                aref = self._ref_seq(operands[0], pos)
                self._add(f"v{nid} = _ft(read_addr({io}, {aref}))", 2)
                self._add(f"_r{nid}.append(v{nid})", 2)
            elif op is Op.ACTUATOR_WRITE:
                self._add(f"_w{nid}.append({self._ref_seq(operands[0], pos)})", 2)
                continue
            else:
                refs = [self._ref_seq(o, pos) for o in operands]
                self._add(f"v{nid} = {self._arith(op, nid, refs, self.batched)}", 2)
            if nid in self.needs_vector:
                self._add(f"o{nid}[..., _t] = v{nid}", 2)
        # In-loop latch shadow: s = source value of this iteration,
        # q = source value of the previous one (finalize needs T-2).
        for phi_id in self.seq_latch.get(pos, ()):
            self._add(f"q{phi_id} = s{phi_id}", 2)
        for phi_id in self.seq_latch.get(pos, ()):
            src = self.carried[phi_id].source
            self._add(f"s{phi_id} = {self._ref_seq(src, pos)}", 2)
        for nid in loop_nodes:
            if nid in self.needs_vector:
                self._add(f"v{nid} = o{nid}")

    def _emit_finalize(self) -> None:
        """Store the last iteration's values and latch carried registers —
        the exact post-state of a traced compiled step at iteration T-1."""
        self._add("# -- finalize: registers + carried latch --")
        for seg in self.segments:
            for nid in seg.node_ids:
                if nid in self.writes:
                    self._add(f"R[{nid}] = _ZERO")
                elif nid in self.static:
                    self._add(f"R[{nid}] = v{nid}")
                elif self._has_vector(nid):
                    self._add(f"R[{nid}] = v{nid}[..., T - 1]")
                else:
                    self._add(f"R[{nid}] = v{nid}")
        # Observed value of each carried register during iteration T-1
        # (its source value of iteration T-2, by the distance-1 gate).
        for phi_id in sorted(self.carried):
            reg = self.carried[phi_id]
            if reg.source_kind in ("const", "param"):
                self._add(f"R[{phi_id}] = R[{reg.source}]")
            elif reg.source in self.static:
                self._add(f"R[{phi_id}] = v{reg.source}")
            elif self._has_vector(reg.source):
                self._add(f"R[{phi_id}] = v{reg.source}[..., T - 2]")
            else:
                self._add(f"R[{phi_id}] = q{phi_id}")
        # Latch pass: sequential, in graph order, reading live slots —
        # byte-for-byte the compiled traced step's latch block.
        for phi in self.graph.phis():
            self._add(f"R[{phi.node_id}] = R[{phi.back_edge}]")


def _vector_safe(program: CompiledProgram, carried: dict) -> tuple[bool, str]:
    """Whether the chunk lowering's assumptions hold for this program."""
    cert = program.certificate
    if not cert.chunkable_segments():
        return False, "certificate has no chunkable segment"
    for phi_id, reg in carried.items():
        if not reg.resolved:
            return False, f"carried register {phi_id} is unresolved ({reg.reason})"
        if reg.distance != 1:
            return False, (
                f"carried register {phi_id} has distance {reg.distance} "
                "(chunk shift needs distance 1)"
            )
        if reg.source_kind == "computed":
            entry = next(
                (e for e in program.entries if e[2] == reg.source), None
            )
            if entry is None or entry[1] is Op.ACTUATOR_WRITE:
                return False, f"carried register {phi_id} has no value-producing source"
    # Stateful-handler call-stream parity for address-less reads: the
    # prologue preserves the interpreter's exact per-iteration call
    # order for sites in *chunkable* segments; a site in a sequential
    # segment runs in its own per-segment loop, so a port read there
    # must have no other site (single-site streams are order-trivial).
    chunkable_ids = set(cert.certified_node_ids())
    plain_sites: dict[int, list[int]] = {}
    for _t, op, nid, _o, io in program.entries:
        if op is Op.SENSOR_READ:
            plain_sites.setdefault(io, []).append(nid)
    for io, sites in plain_sites.items():
        if len(sites) > 1 and any(n not in chunkable_ids for n in sites):
            return False, (
                f"port {io} has {len(sites)} address-less read sites with at "
                "least one in a sequential segment — per-iteration call order "
                "cannot be preserved for stateful handlers"
            )
    read_ports = {
        io for _t, op, _n, _o, io in program.entries if op in _READ_OPS
    }
    write_ports = {
        io for _t, op, _n, _o, io in program.entries if op is Op.ACTUATOR_WRITE
    }
    feedback = sorted(read_ports & write_ports)
    if feedback:
        return False, (
            f"ports {feedback} are both read and written — buffered chunk "
            "writes would break closed-loop feedback through the bus"
        )
    return True, ""


class VectorProgram:
    """One compiled program lowered to a certificate-driven chunk kernel.

    Stateless like :class:`~repro.cgra.engine.CompiledProgram`: the
    register file is owned by the executor and passed into every chunk.
    When :attr:`ok` is false (``reason`` says why) the executor runs the
    per-cycle compiled path instead — same results, no chunk speedup.
    """

    def __init__(self, program: CompiledProgram) -> None:
        from repro.cgra.verify.effects import resolve_carried

        self.program = program
        self.carried = resolve_carried(program.graph)
        self.ok, self.reason = _vector_safe(program, self.carried)
        self.source: str | None = None
        self.source_batched: str | None = None
        self._fn = None
        self._fn_batched = None
        self._oracle_done = False
        #: Per-segment profile attribution units: (label, kind, width).
        self.segment_meta: list[tuple[str, str, int]] = []
        if self.ok:
            self.segment_meta = [
                (f"s{pos}.{seg.kind}", seg.kind, len(seg.node_ids))
                for pos, seg in enumerate(program.certificate.segments)
            ]
            emitter = _VectorEmitter(program, self.carried, batched=False)
            self.source = emitter.emit()
            self._fn = self._compile(self.source, "vector")

    def _compile(self, source: str, variant: str):
        ft = self.program.ftype
        ns = {
            "_ft": ft,
            "_sqrt": np.sqrt,
            "_ZERO": ft(0.0),
            "_ONE": ft(1.0),
            "_where": np.where,
            "_minimum": np.minimum,
            "_maximum": np.maximum,
            "_empty": lambda shape, _np=np, _d=ft: _np.empty(shape, _d),
            "_carry_vec": _carry_vec,
            "_carry_const": _carry_const,
            "_col": _col,
            "_EE": ExecutionError,
        }
        code = _KERNEL_CODE_CACHE.get(source)
        if code is None:
            if _OBS.enabled:
                _KERNEL_CACHE_MISSES.inc()
            code = compile(
                source, f"<cgra-engine:{self.program.graph.name}:{variant}>", "exec"
            )
            _KERNEL_CODE_CACHE[source] = code
        elif _OBS.enabled:
            _KERNEL_CACHE_HITS.inc()
        exec(code, ns)
        return ns["chunk"]

    def _chunk_fn(self, batched: bool):
        if not batched:
            return self._fn
        if self._fn_batched is None:
            emitter = _VectorEmitter(self.program, self.carried, batched=True)
            self.source_batched = emitter.emit()
            self._fn_batched = self._compile(self.source_batched, "vector-batched")
        return self._fn_batched

    def max_chunk(self, batch: int = 1, hint: int | None = None) -> int:
        """Chunk length bound for a given lane count (memory budget).

        ``hint`` is a calibrated element budget (``B * T``) from
        :mod:`repro.cgra.autotune`; without one the static defaults
        apply.  Chunk size never affects results — only how many
        iterations each fused kernel call advances."""
        if hint is not None:
            return min(MAX_CHUNK_HARD, max(MIN_CHUNK, int(hint) // max(1, batch)))
        return min(MAX_CHUNK, max(MIN_CHUNK, CHUNK_ELEMS // max(1, batch)))

    def segment_units(self, iterations: int, chunks: int) -> list[tuple[str, int]]:
        """Deterministic per-segment attribution weights for the profiler:
        a sequential segment costs ~width ops per *iteration*, a chunkable
        one ~width vector ops per *chunk*."""
        return [
            (label, width * (chunks if kind == "chunkable" else iterations))
            for label, kind, width in self.segment_meta
        ]

    # -- compile-time differential gate ---------------------------------

    def ensure_oracle(self, params: dict[str, float]) -> None:
        """Replay the PR-6 chunk oracle once per program (first chunked
        run).  A :class:`~repro.errors.VerificationError` — a certified
        segment that does *not* replay bit-exactly — propagates: that is
        a real certificate/lowering bug.  A numeric fault under the
        synthetic handlers only disables the chunk path (``ok=False``)."""
        if self._oracle_done or not self.ok:
            return
        self._oracle_done = True
        from repro.cgra.verify.chunk_oracle import run_chunk_oracle

        readers: dict[int, object] = {}
        addr_readers: dict[int, object] = {}
        for _tick, op, _nid, _ops, io in self.program.entries:
            if op is Op.SENSOR_READ:
                readers[io] = lambda t, io=io: (
                    math.sin(0.37 * t + 0.11 * io) * 0.75 + 1.0
                )
            elif op is Op.SENSOR_READ_ADDR:
                addr_readers[io] = lambda t, addr, io=io: (
                    math.sin(0.13 * t + 0.07 * addr + io) + 1.5
                )
        try:
            run_chunk_oracle(
                self.program.schedule,
                params=params,
                readers=readers,
                addr_readers=addr_readers,
                n_iterations=32,
                precision=self.program.precision,
            )
        except ExecutionError as exc:
            self.ok = False
            self.reason = f"chunk oracle hit a numeric fault: {exc}"

    # -- execution -------------------------------------------------------

    def run_chunk(
        self,
        R: list,
        bus,
        T: int,
        base_iterations: int,
        progress: list,
        batched: bool = False,
        batch: int = 1,
    ) -> None:
        """Execute one ``T``-iteration chunk against the register file.

        ``progress[0]`` is set to the number of completed iterations
        (``T`` on success) before any exception propagates — the caller
        folds it into its iteration count."""
        if T < 2:
            raise ExecutionError("chunk length must be >= 2")
        fn = self._chunk_fn(batched)
        lead = (batch,) if batched else ()
        wl: list = []
        rl: list = []
        snapshot = list(R)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                fn(T, R, bus.read, bus.read_addr, wl, rl, lead)
        except Exception:
            # Abort: restore the entry state and replay per-cycle against
            # the recorded read logs — exact compiled-tier fault text,
            # iteration count and partial writes.
            R[:] = snapshot
            self._replay(R, bus, T, base_iterations, rl, batched, progress)
            return
        progress[0] = T
        # Commit buffered actuator writes in global (t, tick, node)
        # order — the interpreter's exact write stream.  The per-t values
        # are materialised up front (time-varying vectors become
        # contiguous per-t rows via one moveaxis copy) so the commit loop
        # is a plain sequence walk instead of per-t fancy indexing.
        if wl:
            order = sorted(wl, key=lambda w: (w[0], w[1]))
            write = bus.write
            commits = []
            for _tick, _nid, io, val, kind in order:
                if kind == 1:
                    commits.append((io, np.ascontiguousarray(np.moveaxis(val, -1, 0))))
                elif kind == 2:
                    commits.append((io, val))
                else:
                    commits.append((io, (val,) * T))
            if len(commits) == 1:
                io, seq = commits[0]
                for v in seq:
                    write(io, v)
            else:
                for t in range(T):
                    for io, seq in commits:
                        write(io, seq[t])

    def _replay(
        self,
        R: list,
        bus,
        T: int,
        base_iterations: int,
        rl: list,
        batched: bool,
        progress: list,
    ) -> None:
        """Per-cycle replay of an aborted chunk.

        Reads are served from the chunk attempt's logs — per (kind, port),
        n-th call of an iteration maps to the n-th site in tick order, so
        every site receives exactly the values the attempt (and therefore
        the interpreter) saw.  Exhausted logs fall through to the live
        bus.  Writes go to the bus directly: the attempt buffered them,
        so no write has been issued yet."""
        program = self.program
        step = program.step_batched if batched else program.step_traced
        ports: dict[tuple[int, int], list] = {}
        for kind, io, tick, nid, seq in rl:
            ports.setdefault((kind, io), []).append((tick, nid, seq))
        for sites in ports.values():
            sites.sort(key=lambda s: (s[0], s[1]))
        counts: dict[tuple[int, int], int] = {}
        cursor = {"t": 0}

        def _served(key):
            i = counts.get(key, 0)
            counts[key] = i + 1
            sites = ports.get(key)
            if sites is None or i >= len(sites):
                return None
            seq = sites[i][2]
            t = cursor["t"]
            if isinstance(seq, list):
                return seq[t] if t < len(seq) else None
            return seq[..., t]

        def replay_read(io):
            value = _served((0, io))
            return bus.read(io) if value is None else value

        def replay_read_addr(io, addr):
            value = _served((1, io))
            return bus.read_addr(io, addr) if value is None else value

        done = 0
        word = "batched" if batched else "compiled"
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for t in range(T):
                    cursor["t"] = t
                    counts.clear()
                    step(R, replay_read, replay_read_addr, bus.write)
                    done += 1
        except FloatingPointError as exc:
            # The batched step is unguarded: fault_error restores the
            # interpreter's division/sqrt text.  The scalar step's guards
            # raise that text directly and pass through raw.
            raise program.fault_error(exc, base_iterations + done, word) from exc
        finally:
            # Completed iterations count either way.
            progress[0] = done


def get_vector_program(program: CompiledProgram) -> VectorProgram:
    """The (cached) vector lowering of a compiled program."""
    vp = getattr(program, "_vector_program", None)
    if vp is None:
        vp = VectorProgram(program)
        program._vector_program = vp
    return vp

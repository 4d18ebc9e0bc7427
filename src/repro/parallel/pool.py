"""Warm process pools for sharded scenario execution.

Design points, in the order the ISSUE states them:

* **Worker lifecycle with compile-cache priming.**  The keyed compile
  caches in :mod:`repro.cgra.models` / :mod:`repro.cgra.engine` are
  per-process (see their multiprocess-safety notes).  The pool primes
  the *parent's* caches before starting workers — with the preferred
  ``fork`` start method the children inherit the populated caches at
  fork time for free — and every worker additionally runs the primer
  functions in its initializer, so ``spawn`` platforms pay the tool-flow
  cost once per worker, never once per run.
* **Chunked dispatch, order-stable merge.**  ``map_sharded`` submits one
  task per item and returns results ordered by shard index, whatever
  order workers finished in.  Telemetry snapshots merge in the same
  index order, so last-write-wins instruments (gauges) end up exactly as
  a serial run would leave them.
* **Failure containment.**  An exception inside a shard becomes a
  structured :class:`ShardFailure` on that shard's result; the pool and
  the remaining shards keep running.  A worker that dies outright
  (broken pool) is converted into failures for the affected shards and
  the executor is rebuilt on the next dispatch.
* **Telemetry round-trip.**  When :mod:`repro.obs` is enabled in the
  parent at pool start, workers enable it too, capture a delta
  :class:`~repro.obs.snapshot.ObsSnapshot` per task, and the parent
  merges every snapshot back — worker iterations, deadline misses and
  compile-cache hits all aggregate into the parent's exported metrics.
  With tracing on, the dispatching span's ``(trace_id, span_id)`` is
  frozen into each task and adopted worker-side, so every shard's span
  subtree re-attaches under the dispatch site on merge: a ``--jobs N``
  run exports one coherent span tree with a single trace id.

* **Zero-copy result transport.**  With ``transport="shm"`` (the
  default ``"auto"`` picks it whenever POSIX shared memory works and
  the pool is actually multi-process), workers park large result arrays
  in named shared-memory blocks (:mod:`repro.parallel.shm`) and return
  only ``(offset, shape, dtype)`` descriptors; the parent rebuilds the
  arrays with one copy each and unlinks every block at merge time.
  Blocks are parent-named, so a worker that dies mid-task can never
  leak one — the broken-pool path unlinks every outstanding name.
  Values are identical either way (transport moves bytes, it never
  re-encodes them); ``transport="pickle"`` forces the in-band path.

Work functions and items must be picklable (module-level functions,
plain-data items).  Results must be plain data as well: returning
process-local CGRA handles (compiled models, schedules, executors) is
rejected in the worker with a clear error instead of leaking an object
whose caches and weakrefs are meaningless in another process.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, is_dataclass
from typing import Any, Callable, Iterable, Sequence

from repro import obs
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.obs.snapshot import ObsSnapshot, capture_snapshot, merge_snapshot
from repro.obs.trace import current_context, get_tracer, trace_context

__all__ = [
    "ShardFailure",
    "ShardResult",
    "WorkerPool",
    "run_sharded",
    "raise_on_failures",
    "prime_compile_caches",
    "DEFAULT_PRIMERS",
]

_SHARDS_TOTAL = obs.get_registry().counter(
    "parallel_shards_total", "sharded scenario runs dispatched (by outcome label)"
)
_POOL_WORKERS = obs.get_registry().gauge(
    "parallel_pool_workers", "worker processes of the most recent pool"
)
_SHARD_SECONDS = obs.get_registry().histogram(
    "parallel_shard_seconds", "per-shard wall-clock seconds (worker-side)"
)


def prime_compile_caches() -> None:
    """Default worker primer: compile the shipped beam model.

    Populates this process's keyed model cache for the configuration
    every built-in HIL bench uses (1 bunch, pipelined, default fabric),
    then builds its compiled program — the two batched steps the sweep
    and fault campaign run — so worker runs begin with cache hits
    instead of tool-flow/codegen runs.
    """
    from repro.cgra.engine import compile_program
    from repro.cgra.models import compile_beam_model

    model = compile_beam_model(n_bunches=1, pipelined=True)
    compile_program(model.schedule)


#: Primers every pool runs unless told otherwise.
DEFAULT_PRIMERS: tuple[Callable[[], None], ...] = (prime_compile_caches,)

#: Process-wide dispatch counter: shared-memory block names stay unique
#: across map calls and across pools within one parent process.
_DISPATCH_SEQ = itertools.count(1)


@dataclass(frozen=True)
class ShardFailure:
    """Structured record of one faulted shard (picklable, parent-safe)."""

    #: Index of the work item that failed.
    index: int
    #: Name of the work function.
    fn: str
    #: Exception class name raised in the worker.
    error_type: str
    #: Exception message.
    message: str
    #: Full worker-side traceback text.
    traceback: str = ""

    def summary(self) -> str:
        return f"shard {self.index} ({self.fn}): {self.error_type}: {self.message}"


@dataclass
class ShardResult:
    """Outcome of one work item, in shard-index order."""

    index: int
    #: The work function's return value (None when the shard failed).
    value: Any
    #: Failure record, or None on success.
    failure: ShardFailure | None = None
    #: Worker telemetry delta (None when obs was off or the run was inline).
    telemetry: ObsSnapshot | None = None
    #: PID of the process that ran the shard.
    worker_pid: int = -1
    #: Worker-side wall-clock seconds spent on the shard.
    elapsed_s: float = 0.0
    #: Name of the shared-memory block holding this shard's large result
    #: arrays, or None when the value travelled in-band.  Consumed (and
    #: cleared) by the parent's merge; user code never sees it set.
    shm: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _guard_value(index: int, value: Any) -> None:
    """Reject process-local CGRA handles in shard return values.

    Compiled models, schedules and executors carry process-identity
    state (keyed caches, ``id()``-keyed program caches, weakrefs, bound
    sensor callbacks); shipping one across the process boundary would
    silently detach it from those caches.  Checked one container level
    deep — deep object graphs are the caller's responsibility.
    """
    from repro.cgra.engine import BatchedCgraExecutor
    from repro.cgra.executor import CgraExecutor
    from repro.cgra.models import CompiledModel
    from repro.cgra.modulo import ModuloSchedule
    from repro.cgra.pipelined_executor import PipelinedExecutor
    from repro.cgra.scheduler import Schedule

    handles = (
        CompiledModel,
        Schedule,
        ModuloSchedule,
        CgraExecutor,
        PipelinedExecutor,
        BatchedCgraExecutor,
    )

    def check(obj: Any) -> None:
        if isinstance(obj, handles):
            raise ConfigurationError(
                f"shard {index} returned a process-local CGRA handle "
                f"({type(obj).__name__}); return plain data and recompile "
                "via the per-process cache instead of sharing handles "
                "across processes"
            )

    check(value)
    if isinstance(value, (list, tuple, set)):
        for member in value:
            check(member)
    elif isinstance(value, dict):
        for member in value.values():
            check(member)
    elif is_dataclass(value) and not isinstance(value, type):
        for name in value.__dataclass_fields__:
            check(getattr(value, name))


# -- worker side ----------------------------------------------------------

_WORKER_STATE = {"obs": False}


def _worker_init(
    obs_enabled: bool,
    trace_enabled: bool,
    primers: tuple[Callable[[], None], ...],
) -> None:
    """Per-worker initializer: clean telemetry, primed caches.

    Runs once per worker process.  Telemetry values inherited over fork
    are dropped (they belong to the parent and would double-count on
    merge); priming runs with telemetry already on, so the one
    compile-cache miss each worker pays is visible in the aggregated
    metrics.
    """
    obs.disable()
    obs.reset()
    if obs_enabled:
        obs.enable(trace=trace_enabled)
    _WORKER_STATE["obs"] = obs_enabled
    for primer in primers:
        primer()


def _execute(index: int, fn: Callable[[Any], Any], item: Any) -> tuple:
    """Run one item with containment; returns (value, failure, elapsed)."""
    t0 = time.perf_counter()
    try:
        value = fn(item)
        _guard_value(index, value)
        failure = None
    except Exception as exc:  # containment is the contract
        value = None
        failure = ShardFailure(
            index=index,
            fn=getattr(fn, "__name__", str(fn)),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )
    return value, failure, time.perf_counter() - t0


def _execute_instrumented(index: int, fn, item, ctx: tuple | None) -> tuple:
    """Run one item inside a ``parallel.shard`` span.

    ``ctx`` is the parent process's ``(trace_id, span_id)`` frozen at
    dispatch time: adopting it parents the shard's whole span subtree
    (HIL runs, engine spans, ...) under the dispatching span, so a
    ``--jobs N`` run merges into one tree with a single trace id.
    """
    adopt = trace_context(*ctx) if ctx is not None and obs.trace_enabled() else None
    if adopt is not None:
        adopt.__enter__()
    try:
        with get_tracer().span(
            "parallel.shard", shard=index, fn=getattr(fn, "__name__", str(fn))
        ):
            value, failure, elapsed = _execute(index, fn, item)
    finally:
        if adopt is not None:
            adopt.__exit__()
    return value, failure, elapsed


def _run_shard(payload: tuple) -> ShardResult:
    """Worker-side task wrapper: run, then snapshot-and-reset telemetry."""
    index, fn, item, ctx, shm_name = payload
    value, failure, elapsed = _execute_instrumented(index, fn, item, ctx)
    used_shm = False
    if shm_name is not None and failure is None and value is not None:
        from repro.parallel.shm import offload_arrays

        # Graceful: offload_arrays returns the untouched value when the
        # arrays are small or the block cannot be created — the result
        # then simply travels in-band.
        value, used_shm = offload_arrays(value, shm_name)
    telemetry = None
    if _WORKER_STATE["obs"]:
        _SHARD_SECONDS.observe(elapsed)
        telemetry = capture_snapshot(reset=True)
    return ShardResult(
        index=index,
        value=value,
        failure=failure,
        telemetry=telemetry,
        worker_pid=os.getpid(),
        elapsed_s=elapsed,
        shm=shm_name if used_shm else None,
    )


# -- parent side ----------------------------------------------------------


def _pick_start_method(requested: str | None) -> str:
    methods = multiprocessing.get_all_start_methods()
    if requested is not None:
        if requested not in methods:
            raise ConfigurationError(
                f"start method {requested!r} unavailable (have {methods})"
            )
        return requested
    # fork is preferred: children inherit the parent's primed compile
    # caches, so worker start-up costs neither a tool-flow run nor an
    # interpreter re-import.
    return "fork" if "fork" in methods else methods[0]


class WorkerPool:
    """A warm, reusable pool of primed worker processes.

    Keep one pool alive across dispatches (the experiment runner holds
    one for a whole ``--jobs N`` session): workers stay warm, so
    per-dispatch cost is task pickling only.  ``jobs=1`` never starts a
    process — shards run inline, telemetry flows into the parent
    registry directly, and results are byte-identical to the pooled path
    by construction of the deterministic shard plan.
    """

    def __init__(
        self,
        jobs: int,
        primers: Sequence[Callable[[], None]] = DEFAULT_PRIMERS,
        start_method: str | None = None,
        transport: str = "auto",
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if transport not in ("auto", "shm", "pickle"):
            raise ConfigurationError(
                f"transport must be 'auto', 'shm' or 'pickle', got {transport!r}"
            )
        self.jobs = int(jobs)
        self._primers = tuple(primers)
        self._start_method = start_method
        self._transport = transport
        self._executor: ProcessPoolExecutor | None = None

    @property
    def transport(self) -> str:
        """The resolved result transport: ``"shm"`` or ``"pickle"``."""
        if self._transport == "auto":
            from repro.parallel.shm import shm_available

            return "shm" if self.jobs > 1 and shm_available() else "pickle"
        return self._transport

    # lifecycle --------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Prime the parent before forking so children inherit the
            # populated caches; spawn platforms re-prime per worker via
            # the initializer.
            for primer in self._primers:
                primer()
            context = multiprocessing.get_context(
                _pick_start_method(self._start_method)
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=context,
                initializer=_worker_init,
                initargs=(
                    obs.enabled(),
                    obs.trace_enabled(),
                    self._primers,
                ),
            )
            _POOL_WORKERS.set(self.jobs)
        return self._executor

    def close(self) -> None:
        """Shut the workers down (the pool can be lazily restarted)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # dispatch ---------------------------------------------------------

    def map_sharded(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[ShardResult]:
        """Run ``fn`` over ``items``; results ordered by shard index.

        Never raises for a shard-level exception — inspect
        ``result.failure`` or call :func:`raise_on_failures`.
        """
        items = list(items)
        if not items:
            return []
        if self.jobs == 1:
            results = self._map_inline(fn, items)
        else:
            results = self._map_pooled(fn, items)
        for result in results:
            _SHARDS_TOTAL.inc(outcome="error" if result.failure else "ok")
        return results

    def _map_inline(self, fn, items) -> list[ShardResult]:
        results = []
        for index, item in enumerate(items):
            # Inline shards share the parent's contextvar stack, so the
            # parallel.shard span nests under the caller's current span
            # without explicit context adoption.
            value, failure, elapsed = _execute_instrumented(index, fn, item, None)
            _SHARD_SECONDS.observe(elapsed)
            results.append(
                ShardResult(
                    index=index,
                    value=value,
                    failure=failure,
                    telemetry=None,
                    worker_pid=os.getpid(),
                    elapsed_s=elapsed,
                )
            )
        return results

    def _map_pooled(self, fn, items) -> list[ShardResult]:
        executor = self._ensure_executor()
        # Freeze the dispatching span's context once: every shard of
        # this map call is its child, whatever worker it lands on.
        ctx = current_context()
        # Parent-assigned block names: the parent can always clean up a
        # block, even for a shard whose worker died before returning.
        seq = next(_DISPATCH_SEQ)
        if self.transport == "shm":
            names: list[str | None] = [
                f"repro{os.getpid()}_{seq}_{index}" for index in range(len(items))
            ]
        else:
            names = [None] * len(items)
        futures = [
            executor.submit(_run_shard, (index, fn, item, ctx, names[index]))
            for index, item in enumerate(items)
        ]
        results: list[ShardResult] = []
        broken = False
        failed: list[int] = []
        for index, future in enumerate(futures):
            try:
                # _restore_shard consumes (and always unlinks) the
                # shard's block, so a restored result never holds one.
                results.append(_restore_shard(future.result()))
            except BrokenExecutor as exc:
                broken = True
                failed.append(index)
                results.append(_infrastructure_failure(index, fn, exc))
            except Exception as exc:  # pickling/restore errors and kin
                failed.append(index)
                results.append(_infrastructure_failure(index, fn, exc))
        if broken:
            # A dead worker poisons the whole executor; drop it so the
            # next dispatch starts a fresh pool instead of failing fast.
            self._executor.shutdown(wait=False)
            self._executor = None
        leftovers = [names[i] for i in failed if names[i] is not None]
        if leftovers:
            # Shards that failed between block creation and merge (dead
            # worker, torn result): reclaim their blocks best-effort —
            # a worker that never got as far as creating the block makes
            # this a no-op.
            from repro.parallel.shm import unlink_block

            for name in leftovers:
                unlink_block(name)
        results.sort(key=lambda r: r.index)
        # Order-stable telemetry merge: shard-index order makes gauge
        # last-writes land exactly as the serial run would leave them.
        for result in results:
            if result.telemetry is not None:
                merge_snapshot(result.telemetry, worker=result.worker_pid)
        return results


def _restore_shard(result: ShardResult) -> ShardResult:
    """Rebuild a shard value whose arrays travelled via shared memory.

    Attaching, copying out and unlinking happen here, at merge time in
    the parent; a raise (missing/torn block) surfaces to ``_map_pooled``
    as a shard infrastructure failure.
    """
    if result.shm is not None:
        from repro.parallel.shm import restore_arrays

        result.value = restore_arrays(result.value, result.shm)
        result.shm = None
    return result


def _infrastructure_failure(index, fn, exc: BaseException) -> ShardResult:
    return ShardResult(
        index=index,
        value=None,
        failure=ShardFailure(
            index=index,
            fn=getattr(fn, "__name__", str(fn)),
            error_type=type(exc).__name__,
            message=str(exc) or "worker process died",
            traceback=traceback.format_exc(),
        ),
    )


def run_sharded(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int = 1,
    primers: Sequence[Callable[[], None]] = DEFAULT_PRIMERS,
    start_method: str | None = None,
    transport: str = "auto",
) -> list[ShardResult]:
    """One-shot convenience: pool up, map, tear down.

    For repeated dispatches hold a :class:`WorkerPool` instead — its
    workers stay warm between calls.
    """
    with WorkerPool(
        jobs, primers=primers, start_method=start_method, transport=transport
    ) as pool:
        return pool.map_sharded(fn, items)


def raise_on_failures(
    results: Sequence[ShardResult], what: str = "sharded run"
) -> list[Any]:
    """Return the ordered shard values, or raise if any shard failed.

    The :class:`~repro.errors.ParallelExecutionError` message carries
    every failure's summary plus the first worker traceback, so a
    faulting lane is debuggable from the parent process.
    """
    failures = [r.failure for r in results if r.failure is not None]
    if failures:
        detail = "; ".join(f.summary() for f in failures)
        first_tb = next((f.traceback for f in failures if f.traceback), "")
        raise ParallelExecutionError(
            f"{len(failures)}/{len(results)} shards of {what} failed: {detail}"
            + (f"\nfirst worker traceback:\n{first_tb}" if first_tb else "")
        )
    return [r.value for r in results]

"""``repro.parallel`` — multi-core sharded scenario execution.

The process-pool tier above the batched engine: independent HIL runs
(scenarios, f_rev points, ensemble members, lane chunks) shard across
worker processes while each worker keeps using the in-process
compiled/batched engines, so **batch × process compose** — see
docs/PERFORMANCE.md, "Parallel tier".

Public surface:

* :class:`WorkerPool` / :func:`run_sharded` — warm worker pools with
  compile-cache priming at fork, chunked order-stable dispatch, and
  failure containment (:class:`ShardFailure` records instead of a dead
  pool); :func:`dispatch` runs an experiment's tasks on a pool (inline
  without one) and raises if a shard failed;
* :func:`shard_seeds` — deterministic per-shard seed derivation that is
  independent of the worker count, so ``--jobs 1`` and ``--jobs N``
  produce identical numbers;
* :func:`prime_compile_caches` — the default worker initializer, paying
  ``compile_beam_model``/program-generation costs once per worker.
"""

from __future__ import annotations

from repro.parallel.pool import (
    DEFAULT_PRIMERS,
    ShardFailure,
    ShardResult,
    WorkerPool,
    dispatch,
    prime_compile_caches,
    raise_on_failures,
    run_sharded,
)
from repro.parallel.seeding import shard_seeds

__all__ = [
    "WorkerPool",
    "run_sharded",
    "dispatch",
    "ShardResult",
    "ShardFailure",
    "raise_on_failures",
    "shard_seeds",
    "prime_compile_caches",
    "DEFAULT_PRIMERS",
]

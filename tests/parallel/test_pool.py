"""WorkerPool: sharded dispatch, containment, cache safety, telemetry.

Pooled tests fork real worker processes; each keeps the work tiny (a few
microseconds per shard) so the suite stays fast even on one core.
"""

import os
from dataclasses import dataclass

import pytest

from repro import obs
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.parallel import (
    DEFAULT_PRIMERS,
    ShardFailure,
    ShardResult,
    WorkerPool,
    prime_compile_caches,
    raise_on_failures,
    run_sharded,
)


# -- module-level work functions (must pickle by reference) ---------------

def _square(x):
    return x * x


def _boom_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


def _pid_of(_):
    return os.getpid()


def _return_compiled_model(_):
    from repro.cgra.models import compile_beam_model

    return compile_beam_model(n_bunches=1, pipelined=True)


@dataclass
class _Wrapper:
    payload: object


def _return_wrapped_schedule(_):
    from repro.cgra.models import compile_beam_model

    return _Wrapper(compile_beam_model(n_bunches=1, pipelined=True).schedule)


def _cache_probe(_):
    """Report whether this process's model cache was primed before us."""
    from repro.cgra import models

    primed = len(models._MODEL_CACHE) > 0
    model = models.compile_beam_model(n_bunches=1, pipelined=True)
    return {"pid": os.getpid(), "primed": primed, "ticks": model.schedule_length}


def _observe_some_telemetry(x):
    reg = obs.metrics()
    reg.counter("test_pool_work_total", "t").inc(x, kind="unit")
    reg.gauge("test_pool_last_item", "t").set(x)
    return x


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestInlineDispatch:
    def test_values_in_order(self):
        results = run_sharded(_square, [1, 2, 3, 4], jobs=1, primers=())
        assert [r.value for r in results] == [1, 4, 9, 16]
        assert all(r.ok for r in results)
        assert all(r.worker_pid == os.getpid() for r in results)

    def test_empty_items(self):
        assert run_sharded(_square, [], jobs=1, primers=()) == []

    def test_failure_contained(self):
        results = run_sharded(_boom_on_three, [1, 2, 3, 4], jobs=1, primers=())
        assert [r.ok for r in results] == [True, True, False, True]
        failure = results[2].failure
        assert isinstance(failure, ShardFailure)
        assert failure.index == 2
        assert failure.fn == "_boom_on_three"
        assert failure.error_type == "ValueError"
        assert "boom" in failure.message
        assert "ValueError" in failure.traceback

    def test_raise_on_failures(self):
        results = run_sharded(_boom_on_three, [1, 3], jobs=1, primers=())
        with pytest.raises(ParallelExecutionError) as err:
            raise_on_failures(results, "unit run")
        assert "1/2 shards of unit run failed" in str(err.value)
        assert "shard 1 (_boom_on_three): ValueError: boom" in str(err.value)
        ok = run_sharded(_square, [2, 3], jobs=1, primers=())
        assert raise_on_failures(ok) == [4, 9]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(jobs=0)


class TestHandleGuard:
    """Process-local CGRA handles must never cross the pool boundary."""

    def test_bare_model_rejected(self):
        (result,) = run_sharded(_return_compiled_model, [None], jobs=1)
        assert not result.ok
        assert "process-local CGRA handle" in result.failure.message
        assert "CompiledModel" in result.failure.message

    def test_handle_inside_dataclass_rejected(self):
        (result,) = run_sharded(_return_wrapped_schedule, [None], jobs=1)
        assert not result.ok
        assert "process-local CGRA handle" in result.failure.message

    def test_plain_data_passes(self):
        (result,) = run_sharded(_cache_probe, [None], jobs=1)
        assert result.ok


class TestPooledDispatch:
    def test_parity_with_inline_and_order(self):
        items = list(range(10))
        inline = [r.value for r in run_sharded(_square, items, jobs=1, primers=())]
        pooled = run_sharded(_square, items, jobs=2, primers=())
        assert [r.value for r in pooled] == inline
        assert [r.index for r in pooled] == items
        assert all(r.worker_pid != os.getpid() for r in pooled)

    def test_failure_contained_pool_survives(self):
        with WorkerPool(jobs=2, primers=()) as pool:
            results = pool.map_sharded(_boom_on_three, [1, 2, 3, 4])
            assert [r.ok for r in results] == [True, True, False, True]
            assert results[2].failure.error_type == "ValueError"
            # The pool is still alive and reusable after a shard fault.
            again = pool.map_sharded(_square, [5, 6])
            assert [r.value for r in again] == [25, 36]

    def test_workers_stay_warm_across_dispatches(self):
        with WorkerPool(jobs=2, primers=()) as pool:
            first = {r.value for r in pool.map_sharded(_pid_of, range(8))}
            second = {r.value for r in pool.map_sharded(_pid_of, range(8))}
        # The same two processes serve both dispatches (either dispatch
        # may be drained by one worker under load, so compare the union
        # rather than demanding identical per-dispatch sets).
        assert 1 <= len(first | second) <= 2

    def test_compile_cache_primed_in_workers(self):
        """Satellite regression: workers see a primed per-process cache
        (inherited over fork or rebuilt by the initializer) rather than
        sharing any handle with the parent."""
        prime_compile_caches()  # parent reference compile
        from repro.cgra.models import compile_beam_model

        parent_ticks = compile_beam_model(n_bunches=1, pipelined=True).schedule_length
        results = run_sharded(_cache_probe, [None] * 4, jobs=2)
        probes = raise_on_failures(results, "cache probe")
        assert all(p["primed"] for p in probes)
        assert all(p["pid"] != os.getpid() for p in probes)
        assert all(p["ticks"] == parent_ticks for p in probes)

    def test_default_primers_include_beam_model(self):
        assert prime_compile_caches in DEFAULT_PRIMERS


class TestPooledTelemetry:
    def test_worker_metrics_merge_into_parent(self):
        obs.enable()
        reg = obs.metrics()
        results = run_sharded(_observe_some_telemetry, [1, 2, 3, 4], jobs=2, primers=())
        assert all(r.ok for r in results)
        assert all(r.telemetry is not None for r in results)
        # Counters add across workers; the gauge holds the last shard's
        # value because snapshots merge in shard-index order.
        assert reg.counter("test_pool_work_total", "t").value(kind="unit") == 10
        assert reg.gauge("test_pool_last_item", "t").value() == 4
        shards = reg.counter("parallel_shards_total", "")
        assert shards.value(outcome="ok") == 4

    def test_obs_disabled_means_no_snapshots(self):
        results = run_sharded(_observe_some_telemetry, [1, 2], jobs=2, primers=())
        assert all(r.telemetry is None for r in results)

    def test_failed_shard_still_reports_outcome_counter(self):
        obs.enable()
        reg = obs.metrics()
        run_sharded(_boom_on_three, [1, 3], jobs=2, primers=())
        shards = reg.counter("parallel_shards_total", "")
        assert shards.value(outcome="ok") == 1
        assert shards.value(outcome="error") == 1


class TestShardResultShape:
    def test_ok_and_elapsed(self):
        (result,) = run_sharded(_square, [3], jobs=1, primers=())
        assert isinstance(result, ShardResult)
        assert result.ok
        assert result.elapsed_s >= 0.0

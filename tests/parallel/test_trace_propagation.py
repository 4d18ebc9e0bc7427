"""Cross-process trace propagation through the sharded pool.

The acceptance contract of the flight recorder: a ``jobs=N`` run whose
dispatch happens inside a parent span produces ONE span tree — a single
trace id, every worker span's parent link resolving back through
``parallel.shard`` to the dispatching span.
"""

import pytest

from repro import obs
from repro.parallel import run_sharded


# -- module-level work functions (must pickle by reference) ---------------

def _traced_shard(x):
    with obs.get_tracer().span("shard_work", item=x):
        pass
    return x


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSingleTree:
    def test_jobs2_produces_one_trace_tree(self):
        obs.enable(trace=True)
        tracer = obs.tracer()
        with tracer.span("experiment.test") as root:
            results = run_sharded(_traced_shard, [1, 2, 3], jobs=2, primers=())
        assert [r.value for r in results] == [1, 2, 3]
        records = tracer.records
        # Root + per-shard (parallel.shard + shard_work).
        assert len(records) == 1 + 2 * 3
        assert {r.trace_id for r in records} == {root.trace_id}
        by_id = {r.span_id: r for r in records}
        for record in records:
            if record.span_id == root.span_id:
                assert record.parent_id is None
            else:
                # Every other span's parent chain reaches the root.
                hops, current = 0, record
                while current.parent_id is not None:
                    current = by_id[current.parent_id]
                    hops += 1
                    assert hops < 10
                assert current.span_id == root.span_id

    def test_worker_spans_are_tagged(self):
        obs.enable(trace=True)
        with obs.tracer().span("experiment.test"):
            run_sharded(_traced_shard, [1, 2], jobs=2, primers=())
        workers = {
            r.attrs.get("worker")
            for r in obs.tracer().records
            if r.name == "parallel.shard"
        }
        assert None not in workers  # every shard attributed to a pid

    def test_inline_jobs1_builds_the_same_shape(self):
        obs.enable(trace=True)
        tracer = obs.tracer()
        with tracer.span("experiment.test") as root:
            run_sharded(_traced_shard, [1, 2], jobs=1, primers=())
        names = sorted(r.name for r in tracer.records)
        assert names == [
            "experiment.test",
            "parallel.shard", "parallel.shard",
            "shard_work", "shard_work",
        ]
        assert {r.trace_id for r in tracer.records} == {root.trace_id}

    def test_without_parent_span_shards_root_their_own_traces(self):
        obs.enable(trace=True)
        run_sharded(_traced_shard, [1, 2], jobs=1, primers=())
        shards = [
            r for r in obs.tracer().records if r.name == "parallel.shard"
        ]
        assert all(r.parent_id is None for r in shards)

"""Snapshot capture/merge: N worker registries fold into one parent.

The contract pinned here: merging worker snapshots (in shard order) into
an idle parent registry produces exactly the state a serial run of the
same instrument writes would have left behind.
"""

import math

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import ObsSnapshot, capture_snapshot, merge_snapshot
from repro.obs.registry import MetricsRegistry
from repro.obs.report import HilRunReport, clear_run_reports, run_reports
from repro.obs.trace import SpanRecord, Tracer


def _instrument(registry, worker_index):
    """One simulated worker's writes (parameterised so workers differ)."""
    c = registry.counter("work_items_total", "items processed")
    c.inc(worker_index + 1, outcome="ok")
    c.inc(1, outcome="error")
    registry.gauge("last_seen", "last item index").set(10.0 * worker_index)
    h = registry.histogram("latency", "seconds")
    h.observe(0.5 * (worker_index + 1))
    h.observe(200.0)


class TestMergeEqualsSerial:
    def test_three_workers_equal_serial(self, enabled):
        workers = [MetricsRegistry() for _ in range(3)]
        serial = MetricsRegistry()
        for i, registry in enumerate(workers):
            _instrument(registry, i)
            _instrument(serial, i)  # the same writes, one process

        parent = MetricsRegistry()
        for i, registry in enumerate(workers):
            snap = capture_snapshot(registry=registry, tracer=Tracer())
            merge_snapshot(snap, registry=parent, tracer=Tracer(), worker=i)

        assert parent.snapshot() == serial.snapshot()
        # Spot checks on the per-kind semantics.
        c = parent.counter("work_items_total", "")
        assert c.value(outcome="ok") == 1 + 2 + 3
        assert c.value(outcome="error") == 3
        assert parent.gauge("last_seen", "").value() == 20.0  # last merge wins
        h = parent.histogram("latency", "")
        assert h.count() == 6
        assert h.sum() == pytest.approx(0.5 + 1.0 + 1.5 + 3 * 200.0)
        assert h.percentile(100.0) == pytest.approx(200.0)

    def test_merge_into_active_parent_adds(self, enabled):
        parent = MetricsRegistry()
        parent.counter("work_items_total", "").inc(5, outcome="ok")
        worker = MetricsRegistry()
        worker.counter("work_items_total", "").inc(2, outcome="ok")
        snap = capture_snapshot(registry=worker, tracer=Tracer())
        merge_snapshot(snap, registry=parent, tracer=Tracer())
        assert parent.counter("work_items_total", "").value(outcome="ok") == 7


class TestCaptureReset:
    def test_reset_produces_disjoint_deltas(self, enabled):
        registry = MetricsRegistry()
        registry.counter("n", "").inc(4)
        first = capture_snapshot(reset=True, registry=registry, tracer=Tracer())
        assert first.metrics[0]["state"] == {(): 4.0}
        registry.counter("n", "").inc(1)
        second = capture_snapshot(reset=True, registry=registry, tracer=Tracer())
        assert second.metrics[0]["state"] == {(): 1.0}

    def test_empty_worker_snapshot(self, enabled):
        snap = capture_snapshot(registry=MetricsRegistry(), tracer=Tracer())
        assert snap.empty
        parent = MetricsRegistry()
        merge_snapshot(snap, registry=parent, tracer=Tracer())
        assert parent.names() == []

    def test_instruments_with_no_writes_are_skipped(self, enabled):
        registry = MetricsRegistry()
        registry.counter("never_written", "")
        snap = capture_snapshot(registry=registry, tracer=Tracer())
        assert snap.empty


class TestFaultedWorker:
    def test_partial_telemetry_from_faulted_worker_merges(self, enabled):
        """A shard that died mid-way still ships what it recorded."""
        registry = MetricsRegistry()
        registry.counter("work_items_total", "").inc(2, outcome="ok")
        try:
            raise ValueError("worker died here")
        except ValueError:
            snap = capture_snapshot(registry=registry, tracer=Tracer())
        parent = MetricsRegistry()
        merge_snapshot(snap, registry=parent, tracer=Tracer(), worker=99)
        assert parent.counter("work_items_total", "").value(outcome="ok") == 2


class TestMergeValidation:
    def test_histogram_bucket_mismatch_raises(self, enabled):
        worker = MetricsRegistry()
        worker.histogram("h", "", buckets=[0.0, 1.0]).observe(0.5)
        snap = capture_snapshot(registry=worker, tracer=Tracer())
        snap.metrics[0]["buckets"] = [0.0, 0.5, 1.0, math.inf]  # forged bounds
        with pytest.raises(ConfigurationError, match="cannot merge"):
            merge_snapshot(snap, registry=MetricsRegistry(), tracer=Tracer())

    def test_unknown_kind_raises(self):
        snap = ObsSnapshot(
            metrics=[{"name": "x", "kind": "summary", "description": "", "state": {}}]
        )
        with pytest.raises(ConfigurationError, match="unknown kind"):
            merge_snapshot(snap, registry=MetricsRegistry(), tracer=Tracer())


class TestGaugeOrderDeterminism:
    def test_gauge_outcome_is_fixed_by_shard_order(self, enabled):
        """Gauges are last-write-wins *in merge order* — merging shards
        in index order is what makes the outcome deterministic."""
        snaps = []
        for i in range(3):
            registry = MetricsRegistry()
            registry.gauge("g", "").set(10.0 * i)
            snaps.append(capture_snapshot(registry=registry, tracer=Tracer()))
        outcomes = []
        for _ in range(2):  # same order → same outcome, every time
            parent = MetricsRegistry()
            for snap in snaps:
                merge_snapshot(snap, registry=parent, tracer=Tracer())
            outcomes.append(parent.gauge("g", "").value())
        assert outcomes == [20.0, 20.0]
        # Completion order is NOT the contract: a different merge order
        # moves the gauge, which is why the pool merges in shard order.
        parent = MetricsRegistry()
        for snap in reversed(snaps):
            merge_snapshot(snap, registry=parent, tracer=Tracer())
        assert parent.gauge("g", "").value() == 0.0


class TestSpansAndReports:
    def test_spans_merge_with_worker_tag(self, tracing):
        worker_tracer = Tracer()
        worker_tracer._record(SpanRecord("compile", 1.0, 0.25, {"model": "beam"}))
        worker_tracer.dropped = 3
        snap = capture_snapshot(registry=MetricsRegistry(), tracer=worker_tracer)
        parent = Tracer()
        merge_snapshot(snap, registry=MetricsRegistry(), tracer=parent, worker=42)
        assert len(parent.records) == 1
        record = parent.records[0]
        assert record.name == "compile"
        assert record.duration == 0.25
        assert record.attrs == {"model": "beam", "worker": 42}
        assert parent.dropped == 3

    def test_worker_span_merge_then_export_round_trip(self, tracing, tmp_path):
        """The worker tag and parent links survive merge → Perfetto →
        view reload."""
        from repro.obs.view import load_trace

        with tracing.span("dispatch") as dispatch:
            ctx = obs.current_context()
        worker_tracer = Tracer()  # simulated worker process
        with obs.trace_context(*ctx):
            with worker_tracer.span("shard"):
                pass
        snap = capture_snapshot(registry=MetricsRegistry(), tracer=worker_tracer)
        merge_snapshot(
            snap, registry=MetricsRegistry(), tracer=tracing, worker=7
        )
        path = obs.export.export_trace_perfetto(tmp_path / "t.json")
        spans = load_trace(path)
        by_name = {s["name"]: s for s in spans}
        shard = by_name["shard"]
        assert shard["attrs"]["worker"] == 7
        assert shard["trace_id"] == by_name["dispatch"]["trace_id"]
        assert shard["parent_id"] == by_name["dispatch"]["span_id"]

    def test_span_starts_rebase_onto_parent_clock(self, tracing):
        worker_tracer = Tracer()
        worker_tracer.clock_origin = tracing.clock_origin + 100.0
        worker_tracer._record(SpanRecord("w", 5.0, 0.1))
        snap = capture_snapshot(registry=MetricsRegistry(), tracer=worker_tracer)
        assert snap.clock_origin_s == worker_tracer.clock_origin
        merge_snapshot(snap, registry=MetricsRegistry(), tracer=tracing)
        assert tracing.records[-1].start == pytest.approx(105.0)

    def test_reports_round_trip(self, enabled):
        clear_run_reports()
        report = HilRunReport(
            name="bench", engine="cgra", schedule_length=100,
            n_iterations=5000, deadline_misses=1,
            slack_min=-2.0, slack_mean=40.0, slack_p50=41.0, slack_p99=5.0,
            extras={"lane": 3},
        )
        snap = ObsSnapshot(reports=[report.to_dict()])
        merge_snapshot(snap, registry=MetricsRegistry(), tracer=Tracer())
        merged = run_reports()
        assert len(merged) == 1
        assert merged[0] == report
        assert not merged[0].met

    def test_obs_facade_exports_snapshot_api(self):
        assert obs.capture_snapshot is capture_snapshot
        assert obs.merge_snapshot is merge_snapshot

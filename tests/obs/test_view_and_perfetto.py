"""Perfetto trace export and the ``python -m repro.obs.view`` CLI."""

import json

from repro import obs
from repro.obs.trace import SpanRecord, Tracer
from repro.obs.view import format_span_tree, load_trace, main


def _record_tree(tracer):
    with tracer.span("experiment.demo"):
        with tracer.span("parallel.shard", shard=0):
            tracer.event("tick")


class TestPerfettoExport:
    def test_document_structure(self, tracing, tmp_path):
        _record_tree(tracing)
        path = obs.export.export_trace_perfetto(tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases.count("X") == 2  # two spans
        assert phases.count("i") == 1  # one instant
        assert "M" in phases  # process_name metadata
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        for event in spans:
            assert event["dur"] >= 0.0 and event["ts"] >= 0.0
            assert event["args"]["trace_id"] and event["args"]["span_id"]

    def test_timestamps_start_at_zero_microseconds(self, tracing, tmp_path):
        _record_tree(tracing)
        path = obs.export.export_trace_perfetto(tmp_path / "t.json")
        doc = json.loads(path.read_text())
        timed = [e for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        assert min(e["ts"] for e in timed) == 0.0

    def test_worker_records_get_their_own_process_track(self, tracing, tmp_path):
        with tracing.span("parent"):
            pass
        tracing._record(SpanRecord("shard", 0.0, 0.1, {"worker": 3}))
        path = obs.export.export_trace_perfetto(tmp_path / "t.json")
        doc = json.loads(path.read_text())
        meta = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert set(meta) == {"parent process", "worker 3"}
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert by_name["shard"]["pid"] == meta["worker 3"]
        assert by_name["parent"]["pid"] == meta["parent process"]
        assert by_name["shard"]["pid"] != by_name["parent"]["pid"]

    def test_dropped_instant_appended(self, tracing, tmp_path):
        t = Tracer(max_records=1)
        t.event("kept")
        t.event("lost")
        path = obs.export.export_trace_perfetto(tmp_path / "d.json", tracer=t)
        last = json.loads(path.read_text())["traceEvents"][-1]
        assert last["name"] == "trace.dropped"
        assert last["args"]["dropped_records"] == 1


class TestLoadTrace:
    def test_perfetto_round_trip_keeps_links_and_attrs(self, tracing, tmp_path):
        _record_tree(tracing)
        path = obs.export.export_trace_perfetto(tmp_path / "t.json")
        spans = load_trace(path)
        assert {s["name"] for s in spans} == {
            "experiment.demo", "parallel.shard", "tick",
        }
        by_name = {s["name"]: s for s in spans}
        assert (
            by_name["parallel.shard"]["parent_id"]
            == by_name["experiment.demo"]["span_id"]
        )
        assert by_name["tick"]["parent_id"] == by_name["parallel.shard"]["span_id"]
        assert by_name["tick"]["event"] is True
        assert by_name["parallel.shard"]["attrs"] == {"shard": 0}
        assert len({s["trace_id"] for s in spans}) == 1

    def test_jsonl_round_trip(self, tracing, tmp_path):
        _record_tree(tracing)
        path = obs.export.export_trace_jsonl(tmp_path / "t.jsonl")
        spans = load_trace(path)
        assert len(spans) == 3
        by_name = {s["name"]: s for s in spans}
        assert (
            by_name["parallel.shard"]["parent_id"]
            == by_name["experiment.demo"]["span_id"]
        )


class TestTreeRendering:
    def test_tree_nests_and_aggregates_same_named_siblings(self, tracing, tmp_path):
        with tracing.span("root"):
            for _ in range(3):
                with tracing.span("child"):
                    pass
        path = obs.export.export_trace_perfetto(tmp_path / "t.json")
        spans = load_trace(path)
        lines = format_span_tree(spans)
        assert "4 record(s), 1 trace id(s)" in lines[0]
        root_line = next(line for line in lines if line.startswith("root"))
        child_line = next(line for line in lines if "child" in line)
        assert "total" in root_line
        assert "×3" in child_line
        assert child_line.startswith("  ")  # indented under root

    def test_cli_prints_tree(self, tracing, tmp_path, capsys):
        with tracing.span("root"):
            with tracing.span("child"):
                pass
        path = obs.export.export_trace_perfetto(tmp_path / "t.json")
        assert main([str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("root")
        assert lines[2].startswith("  child")

    def test_cli_reads_jsonl_too(self, tracing, tmp_path, capsys):
        _record_tree(tracing)
        path = obs.export.export_trace_jsonl(tmp_path / "t.jsonl")
        assert main([str(path)]) == 0
        assert "experiment.demo" in capsys.readouterr().out

    def test_cli_unreadable_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_cli_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main([str(empty)]) == 0
        assert "no span/event records" in capsys.readouterr().out

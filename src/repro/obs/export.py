"""Telemetry artefact writers.

Five formats, all plain files next to the experiment CSVs:

* :func:`export_metrics_json` — the full registry snapshot as one JSON
  document (instrument kind, description, per-label-set series);
* :func:`export_metrics_csv` — flat ``metric,labels,field,value`` rows
  for spreadsheet-grade consumers;
* :func:`export_trace_jsonl` — one JSON object per span/event record;
* :func:`export_trace_perfetto` — Chrome trace-event JSON that loads
  directly in https://ui.perfetto.dev (and ``chrome://tracing``); span
  ids travel in ``args`` so :mod:`repro.obs.view` can rebuild the tree
  from the same file;
* :func:`export_run_reports_json` / :func:`write_bench_json` — run
  reports, and a pytest-benchmark-compatible ``BENCH_*.json`` so perf
  numbers from CI land in the same shape the benchmark suite emits.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.report import HilRunReport, run_reports
from repro.obs.trace import Tracer, get_tracer

__all__ = [
    "export_metrics_json",
    "export_metrics_csv",
    "export_trace_jsonl",
    "export_trace_perfetto",
    "export_run_reports_json",
    "write_bench_json",
]


def _sanitize(value):
    """JSON has no inf/nan; map them to strings rather than crash."""
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return str(value)
    return value


def _json_default(value):
    try:
        return _sanitize(float(value))
    except (TypeError, ValueError):
        return str(value)


def export_metrics_json(path: str | Path, registry: MetricsRegistry | None = None) -> Path:
    """Write the registry snapshot as JSON; returns the path."""
    registry = registry if registry is not None else get_registry()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(registry.snapshot(), indent=2, default=_json_default, allow_nan=False)
    )
    return path


def export_metrics_csv(path: str | Path, registry: MetricsRegistry | None = None) -> Path:
    """Write flat CSV rows: ``metric,kind,labels,field,value``."""
    registry = registry if registry is not None else get_registry()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["metric,kind,labels,field,value"]

    def quote(text: str) -> str:
        return '"' + str(text).replace('"', '""') + '"'

    for name, entry in registry.snapshot().items():
        for labels, value in entry["series"].items():
            if isinstance(value, Mapping):  # histogram series
                for stat in ("count", "sum", "min", "max"):
                    lines.append(
                        f"{name},{entry['kind']},{quote(labels)},{stat},{value[stat]}"
                    )
                for bound, count in value["buckets"].items():
                    lines.append(
                        f"{name},{entry['kind']},{quote(labels)},le={bound},{count}"
                    )
            else:
                lines.append(f"{name},{entry['kind']},{quote(labels)},value,{value}")
    path.write_text("\n".join(lines) + "\n")
    return path


def export_trace_jsonl(path: str | Path, tracer: Tracer | None = None) -> Path:
    """Write every span/event as one JSON line (chronological order).

    A final ``trace.dropped`` event is appended when the tracer hit its
    record cap, so truncation is visible in the artefact.
    """
    tracer = tracer if tracer is not None else get_tracer()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = sorted(tracer.records, key=lambda r: r.start)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), default=_json_default) + "\n")
        if tracer.dropped:
            fh.write(
                json.dumps(
                    {
                        "name": "trace.dropped",
                        "event": True,
                        "attrs": {"dropped_records": tracer.dropped},
                    }
                )
                + "\n"
            )
    return path


def export_trace_perfetto(path: str | Path, tracer: Tracer | None = None) -> Path:
    """Write the trace as Chrome trace-event JSON (Perfetto-loadable).

    Spans become complete (``ph: "X"``) events and point events become
    instants (``ph: "i"``); timestamps are microseconds relative to the
    earliest record, so the timeline starts at zero.  Each event's
    ``args`` carries the span's attributes plus its
    ``trace_id``/``span_id``/``parent_id``, which is what
    ``python -m repro.obs.view`` uses to rebuild the span tree from this
    same file.  Records merged from worker processes (a ``worker``
    attribute, set by :func:`repro.obs.snapshot.merge_snapshot`) land on
    their own Perfetto process track; everything else lands on the
    parent track.
    """
    tracer = tracer if tracer is not None else get_tracer()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = sorted(tracer.records, key=lambda r: r.start)
    t0 = records[0].start if records else 0.0
    events: list[dict] = []
    tracks: dict = {}

    def track_of(record) -> int:
        worker = record.attrs.get("worker", "parent")
        pid = tracks.get(worker)
        if pid is None:
            pid = tracks[worker] = len(tracks) + 1
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": "parent process" if worker == "parent"
                         else f"worker {worker}"},
            })
        return pid

    for record in records:
        args = {k: _sanitize(v) if isinstance(v, float) else v
                for k, v in record.attrs.items()}
        args["trace_id"] = record.trace_id
        args["span_id"] = record.span_id
        args["parent_id"] = record.parent_id
        event = {
            "name": record.name,
            "cat": record.name.split(".", 1)[0],
            "pid": track_of(record),
            "tid": 1,
            "ts": (record.start - t0) * 1e6,
            "args": args,
        }
        if record.is_event:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = record.duration * 1e6
        events.append(event)
    if tracer.dropped:
        events.append({
            "name": "trace.dropped",
            "ph": "i",
            "s": "g",
            "pid": 1,
            "tid": 1,
            "ts": (records[-1].start - t0) * 1e6 if records else 0.0,
            "args": {"dropped_records": tracer.dropped},
        })
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(doc, default=_json_default))
    return path


def export_run_reports_json(
    path: str | Path, reports: Iterable[HilRunReport] | None = None
) -> Path:
    """Write HIL run reports as a JSON list."""
    reports = list(reports) if reports is not None else run_reports()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps([r.to_dict() for r in reports], indent=2, default=_json_default)
    )
    return path


def write_bench_json(
    path: str | Path,
    entries: Iterable[Mapping],
    machine_info: Mapping | None = None,
) -> Path:
    """Write a ``BENCH_*.json`` perf artefact.

    ``entries`` are mappings with at least ``name`` and ``stats`` (a
    mapping with a ``mean``; ``min``/``max``/``stddev``/``rounds`` are
    filled with defaults when absent).  The output mirrors the subset of
    the pytest-benchmark JSON schema downstream tooling reads
    (``machine_info``, ``benchmarks[].name/stats/extra_info``), so the
    perf trajectory stays comparable across emitters.
    """
    path = Path(path)
    if not path.name.startswith("BENCH_"):
        raise ConfigurationError(
            f"bench artefacts must be named BENCH_*.json, got {path.name!r}"
        )
    benchmarks = []
    for entry in entries:
        if "name" not in entry or "stats" not in entry:
            raise ConfigurationError("each bench entry needs 'name' and 'stats'")
        stats = dict(entry["stats"])
        if "mean" not in stats:
            raise ConfigurationError(f"bench entry {entry['name']!r} lacks stats.mean")
        stats.setdefault("min", stats["mean"])
        stats.setdefault("max", stats["mean"])
        stats.setdefault("stddev", 0.0)
        stats.setdefault("rounds", 1)
        benchmarks.append(
            {
                "name": str(entry["name"]),
                "stats": stats,
                "extra_info": dict(entry.get("extra_info", {})),
            }
        )
    doc = {
        "machine_info": dict(
            machine_info
            if machine_info is not None
            else {
                "python_version": platform.python_version(),
                "platform": platform.platform(),
                "processor": platform.processor(),
                "executable": sys.executable,
            }
        ),
        "benchmarks": benchmarks,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, default=_json_default))
    return path

"""Mergeable telemetry snapshots for multi-process runs.

Worker processes of :mod:`repro.parallel` collect metrics, spans and HIL
run reports into their *own* process-wide registry/tracer (module-level
instruments are per-process objects — see the multiprocess-safety notes
in :mod:`repro.cgra.models`).  Without help, that telemetry dies with the
worker.  This module makes it transportable:

* :func:`capture_snapshot` freezes the current process's telemetry into
  a plain-data :class:`ObsSnapshot` (picklable: dicts/lists/floats only)
  and can atomically reset afterwards, so one warm worker produces one
  delta snapshot per task;
* :func:`merge_snapshot` folds a snapshot into the parent's registry,
  tracer and report list with per-kind semantics: **counters add**,
  **gauges last-write-wins in merge order** (merging shards in index
  order reproduces the serial outcome), **histograms add bucket counts
  and moments**, spans append (tagged with the worker id), reports
  append.

Spans keep their ``trace_id``/``span_id``/``parent_id`` through the
round trip, so a worker span whose parent context was propagated from
the parent process (:func:`repro.obs.trace.current_context` →
:class:`repro.obs.trace.trace_context`) re-attaches to the parent's
span tree on merge.  Span start times are **rebased** onto the parent
tracer's clock using the two tracers' epoch origins, so a merged trace
renders as one coherent timeline in Perfetto.

Merging ``N`` worker snapshots into an idle parent registry yields the
same totals a serial run of the same work would have produced — pinned
by ``tests/obs/test_snapshot_merge.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.registry import Histogram, MetricsRegistry, get_registry
from repro.obs.report import HilRunReport, add_run_report, run_reports
from repro.obs.trace import SpanRecord, Tracer, get_tracer

__all__ = ["ObsSnapshot", "capture_snapshot", "merge_snapshot"]


@dataclass
class ObsSnapshot:
    """Frozen, picklable view of one process's telemetry.

    ``metrics`` entries carry ``name``/``kind``/``description`` plus the
    instrument's raw :meth:`state` payload (and bucket bounds for
    histograms); ``spans``/``reports`` are ``to_dict()`` records.
    """

    metrics: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    reports: list[dict] = field(default_factory=list)
    #: Spans the worker's tracer discarded at its record cap.
    dropped_spans: int = 0
    #: The capturing tracer's epoch origin (``time.time() -
    #: time.perf_counter()``); merge uses it to rebase span starts onto
    #: the parent's clock.  None in snapshots from older emitters.
    clock_origin_s: float | None = None

    @property
    def empty(self) -> bool:
        """True when nothing was recorded (idle worker)."""
        return not (self.metrics or self.spans or self.reports)


def capture_snapshot(
    reset: bool = False,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
) -> ObsSnapshot:
    """Freeze the current telemetry state into an :class:`ObsSnapshot`.

    With ``reset=True`` the captured values/spans/reports are cleared
    afterwards (instrument objects stay registered), so consecutive
    captures from a warm worker are non-overlapping deltas.
    """
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    metrics: list[dict] = []
    for name in registry.names():
        instrument = registry.get(name)
        state = instrument.state()
        if not state:
            continue
        entry = {
            "name": name,
            "kind": instrument.kind,
            "description": instrument.description,
            "state": state,
        }
        if isinstance(instrument, Histogram):
            entry["buckets"] = list(instrument.buckets)
        metrics.append(entry)
    snapshot = ObsSnapshot(
        metrics=metrics,
        spans=[record.to_dict() for record in tracer.records],
        reports=[report.to_dict() for report in run_reports()],
        dropped_spans=tracer.dropped,
        clock_origin_s=tracer.clock_origin,
    )
    if reset:
        registry.reset()
        tracer.reset()
        from repro.obs.report import clear_run_reports

        clear_run_reports()
    return snapshot


def merge_snapshot(
    snapshot: ObsSnapshot,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    worker: int | str | None = None,
) -> None:
    """Fold one worker snapshot into the parent-side telemetry.

    Instruments are created on demand (same get-or-create semantics as
    direct instrumentation), so the parent need not have touched a
    metric for a worker's series to survive.  ``worker`` tags every
    merged span with a ``worker`` attribute for attribution; span start
    times are rebased onto the parent tracer's clock when the snapshot
    carries its origin (older snapshots merge un-rebased).
    """
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    for entry in snapshot.metrics:
        kind = entry["kind"]
        if kind == "counter":
            instrument = registry.counter(entry["name"], entry["description"])
        elif kind == "gauge":
            instrument = registry.gauge(entry["name"], entry["description"])
        elif kind == "histogram":
            instrument = registry.histogram(
                entry["name"], entry["description"], buckets=entry.get("buckets")
            )
        else:
            raise ConfigurationError(
                f"snapshot metric {entry['name']!r} has unknown kind {kind!r}"
            )
        instrument.merge_state(entry["state"])
    # Rebase worker perf_counter starts onto the parent's clock so the
    # merged trace is one coherent timeline.
    shift = 0.0
    if snapshot.clock_origin_s is not None:
        shift = snapshot.clock_origin_s - tracer.clock_origin
    for span in snapshot.spans:
        attrs = dict(span.get("attrs", {}))
        if worker is not None:
            attrs.setdefault("worker", worker)
        tracer._record(
            SpanRecord(
                name=span["name"],
                start=float(span["start_s"]) + shift,
                duration=float(span["duration_s"]),
                attrs=attrs,
                is_event=bool(span.get("event", False)),
                trace_id=span.get("trace_id"),
                span_id=span.get("span_id"),
                parent_id=span.get("parent_id"),
            )
        )
    tracer.dropped += snapshot.dropped_spans
    for report in snapshot.reports:
        add_run_report(HilRunReport.from_dict(report))

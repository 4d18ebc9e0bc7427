"""``repro.obs`` — telemetry for the cavity-in-the-loop reproduction.

Metrics (counters/gauges/histograms with labels), trace spans/events,
and per-run HIL reports, wired through the CGRA executors, the signal
chain and the HIL loop.  See ``docs/OBSERVABILITY.md`` for the full
metric/span name catalogue and export formats.

Design rule: **off by default, ~free when off**.  Every instrument
checks one global flag before doing work, so the cycle-accurate
executors pay a single branch per iteration when telemetry is disabled
(pinned by ``benchmarks/test_obs_overhead.py``).  Instrumented modules
create their instruments at import time and call them unconditionally.

Usage::

    from repro import obs

    obs.enable(trace=True)          # or: --metrics / --trace on the runner
    ...run a bench...
    obs.export.export_metrics_json("metrics.json")
    obs.export.export_trace_jsonl("trace.jsonl")
    obs.export.export_run_reports_json("report.json")
    obs.reset()                     # zero values, drop spans + reports
"""

from __future__ import annotations

from repro.obs import export, report
from repro.obs._state import STATE
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.report import (
    HilRunReport,
    add_run_report,
    clear_run_reports,
    record_hil_run,
    run_reports,
)
from repro.obs.snapshot import ObsSnapshot, capture_snapshot, merge_snapshot
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    current_context,
    get_tracer,
    trace_context,
)

__all__ = [
    "enable",
    "disable",
    "enabled",
    "trace_enabled",
    "reset",
    "metrics",
    "tracer",
    "get_registry",
    "get_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "SpanRecord",
    "current_context",
    "trace_context",
    "HilRunReport",
    "record_hil_run",
    "add_run_report",
    "run_reports",
    "clear_run_reports",
    "ObsSnapshot",
    "capture_snapshot",
    "merge_snapshot",
    "export",
    "report",
]


def enable(trace: bool = False) -> None:
    """Turn metrics collection on (and optionally spans)."""
    STATE.enabled = True
    STATE.trace = bool(trace)


def disable() -> None:
    """Turn all telemetry off (instruments keep their recorded values)."""
    STATE.enabled = False
    STATE.trace = False


def enabled() -> bool:
    """True when metrics collection is on."""
    return STATE.enabled


def trace_enabled() -> bool:
    """True when span/event recording is on."""
    return STATE.trace


def metrics() -> MetricsRegistry:
    """The global metric registry."""
    return get_registry()


def tracer() -> Tracer:
    """The global tracer."""
    return get_tracer()


def reset() -> None:
    """Zero all metric values, drop spans/events and reports.

    The enable/disable switches are left as they are; instrument objects
    stay registered so import-time references remain valid.
    """
    get_registry().reset()
    get_tracer().reset()
    clear_run_reports()

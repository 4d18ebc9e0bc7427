"""Terminal viewer for trace artefacts: the span tree.

.. code-block:: bash

    python -m repro.experiments.runner sweep --quick --jobs 2 --telemetry trace --out results
    python -m repro.obs.view results/trace.json
    python -m repro.obs.view results/sweep_trace.jsonl --max-depth 3

Reads either export format — the Chrome/Perfetto JSON the runner's
``--telemetry trace`` writes to ``<out>/trace.json``
(:func:`repro.obs.export.export_trace_perfetto`), or the per-experiment
JSONL it writes beside it (``export_trace_jsonl``) — and prints the
**span tree**, rebuilt from ``span_id``/``parent_id`` links, with
sibling spans of the same name aggregated into one line
(``hil.iteration ×8000``) so repetitive hot loops stay readable.

Everything goes to stdout; the exit code is 0 unless the file cannot be
parsed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["load_trace", "format_span_tree", "main"]


def load_trace(path: str | Path) -> list[dict]:
    """Parse a trace artefact into span dicts.

    Accepts the Perfetto JSON document (``traceEvents``) or
    span-per-line JSONL.  Returned span dicts are normalised to the
    JSONL shape: ``name``, ``start_s``, ``duration_s``, ``attrs``,
    ``event``, ``trace_id``, ``span_id``, ``parent_id``.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict) and "traceEvents" in doc:
        spans = []
        for event in doc["traceEvents"]:
            if event.get("ph") not in ("X", "i"):
                continue
            args = dict(event.get("args", {}))
            span_id = args.pop("span_id", None)
            parent_id = args.pop("parent_id", None)
            trace_id = args.pop("trace_id", None)
            spans.append({
                "name": event["name"],
                "start_s": float(event.get("ts", 0.0)) / 1e6,
                "duration_s": float(event.get("dur", 0.0)) / 1e6,
                "attrs": args,
                "event": event.get("ph") == "i",
                "trace_id": trace_id,
                "span_id": span_id,
                "parent_id": parent_id,
            })
        return spans
    # Fall back to JSONL (one record per line).
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        record.setdefault("attrs", {})
        record.setdefault("event", False)
        for key in ("trace_id", "span_id", "parent_id"):
            record.setdefault(key, None)
        record.setdefault("start_s", 0.0)
        record.setdefault("duration_s", 0.0)
        spans.append(record)
    return spans


class _TreeNode:
    """Aggregate of same-named sibling spans under one parent line."""

    __slots__ = ("name", "count", "total_s", "children", "n_events", "workers")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.n_events = 0
        self.total_s = 0.0
        self.children: dict[str, _TreeNode] = {}
        self.workers: set = set()


def _build_tree(spans: list[dict]) -> _TreeNode:
    """Fold spans into an aggregated tree keyed by parent links."""
    by_id = {s["span_id"]: s for s in spans if s.get("span_id")}
    root = _TreeNode("<root>")
    # Node path for each span id (so children aggregate under the right
    # aggregated line, not under one specific sibling).
    node_of: dict[str, _TreeNode] = {}

    def node_for(span: dict) -> _TreeNode:
        sid = span.get("span_id")
        if sid is not None and sid in node_of:
            return node_of[sid]
        parent_id = span.get("parent_id")
        parent_span = by_id.get(parent_id) if parent_id else None
        parent_node = node_for(parent_span) if parent_span is not None else root
        node = parent_node.children.get(span["name"])
        if node is None:
            node = parent_node.children[span["name"]] = _TreeNode(span["name"])
        if sid is not None:
            node_of[sid] = node
        return node

    # Sort by start so parents (which start first) resolve before
    # children in the common case; node_for recurses regardless.
    for span in sorted(spans, key=lambda s: s.get("start_s", 0.0)):
        node = node_for(span)
        if span.get("event"):
            node.n_events += 1
        else:
            node.count += 1
            node.total_s += float(span.get("duration_s", 0.0))
        worker = span.get("attrs", {}).get("worker")
        if worker is not None:
            node.workers.add(worker)
    return root


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def format_span_tree(spans: list[dict], max_depth: int = 12) -> list[str]:
    """Render the aggregated span tree as indented text lines."""
    root = _build_tree(spans)
    trace_ids = {s.get("trace_id") for s in spans if s.get("trace_id")}
    lines = [
        f"{len(spans)} record(s), {len(trace_ids)} trace id(s)"
        + (f" [{next(iter(trace_ids))}]" if len(trace_ids) == 1 else "")
    ]

    def walk(node: _TreeNode, depth: int) -> None:
        if depth > max_depth:
            return
        ordered = sorted(
            node.children.values(), key=lambda n: (-n.total_s, n.name)
        )
        for child in ordered:
            label = child.name
            mult = f" ×{child.count}" if child.count > 1 else ""
            if child.count == 0 and child.n_events:
                body = f"{child.n_events} event(s)"
            else:
                body = f"total {_fmt_seconds(child.total_s)}"
                if child.n_events:
                    body += f", {child.n_events} event(s)"
            workers = (
                f" [workers: {', '.join(str(w) for w in sorted(child.workers))}]"
                if child.workers else ""
            )
            lines.append(f"{'  ' * depth}{label}{mult}  {body}{workers}")
            walk(child, depth + 1)

    walk(root, 0)
    return lines


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.view",
        description="Print the span tree of a trace artefact (Perfetto "
        "JSON, or an experiment's JSONL, from the runner's --telemetry trace).",
    )
    parser.add_argument("trace", help="trace file (.json or .jsonl)")
    parser.add_argument("--max-depth", type=int, default=12,
                        help="span-tree depth limit (default 12)")
    args = parser.parse_args(argv)
    try:
        spans = load_trace(args.trace)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read trace {args.trace!r}: {exc}", file=sys.stderr)
        return 2
    if not spans:
        print("trace contains no span/event records")
    else:
        for line in format_span_tree(spans, max_depth=args.max_depth):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line for ``python -m repro.analysis``.

Runs the shard-safety lint over explicit paths, or (``--all``) over
every experiment and fault task module — the CI gate.  One line / JSON
object per target.

Exit status follows the three-way convention shared with
``python -m repro.cgra.lint``: **0** no gate tripped, **1** diagnostics
tripped ``--fail-on-error`` (the default) or ``--fail-on-warning``,
**2** an internal analyzer error (unreadable file, analyzer crash) —
tooling can tell "the code is dirty" from "the analyzer is broken".
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from repro.cgra.verify.diagnostics import DiagnosticReport, Severity

__all__ = ["main"]


def _print_target(name: str, analyzer: str, report: DiagnosticReport,
                  as_json: bool, quiet: bool) -> None:
    errors, warnings = len(report.errors()), len(report.warnings())
    if as_json:
        payload: dict = {
            "target": name,
            "analyzer": analyzer,
            "errors": errors,
            "warnings": warnings,
            "diagnostics": report.to_dicts(),
        }
        print(json.dumps(payload))
        return
    status = "FAIL" if errors else "ok"
    print(f"{name} [{analyzer}]: {status} ({errors} errors, {warnings} warnings, "
          f"{len(report)} total)")
    min_severity = Severity.WARNING if quiet else Severity.INFO
    for diagnostic in sorted(report, key=lambda d: -int(d.severity)):
        if diagnostic.severity >= min_severity:
            print(f"  {diagnostic.render()}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Shard-safety/determinism lint of task modules.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="Python modules (or directories) to shardlint",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="lint the experiment/fault packages (the CI configuration)",
    )
    parser.add_argument(
        "--fail-on-error", action="store_true",
        help="exit 1 when any ERROR diagnostic is produced (the default)",
    )
    parser.add_argument(
        "--fail-on-warning", action="store_true",
        help="exit 1 when any WARNING or ERROR diagnostic is produced",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON object per target instead of text",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress INFO diagnostics in the text output",
    )
    args = parser.parse_args(argv)
    if not args.paths and not args.all:
        parser.error("nothing to analyse: pass module paths or --all")

    from repro.analysis.shardlint import default_targets, lint_shard_file

    lint_paths: list[Path] = []
    if args.all:
        lint_paths.extend(default_targets())
    for path in args.paths:
        if path.is_dir():
            lint_paths.extend(sorted(path.glob("*.py")))
        else:
            lint_paths.append(path)

    worst = Severity.INFO
    internal_error = False

    def observe(report: DiagnosticReport) -> None:
        nonlocal worst
        if report.errors():
            worst = Severity.ERROR
        elif report.warnings() and worst is not Severity.ERROR:
            worst = Severity.WARNING

    for path in lint_paths:
        try:
            report = lint_shard_file(path)
        except OSError as exc:
            print(f"internal error: cannot read {path}: {exc}", file=sys.stderr)
            internal_error = True
            continue
        except Exception:
            print(f"internal error: shardlint crashed on {path}:", file=sys.stderr)
            traceback.print_exc()
            internal_error = True
            continue
        observe(report)
        _print_target(str(path), "shardlint", report, args.as_json, args.quiet)

    if internal_error:
        return 2
    if args.fail_on_warning and worst >= Severity.WARNING:
        return 1
    if worst is Severity.ERROR:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

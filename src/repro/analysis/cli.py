"""Command line for ``python -m repro.analysis``: every static analysis.

Each target is analysed without executing anything:

* a ``*.c`` path runs the mini-C kernel pipeline
  (:func:`analyze_kernel`): semantic lint, compile, list scheduling and
  schedule/context verification on the default fabric, then interval
  range analysis;
* any other path runs the shard-safety lint
  (:mod:`repro.analysis.shardlint`); a directory stands for its
  ``*.py`` files;
* ``--all`` covers the six built-in beam-model kernel variants (with
  :data:`BEAM_PARAM_BOUNDS`) and every experiment and fault task module
  (:func:`~repro.analysis.shardlint.default_targets`) — the CI gate.

One text block or (``--json``) one JSON object per target.  Exit
status: **0** no gate tripped, **1** an ERROR diagnostic (or, with
``--fail-on-warning``, a WARNING), **2** an internal analyzer error
(unreadable file, analyzer crash), which beats 1 — so tooling can tell
"the code is dirty" from "the analyzer is broken".
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
import traceback
from functools import partial
from pathlib import Path
from typing import Callable

from repro.cgra.verify import (
    DiagnosticReport,
    Severity,
    analyze_ranges,
    lint_source,
    verify_schedule,
)
from repro.errors import ReproError

__all__ = ["BEAM_PARAM_BOUNDS", "analyze_kernel", "main"]

#: Physically plausible ranges for the beam model's live-in parameters
#: (an SIS18-class heavy-ion synchrotron); used for the built-in kernels
#: so the range pass works with finite bounds where possible.
BEAM_PARAM_BOUNDS: dict[str, tuple[float, float]] = {
    "GAMMA_R0": (1.0, 25.0),
    "QMC2": (0.0, 1e-6),
    "L_R": (10.0, 1100.0),
    "ALPHA_C": (0.0, 1.0),
    "V_SCALE": (0.0, 1e6),
    "V_SCALE_REF": (0.0, 1e6),
    "F_SAMPLE": (1e6, 1e10),
    "H_INV": (1.0 / 64.0, 1.0),
}

#: A target's name and the analysis that produces its report.
Target = tuple[str, Callable[[], DiagnosticReport]]


def analyze_kernel(
    source: str, param_bounds: dict[str, tuple[float, float]] | None
) -> DiagnosticReport:
    """Run lint → compile → schedule → verify → ranges on one mini-C source
    (``param_bounds``: live-in parameter ranges for the range pass, None
    for unbounded)."""
    from repro.cgra.fabric import CgraConfig, CgraFabric
    from repro.cgra.frontend.lower import compile_c_to_dfg
    from repro.cgra.scheduler import ListScheduler

    report = DiagnosticReport()
    report.extend(lint_source(source))
    if not report.ok:
        return report  # semantic errors: the backend would only crash
    try:
        graph = compile_c_to_dfg(source)
        schedule = ListScheduler(CgraFabric(CgraConfig())).schedule(graph)
    except ReproError as exc:
        report.emit(Severity.ERROR, "schedule", "compile-failed", str(exc))
        return report
    report.extend(verify_schedule(schedule))
    report.extend(analyze_ranges(graph, param_bounds=param_bounds))
    return report


def _builtin_kernel(n_bunches: int, pipelined: bool) -> DiagnosticReport:
    from repro.cgra.models import beam_model_source

    source = beam_model_source(n_bunches=n_bunches, pipelined=pipelined)
    return analyze_kernel(source, BEAM_PARAM_BOUNDS)


def _kernel_file(path: Path) -> DiagnosticReport:
    return analyze_kernel(path.read_text(), None)


def _targets(paths: list[Path], builtins: bool) -> list[Target]:
    """The targets in run order: with ``builtins``, the six kernel
    variants and the task modules first; then ``paths``."""
    from repro.analysis.shardlint import default_targets, lint_shard_file

    targets: list[Target] = []
    if builtins:
        for n_bunches in (1, 4, 8):
            for pipelined in (True, False):
                name = f"beam_model[n={n_bunches},{'pipelined' if pipelined else 'plain'}]"
                targets.append((name, partial(_builtin_kernel, n_bunches, pipelined)))
        paths = [*default_targets(), *paths]
    for path in paths:
        for file in sorted(path.glob("*.py")) if path.is_dir() else [path]:
            run: Callable[[Path], DiagnosticReport] = (
                _kernel_file if file.suffix == ".c" else lint_shard_file
            )
            targets.append((str(file), partial(run, file)))
    return targets


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis of mini-C CGRA kernels (lint, schedule "
        "verify, range analysis) and shard-safety lint of task modules.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="mini-C kernels (*.c), Python modules, or directories of modules",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="every built-in beam-model kernel and every experiment/fault "
        "task module (the CI configuration)",
    )
    parser.add_argument(
        "--fail-on-warning", action="store_true",
        help="exit 1 on any WARNING too (an ERROR always exits 1)",
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
        parser.error("nothing to analyse: pass paths or --all")

    min_severity = Severity.WARNING if args.quiet else Severity.INFO
    dirty = internal_error = False
    for name, run in _targets(args.paths, args.all):
        try:
            report = run()
        except OSError as exc:
            print(f"internal error: cannot read {name}: {exc}", file=sys.stderr)
            internal_error = True
            continue
        except Exception:
            print(f"internal error: analyzer crashed on {name}:", file=sys.stderr)
            traceback.print_exc()
            internal_error = True
            continue
        errors, warnings = len(report.errors()), len(report.warnings())
        dirty = dirty or bool(errors) or (args.fail_on_warning and bool(warnings))
        if args.as_json:
            print(json.dumps({
                "target": name,
                "errors": errors,
                "warnings": warnings,
                "diagnostics": report.to_dicts(),
            }))
            continue
        status = "FAIL" if errors else "ok"
        print(f"{name}: {status} ({errors} errors, {warnings} warnings, "
              f"{len(report)} total)")
        print(textwrap.indent(report.format(min_severity), "  "))

    if internal_error:
        return 2
    return 1 if dirty else 0

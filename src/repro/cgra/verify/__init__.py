"""Static analysis of the CGRA compile pipeline (no execution needed).

Three passes, each reporting structured
:class:`~repro.cgra.verify.diagnostics.Diagnostic` records instead of
raising on the first problem:

* :func:`verify_context_images` / :func:`verify_schedule` /
  :func:`verify_modulo_schedule` — re-derive the legality of a schedule
  or context-image set directly from the dataflow graph and fabric
  (pass id ``"schedule"``);
* :func:`lint_source` / :func:`lint_program` — semantic linting of
  mini-C model sources with line/column positions (pass id ``"lint"``);
* :func:`analyze_ranges` — interval range analysis flagging overflow,
  division by zero and ±1 V DAC-window saturation (pass id ``"range"``).

``python -m repro.analysis`` runs the source-level passes over mini-C
files or the built-in kernels, and the shard-safety lint on the same
diagnostics machinery.
"""

from repro.cgra.verify.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    SourceLocation,
)
from repro.cgra.verify.linter import lint_program, lint_source
from repro.cgra.verify.range_analysis import Interval, analyze_ranges
from repro.cgra.verify.schedule_verifier import (
    verify_context_images,
    verify_modulo_schedule,
    verify_schedule,
)

__all__ = [
    "Severity",
    "SourceLocation",
    "Diagnostic",
    "DiagnosticReport",
    "verify_context_images",
    "verify_schedule",
    "verify_modulo_schedule",
    "lint_source",
    "lint_program",
    "analyze_ranges",
    "Interval",
]

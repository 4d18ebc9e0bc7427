"""Structured diagnostics shared by all static-analysis passes.

Every pass (schedule/context verifier, mini-C linter, range analysis)
reports findings as :class:`Diagnostic` records instead of raising on
the first problem — the analyses must be able to enumerate *all*
violations of a corrupted context set, the way a compiler lists every
error in a translation unit.  A :class:`DiagnosticReport` collects them,
offers severity filtering and a stable human-readable rendering, and
counts every appended record into the :mod:`repro.obs` metrics (label
set ``pass_id``/``severity``) when telemetry is enabled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import get_registry
from repro.obs._state import STATE as _OBS

__all__ = ["Severity", "SourceLocation", "Diagnostic", "DiagnosticReport"]

_DIAGNOSTICS = get_registry().counter(
    "cgra_verify_diagnostics_total", "diagnostics emitted by the static-analysis passes"
)


class Severity(enum.IntEnum):
    """Diagnostic severity; comparable (ERROR is the most severe)."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class SourceLocation:
    """A position in mini-C source: 1-based line, 1-based column (0 = unknown)."""

    line: int
    col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}" if self.col else str(self.line)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    Attributes
    ----------
    severity:
        ERROR marks a definite contract violation, WARNING a possible
        one, INFO a finding limited by missing information (e.g. an
        unbounded parameter making a range unprovable).
    pass_id:
        Which pass produced the record: ``"schedule"``, ``"lint"`` or
        ``"range"``.
    code:
        Stable machine-readable kebab-case identifier of the check.
    message:
        Human-readable explanation.
    location:
        Source position for frontend findings.
    node_id / pe / tick:
        Dataflow/placement coordinates for backend findings.
    """

    severity: Severity
    pass_id: str
    code: str
    message: str
    location: SourceLocation | None = None
    node_id: int | None = None
    pe: tuple[int, int] | None = None
    tick: int | None = None

    def render(self) -> str:
        """One-line rendering: ``error[schedule/pe-overlap] ...``."""
        where = []
        if self.location is not None:
            where.append(f"line {self.location}")
        if self.node_id is not None:
            where.append(f"node {self.node_id}")
        if self.pe is not None:
            where.append(f"PE {self.pe}")
        if self.tick is not None:
            where.append(f"tick {self.tick}")
        prefix = f"{self.severity}[{self.pass_id}/{self.code}]"
        loc = " " + ", ".join(where) if where else ""
        return f"{prefix}{loc}: {self.message}"

    def to_dict(self) -> dict:
        """JSON-friendly representation (CLI ``--json`` output).

        ``analyzer`` duplicates ``pass`` under the stable tooling-facing
        name; every diagnostic class carries both it and ``severity``.
        """
        out: dict = {
            "severity": str(self.severity),
            "pass": self.pass_id,
            "analyzer": self.pass_id,
            "code": self.code,
            "message": self.message,
        }
        if self.location is not None:
            out["line"] = self.location.line
            out["col"] = self.location.col
        if self.node_id is not None:
            out["node_id"] = self.node_id
        if self.pe is not None:
            out["pe"] = list(self.pe)
        if self.tick is not None:
            out["tick"] = self.tick
        return out


@dataclass
class DiagnosticReport:
    """Ordered collection of diagnostics from one or more passes."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> Diagnostic:
        """Append one record (and count it into the obs metrics)."""
        self.diagnostics.append(diagnostic)
        if _OBS.enabled:
            _DIAGNOSTICS.inc(
                severity=str(diagnostic.severity), pass_id=diagnostic.pass_id
            )
        return diagnostic

    def emit(
        self,
        severity: Severity,
        pass_id: str,
        code: str,
        message: str,
        **kw: Any,
    ) -> Diagnostic:
        """Construct and append in one call (keyword args as in :class:`Diagnostic`)."""
        return self.add(
            Diagnostic(severity=severity, pass_id=pass_id, code=code, message=message, **kw)
        )

    def extend(self, other: "DiagnosticReport") -> None:
        """Append every record of another report."""
        for d in other.diagnostics:
            self.add(d)

    # -- queries -------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        """All records of one severity."""
        return [d for d in self.diagnostics if d.severity is severity]

    def errors(self) -> list[Diagnostic]:
        """All ERROR records."""
        return self.by_severity(Severity.ERROR)

    def warnings(self) -> list[Diagnostic]:
        """All WARNING records."""
        return self.by_severity(Severity.WARNING)

    def codes(self) -> set[str]:
        """Distinct diagnostic codes present."""
        return {d.code for d in self.diagnostics}

    def has(self, code: str) -> bool:
        """Whether any record carries ``code`` (test convenience)."""
        return any(d.code == code for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """True when the report contains no ERROR records."""
        return not self.errors()

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        """Multi-line rendering, most severe first, stable within severity."""
        chosen = [d for d in self.diagnostics if d.severity >= min_severity]
        chosen.sort(key=lambda d: -int(d.severity))
        if not chosen:
            return f"no diagnostics at {min_severity} or above" if self else "no diagnostics"
        return "\n".join(d.render() for d in chosen)

    def to_dicts(self) -> list[dict]:
        """JSON-friendly list of all records."""
        return [d.to_dict() for d in self.diagnostics]

"""AST-based shard-safety/determinism lint for experiment task modules.

The parallel tier (:mod:`repro.parallel`) guarantees byte-identical
results regardless of worker count — but only if the task modules play
by the rules: seeds flow through :class:`numpy.random.SeedSequence`
spawns, results never embed wall-clock time, task payloads never capture
process-local CGRA handles (``_guard_value`` enforces this at runtime;
this pass is its *static* counterpart), and task dataclasses never share
mutable default state between shards.  ``shardlint`` checks those rules
without importing the module under analysis — pure :mod:`ast` walking
with import-alias tracking — and reports findings through the shared
:class:`~repro.cgra.verify.diagnostics.Diagnostic` machinery under pass
id ``"shardlint"``.

Rules
-----
``SHARD001`` (error)
    Unseeded global RNG: any ``np.random.*`` module-level function
    (the shared global ``RandomState``), ``numpy.random.default_rng()``
    / ``Generator``/bit-generator constructors called *without* a seed,
    and any stdlib ``random.*`` use (module-global Mersenne Twister or
    OS-entropy ``SystemRandom``).
``SHARD002`` (warning)
    Wall-clock read in a result path: ``time.time``/``time.time_ns``,
    ``datetime.datetime.now``/``utcnow``/``today``, ``datetime.date.today``.
    Monotonic duration clocks (``perf_counter``, ``monotonic``,
    ``process_time``, ``thread_time``) are fine — durations are
    measurements, not identities.
``SHARD003`` (error)
    Process-local CGRA/executor handle in a task payload: a dataclass
    field annotated with one of the handle types ``_guard_value``
    rejects at runtime (``CompiledModel``, ``Schedule``,
    ``ModuloSchedule``, ``CgraExecutor``, ``BatchedCgraExecutor``,
    ``CompiledProgram``).
``SHARD004`` (warning)
    Mutable default argument: a ``list``/``dict``/``set`` literal or
    zero-argument constructor as a function default or a dataclass field
    default (shared across every shard of a run).

Suppression: append ``# shardlint: disable=SHARD001`` (comma-separated
codes, or ``all``) to the flagged line.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.cgra.verify.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    SourceLocation,
)

__all__ = [
    "PASS_ID",
    "RULES",
    "HANDLE_TYPES",
    "lint_shard_source",
    "lint_shard_file",
    "default_targets",
]

#: Diagnostic pass id of this analysis.
PASS_ID = "shardlint"

#: Rule id → (severity, one-line summary).
RULES: dict[str, tuple[Severity, str]] = {
    "SHARD001": (Severity.ERROR, "unseeded global RNG"),
    "SHARD002": (Severity.WARNING, "wall-clock read in result path"),
    "SHARD003": (Severity.ERROR, "process-local CGRA handle in task payload"),
    "SHARD004": (Severity.WARNING, "mutable default argument"),
}

#: Handle types ``repro.parallel.pool._guard_value`` rejects at runtime
#: (plus ``CompiledProgram``, same per-process nature).
HANDLE_TYPES = frozenset({
    "CompiledModel",
    "CompiledProgram",
    "Schedule",
    "ModuloSchedule",
    "CgraExecutor",
    "BatchedCgraExecutor",
})

#: numpy.random constructors that are deterministic *when seeded*.
_SEEDABLE_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})

#: Monotonic/process clocks allowed in result paths.
_ALLOWED_CLOCKS = frozenset({
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
})

_WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_SUPPRESS_RE = re.compile(r"#\s*shardlint:\s*disable=([A-Za-z0-9_,\s]+)")


def _suppressions(source: str) -> dict[int, set[str]]:
    """Line number → set of suppressed rule ids (or ``{"all"}``)."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            codes = {c.strip().upper() for c in match.group(1).split(",") if c.strip()}
            out[lineno] = {"ALL" if c == "ALL" else c for c in codes}
    return out


class _Aliases(ast.NodeVisitor):
    """Collect import aliases so dotted uses resolve to canonical names."""

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.names[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never shadow numpy/random/time
        for alias in node.names:
            self.names[alias.asname or alias.name] = f"{node.module}.{alias.name}"


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve ``np.random.default_rng`` → ``"numpy.random.default_rng"``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray") and not (
            node.args or node.keywords
        )
    return False


def _annotation_handles(node: ast.AST) -> set[str]:
    """Handle-type names mentioned anywhere in an annotation expression."""
    found: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in HANDLE_TYPES:
            found.add(child.id)
        elif isinstance(child, ast.Attribute) and child.attr in HANDLE_TYPES:
            found.add(child.attr)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            for handle in HANDLE_TYPES:  # string annotations
                if re.search(rf"\b{handle}\b", child.value):
                    found.add(handle)
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name == "dataclass":
            return True
    return False


class _ShardLinter(ast.NodeVisitor):
    def __init__(self, aliases: dict[str, str], report: DiagnosticReport,
                 suppressed: dict[int, set[str]]) -> None:
        self.aliases = aliases
        self.report = report
        self.suppressed = suppressed

    def flag(self, code: str, message: str, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 0)
        rules = self.suppressed.get(lineno, set())
        if code in rules or "ALL" in rules:
            return
        severity, summary = RULES[code]
        self.report.add(
            Diagnostic(
                severity=severity,
                pass_id=PASS_ID,
                code=code,
                message=f"{summary}: {message}",
                location=SourceLocation(
                    line=lineno, col=getattr(node, "col_offset", -1) + 1
                ),
            )
        )

    # -- SHARD001 / SHARD002 -------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func, self.aliases)
        if dotted is not None:
            self._check_rng(dotted, node)
            self._check_clock(dotted, node)
        self.generic_visit(node)

    def _check_rng(self, dotted: str, node: ast.Call) -> None:
        if dotted.startswith("numpy.random."):
            tail = dotted.split(".", 2)[2]
            if tail in _SEEDABLE_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    self.flag(
                        "SHARD001",
                        f"{dotted}() without a seed draws OS entropy — pass a "
                        "shard seed from repro.parallel.seeding.shard_seeds",
                        node,
                    )
            else:
                self.flag(
                    "SHARD001",
                    f"{dotted} uses numpy's process-global RandomState — use a "
                    "seeded Generator per task instead",
                    node,
                )
        elif dotted == "random" or dotted.startswith("random."):
            tail = dotted.partition(".")[2]
            if tail == "Random":
                if not node.args and not node.keywords:
                    self.flag(
                        "SHARD001",
                        "random.Random() without a seed draws OS entropy",
                        node,
                    )
            elif tail == "SystemRandom":
                self.flag(
                    "SHARD001",
                    "random.SystemRandom is OS entropy — never reproducible",
                    node,
                )
            elif tail:
                self.flag(
                    "SHARD001",
                    f"stdlib random.{tail} uses the process-global Mersenne "
                    "Twister — use a seeded generator per task",
                    node,
                )

    def _check_clock(self, dotted: str, node: ast.Call) -> None:
        if dotted in _ALLOWED_CLOCKS:
            return
        if dotted in _WALL_CLOCKS:
            self.flag(
                "SHARD002",
                f"{dotted}() is nondeterministic across runs and shards — use "
                "time.perf_counter for durations or stamp results at merge time",
                node,
            )

    # -- SHARD003 / SHARD004 -------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    for handle in sorted(_annotation_handles(stmt.annotation)):
                        self.flag(
                            "SHARD003",
                            f"dataclass {node.name}.{self._field_name(stmt)} is "
                            f"annotated {handle} — process-local handles do not "
                            "survive pickling to workers (rebuild from plain "
                            "data inside the shard; see parallel.pool._guard_value)",
                            stmt,
                        )
                    if stmt.value is not None and _is_mutable_default(stmt.value):
                        self.flag(
                            "SHARD004",
                            f"dataclass {node.name}.{self._field_name(stmt)} has "
                            "a mutable default shared across shards — use "
                            "dataclasses.field(default_factory=...)",
                            stmt,
                        )
        self.generic_visit(node)

    @staticmethod
    def _field_name(stmt: ast.AnnAssign) -> str:
        return stmt.target.id if isinstance(stmt.target, ast.Name) else "<field>"

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                self.flag(
                    "SHARD004",
                    f"function {node.name!r} has a mutable default argument "
                    "shared between calls (and shards)",
                    default,
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def lint_shard_source(source: str, filename: str = "<source>") -> DiagnosticReport:
    """Lint one module's source text; returns the diagnostic report."""
    report = DiagnosticReport()
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report.emit(
            Severity.ERROR, PASS_ID, "syntax-error",
            f"cannot parse {filename}: {exc.msg}",
            location=SourceLocation(line=exc.lineno or 0, col=exc.offset or 0),
        )
        return report
    aliases = _Aliases()
    aliases.visit(tree)
    _ShardLinter(aliases.names, report, _suppressions(source)).visit(tree)
    return report


def lint_shard_file(path: Path | str) -> DiagnosticReport:
    """Lint one module by path (read errors raise ``OSError``)."""
    path = Path(path)
    return lint_shard_source(path.read_text(), filename=str(path))


def default_targets() -> list[Path]:
    """The modules the CI gate lints: experiments + faults packages."""
    import repro.experiments
    import repro.faults

    targets: list[Path] = []
    for package in (repro.experiments, repro.faults):
        root = Path(package.__file__).parent
        targets.extend(sorted(root.glob("*.py")))
    return targets

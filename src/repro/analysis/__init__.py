"""``repro.analysis`` — whole-program static analysis front end.

:mod:`repro.analysis.shardlint` is an AST-based shard-safety/determinism
lint of the experiment/fault task modules (pass id ``"shardlint"``,
rules ``SHARD001``–``SHARD004``), the static counterpart of the runtime
``_guard_value`` check in :mod:`repro.parallel.pool`.  It reports
through the :mod:`repro.cgra.verify` diagnostics machinery, as the
mini-C kernel passes do.

``python -m repro.analysis`` (:mod:`repro.analysis.cli`) is the one
static-analysis command line: ``*.c`` kernels run the
:mod:`repro.cgra.verify` passes, Python modules run shardlint, and
``--all`` covers the built-in kernels and every task module.  Exit
status: 0 clean, 1 diagnostics tripped a gate, 2 internal analyzer
error.
"""

from repro.analysis.shardlint import (
    HANDLE_TYPES,
    RULES,
    default_targets,
    lint_shard_file,
    lint_shard_source,
)

__all__ = [
    "RULES",
    "HANDLE_TYPES",
    "lint_shard_source",
    "lint_shard_file",
    "default_targets",
]

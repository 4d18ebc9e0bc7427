"""Python modules through the ``python -m repro.analysis`` CLI (shardlint):
output shape and exit codes; ``tests/cgra/test_lint_cli.py`` covers kernels."""

import json

import pytest

from repro.analysis import default_targets
from repro.analysis.cli import main

BAD_MODULE = """\
import random
import time

def shard(task):
    jitter = random.random()
    return {"stamp": time.time(), "jitter": jitter}
"""

CLEAN_MODULE = """\
import numpy as np

def shard(task):
    rng = np.random.default_rng(task.seed)
    return {"value": float(rng.normal())}
"""

BUILTIN_KERNELS = [
    f"beam_model[n={n},{kind}]" for n in (1, 4, 8) for kind in ("pipelined", "plain")
]


class TestExitCodes:
    def test_clean_module_exits_zero(self, tmp_path):
        f = tmp_path / "clean.py"
        f.write_text(CLEAN_MODULE)
        assert main([str(f)]) == 0

    def test_errors_exit_one(self, tmp_path):
        f = tmp_path / "bad.py"
        f.write_text(BAD_MODULE)
        assert main([str(f)]) == 1

    def test_warning_gate(self, tmp_path):
        f = tmp_path / "warn.py"
        f.write_text("import time\nstamp = time.time()\n")
        assert main([str(f)]) == 0  # warnings pass by default
        assert main([str(f), "--fail-on-warning"]) == 1

    def test_missing_file_is_internal_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_internal_error_wins_over_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_MODULE)
        assert main([str(bad), str(tmp_path / "nope.py")]) == 2

    def test_no_target_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])


class TestJsonOutput:
    def test_per_target_payload(self, tmp_path, capsys):
        f = tmp_path / "bad.py"
        f.write_text(BAD_MODULE)
        main([str(f), "--json"])
        payload = json.loads(capsys.readouterr().out.strip())
        assert set(payload) == {"target", "errors", "warnings", "diagnostics"}
        assert payload["target"] == str(f)
        assert payload["errors"] == 1 and payload["warnings"] == 1
        for d in payload["diagnostics"]:
            assert d["analyzer"] == "shardlint"
            assert d["severity"] in ("error", "warning")
            assert d["code"].startswith("SHARD")
            assert "line" in d

    def test_directory_target(self, tmp_path, capsys):
        (tmp_path / "a.py").write_text(CLEAN_MODULE)
        (tmp_path / "b.py").write_text(BAD_MODULE)
        assert main([str(tmp_path), "--json"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2


class TestAllSweep:
    def test_all_is_clean(self, capsys):
        """The CI gate: the built-in kernels, then every task module —
        no error and no warning, exit 0."""
        assert main(["--all", "--fail-on-warning", "--json"]) == 0
        payloads = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert [p["target"] for p in payloads] == BUILTIN_KERNELS + [
            str(t) for t in default_targets()
        ]
        analyzers = {d["analyzer"] for p in payloads for d in p["diagnostics"]}
        assert analyzers <= {"lint", "schedule", "range", "shardlint"}

    def test_module_entrypoint(self):
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--all", "-q"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr

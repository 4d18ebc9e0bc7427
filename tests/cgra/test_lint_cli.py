"""Mini-C kernels (``*.c``) through the ``python -m repro.analysis`` CLI:
lint → compile → schedule → verify → ranges, with its exit codes and JSON."""

import json

import pytest

from repro.analysis.cli import main

GOOD = """
void k() {
    float s = 0.0;
    while (1) {
        float v = read_sensor(0);
        write_actuator(16, s);
        s = s + v * 0.5;
    }
}
"""

BAD_SEMANTIC = """
void k() {
    while (1) {
        write_actuator(16, undefined_name);
    }
}
"""

BAD_RANGE = """
void k() {
    while (1) {
        float v = read_sensor(0);
        write_actuator(16, v * 0.01 + 3.0);
    }
}
"""


class TestCli:
    def test_all_builtins_exit_zero(self, capsys):
        assert main(["--all"]) == 0
        out = capsys.readouterr().out
        assert "beam_model[n=8,pipelined]" in out
        assert "FAIL" not in out

    def test_good_file_exits_zero(self, tmp_path):
        f = tmp_path / "good.c"
        f.write_text(GOOD)
        assert main([str(f)]) == 0

    def test_bad_semantic_file_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "bad.c"
        f.write_text(BAD_SEMANTIC)
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "use-before-def" in out

    def test_bad_range_file_exits_nonzero(self, tmp_path, capsys):
        f = tmp_path / "sat.c"
        f.write_text(BAD_RANGE)
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "dac-saturation" in out

    def test_json_output(self, tmp_path, capsys):
        f = tmp_path / "bad.c"
        f.write_text(BAD_SEMANTIC)
        main([str(f), "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["target"] == str(f)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert "use-before-def" in codes

    def test_json_carries_analyzer_and_severity_everywhere(self, tmp_path, capsys):
        """Every kernel diagnostic names its analyzer and severity in --json."""
        files = []
        for name, src in (("bad.c", BAD_SEMANTIC), ("sat.c", BAD_RANGE)):
            f = tmp_path / name
            f.write_text(src)
            files.append(str(f))
        main([*files, "--json", "--all"])
        payloads = [
            json.loads(line) for line in capsys.readouterr().out.strip().splitlines()
        ]
        # --all also lints the task modules; only kernel targets are checked here.
        kernels = [
            p for p in payloads
            if p["target"].startswith("beam_model") or p["target"] in files
        ]
        assert len(kernels) == 6 + len(files)
        diags = [d for p in kernels for d in p["diagnostics"]]
        assert diags, "expected diagnostics across the targets"
        for d in diags:
            assert d["analyzer"] in ("lint", "schedule", "range")
            assert d["analyzer"] == d["pass"]
            assert d["severity"] in ("info", "warning", "error")
        # Error and warning counts are surfaced per target.
        assert all("errors" in p and "warnings" in p for p in payloads)
        assert {d["analyzer"] for d in diags} >= {"lint", "range"}

    def test_fail_on_warning(self, tmp_path):
        f = tmp_path / "warn.c"
        f.write_text(
            """
void k() {
    float unused = 1.0;
    while (1) {
        write_actuator(16, read_sensor(0));
    }
}
"""
        )
        assert main([str(f)]) == 0
        assert main([str(f), "--fail-on-warning"]) == 1

    def test_missing_file_is_internal_error(self, tmp_path, capsys):
        """Unreadable input is an analyzer problem (2), not 'found bugs' (1)."""
        assert main([str(tmp_path / "nope.c")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_internal_error_beats_dirty_exit(self, tmp_path, capsys):
        """Diagnostics + a broken target: exit 2 wins so CI surfaces the crash."""
        bad = tmp_path / "bad.c"
        bad.write_text(BAD_SEMANTIC)
        assert main([str(bad), str(tmp_path / "nope.c")]) == 2
        captured = capsys.readouterr()
        assert "use-before-def" in captured.out
        assert "cannot read" in captured.err

    def test_diagnostics_found_still_exit_one(self, tmp_path):
        """An ERROR exits 1 without any flag."""
        bad = tmp_path / "bad.c"
        bad.write_text(BAD_SEMANTIC)
        assert main([str(bad)]) == 1

    def test_no_target_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_module_entrypoint(self):
        """The CI gate, run as a module: every built-in kernel passes."""
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--all", "--fail-on-warning", "-q"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "beam_model[n=8,pipelined]: ok" in proc.stdout
        assert "FAIL" not in proc.stdout

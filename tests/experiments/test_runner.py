"""Tests for the CLI experiment runner."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import EXPERIMENTS, main, run_experiment


class TestRunExperiment:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_experiment("nope", tmp_path)

    def test_fig1_writes_csvs(self, tmp_path):
        summary = run_experiment("fig1", tmp_path, quick=True)
        assert (tmp_path / "fig1_voltage.csv").exists()
        assert (tmp_path / "fig1_particles.csv").exists()
        assert summary

    def test_fig2_csv_parses(self, tmp_path):
        run_experiment("fig2", tmp_path, quick=True)
        data = np.loadtxt(tmp_path / "fig2_signals.csv", delimiter=",", skiprows=1)
        assert data.shape[1] == 4
        assert data.shape[0] > 100

    def test_schedule_csv_content(self, tmp_path):
        run_experiment("schedule", tmp_path, quick=True)
        data = np.loadtxt(tmp_path / "schedule_lengths.csv", delimiter=",", skiprows=1)
        assert data.shape == (4, 5)
        # pipelined 8-bunch row shorter than plain 8-bunch row.
        plain = data[(data[:, 0] == 8) & (data[:, 1] == 0)][0]
        piped = data[(data[:, 0] == 8) & (data[:, 1] == 1)][0]
        assert piped[2] < plain[2]

    def test_creates_output_dir(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        run_experiment("reconfig", target, quick=True)
        assert (target / "reconfig.csv").exists()

    def test_rampup_quick_exits_zero(self, tmp_path):
        """A quick run is a feasible ramp (a shortened one is not)."""
        assert main(["rampup", "--quick", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rampup.csv").exists()


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "fig5a" in capsys.readouterr().out

    def test_run_one_logs_to_stderr(self, tmp_path, capsys):
        assert main(["fig1", "--out", str(tmp_path), "--quick"]) == 0
        captured = capsys.readouterr()
        assert "[fig1] done" in captured.err
        # Progress is logging-only: stdout stays clean for --list piping.
        assert captured.out == ""

    def test_list_stays_on_stdout(self, capsys):
        assert main(["--list"]) == 0
        captured = capsys.readouterr()
        assert "fig5a" in captured.out
        assert "fig5a" not in captured.err

    def test_verbose_enables_debug(self, tmp_path, capsys):
        assert main(["fig1", "--out", str(tmp_path), "--quick", "--verbose"]) == 0
        assert "starting fig1" in capsys.readouterr().err

    def test_unknown_experiment_exit_code(self, tmp_path, capsys):
        assert main(["bogus", "--out", str(tmp_path)]) == 2
        assert "ERROR" in capsys.readouterr().err

    def test_module_entrypoint_loads_runner_once(self):
        """``python -m repro.experiments.runner`` must not import the
        runner as a package member first: runpy would then warn that it
        is found in sys.modules and run a second copy as __main__."""
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments.runner", "--list"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "fig5a" in proc.stdout


class TestTelemetryFlags:
    def test_metrics_writes_snapshot_and_report(self, tmp_path, capsys):
        assert main(["fig5a", "--out", str(tmp_path), "--quick", "--metrics"]) == 0
        assert (tmp_path / "fig5a_metrics.json").exists()
        assert (tmp_path / "fig5a_metrics.csv").exists()
        assert (tmp_path / "fig5a_report.json").exists()
        assert not (tmp_path / "fig5a_trace.jsonl").exists()

    def test_trace_writes_jsonl_and_report_has_percentiles(self, tmp_path):
        import json

        assert main(["fig5a", "--out", str(tmp_path), "--quick", "--trace"]) == 0
        assert (tmp_path / "fig5a_trace.jsonl").exists()
        (report,) = json.loads((tmp_path / "fig5a_report.json").read_text())
        assert report["deadline_misses"] == 0
        assert report["slack_ticks"]["p50"] > 0
        assert report["slack_ticks"]["p99"] > 0
        snapshot = json.loads((tmp_path / "fig5a_metrics.json").read_text())
        assert snapshot["hil_slack_ticks"]["series"][""]["count"] > 0

    def test_telemetry_disabled_after_run(self, tmp_path):
        from repro import obs

        assert main(["fig1", "--out", str(tmp_path), "--quick", "--metrics"]) == 0
        assert not obs.enabled()


class TestProfileAndTraceOut:
    def test_trace_out_writes_single_span_tree(self, tmp_path, capsys):
        from repro.obs.view import load_trace

        trace_path = tmp_path / "session_trace.json"
        assert main(["fig1", "--out", str(tmp_path), "--quick",
                     "--trace-out", str(trace_path)]) == 0
        assert "perfetto trace" in capsys.readouterr().err
        spans = load_trace(trace_path)
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["experiment.fig1"]
        assert len({s["trace_id"] for s in spans}) == 1
        # --trace-out implies --trace: per-experiment JSONL also written.
        assert (tmp_path / "fig1_trace.jsonl").exists()

    def test_trace_out_is_fresh_per_invocation(self, tmp_path):
        from repro.obs.view import load_trace

        trace_path = tmp_path / "t.json"
        assert main(["fig1", "--out", str(tmp_path), "--quick",
                     "--trace-out", str(trace_path)]) == 0
        # A later invocation overwrites: the file covers one session.
        assert main(["schedule", "--out", str(tmp_path), "--quick",
                     "--trace-out", str(trace_path)]) == 0
        spans = load_trace(trace_path)
        assert {s["name"] for s in spans if s["parent_id"] is None} == {
            "experiment.schedule"
        }

    def test_view_cli_reads_runner_output(self, tmp_path, capsys):
        from repro.obs.view import main as view_main

        trace_path = tmp_path / "t.json"
        assert main(["fig1", "--out", str(tmp_path), "--quick",
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert view_main([str(trace_path)]) == 0
        assert "experiment.fig1" in capsys.readouterr().out

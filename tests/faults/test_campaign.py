"""Campaign tests: plan purity, end-to-end outcomes, containment, CSV
byte-identity across job counts and engines, runner integration.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from repro.errors import FaultSpecError
from repro.faults.campaign import (
    KIND_CODES,
    MAGNITUDE_LADDER,
    CampaignConfig,
    CampaignResult,
    _subsample,
    campaign_grid,
    plan_campaign,
    run_campaign,
)
from repro.faults.inject import LOOP_KINDS
from repro.faults.report import Outcome
from repro.faults.spec import MAGNITUDE_WINDOWS, FaultKind, FaultSpec
from repro.experiments.runner import main


@pytest.fixture(scope="module")
def quick_result():
    """One shared quick campaign (mildest rung, one onset, per kind)."""
    return run_campaign(CampaignConfig.quick())


class TestGrid:
    def test_grid_is_deterministic(self):
        config = CampaignConfig()
        assert campaign_grid(config) == campaign_grid(config)

    def test_ladders_stay_inside_spec_windows(self):
        for kind, ladder in MAGNITUDE_LADDER.items():
            lo, hi, integral = MAGNITUDE_WINDOWS[kind]
            for rung in ladder:
                assert lo <= rung <= hi, (kind, rung)
                if integral:
                    assert rung == int(rung), (kind, rung)

    def test_subsample_keeps_mildest_and_endpoints(self):
        ladder = (1.0, 2.0, 3.0, 4.0)
        assert _subsample(ladder, 1) == (1.0,)
        assert _subsample(ladder, 2) == (1.0, 4.0)
        assert _subsample(ladder, 4) == ladder

    def test_every_kind_is_swept(self):
        grid = campaign_grid(CampaignConfig.quick())
        assert {s.kind for s in grid} == set(FaultKind)

    def test_context_kind_sweeps_single_onset(self):
        grid = campaign_grid(CampaignConfig(onset_times=(0.02, 0.05)))
        onsets = {
            s.onset_time
            for s in grid
            if s.kind is FaultKind.CGRA_CONTEXT_CORRUPTION
        }
        assert onsets == {0.02}

    def test_seeds_are_positional_children_of_base_seed(self):
        from repro.parallel.seeding import shard_seeds

        config = CampaignConfig.quick()
        grid = campaign_grid(config)
        expected = shard_seeds(config.base_seed, len(grid))
        assert [s.seed for s in grid] == list(expected)
        # A different root reseeds every scenario.
        other = campaign_grid(dataclasses.replace(config, base_seed=7))
        assert all(a.seed != b.seed for a, b in zip(grid, other))

    def test_config_validation(self):
        for duration in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(FaultSpecError, match="^duration"):
                CampaignConfig(duration=duration)
            with pytest.raises(FaultSpecError, match="^fault_duration"):
                CampaignConfig(fault_duration=duration)
        with pytest.raises(FaultSpecError, match="onset"):
            CampaignConfig(onset_times=(0.5,), duration=0.1)
        for count in (0, 99, 1.5):
            with pytest.raises(FaultSpecError, match="^magnitudes_per_kind"):
                CampaignConfig(magnitudes_per_kind=count)
        for seed in (-1, 1.5):
            with pytest.raises(FaultSpecError, match="^base_seed"):
                CampaignConfig(base_seed=seed)


class TestPlan:
    def test_baseline_first_and_chunking(self):
        config = CampaignConfig()
        scenarios, tasks = plan_campaign(config)
        assert tasks[0].indices[0] == -1 and tasks[0].specs[0] is None
        # The baseline once, then every loop scenario once, grid order.
        assert [i for t in tasks for i in t.indices] == [-1] + [
            i for i, s in enumerate(scenarios) if s.kind in LOOP_KINDS
        ]
        for task in tasks:
            for lane, index in enumerate(task.indices):
                # Spec j runs on lane j of its shard.
                expected = None if index == -1 else scenarios[index]
                assert task.specs[lane] == expected
        assert [len(t.indices) for t in tasks] == [8, 8, 8, 5]
        _, quick_tasks = plan_campaign(CampaignConfig.quick())
        assert [len(t.indices) for t in quick_tasks] == [8]

    def test_plan_is_independent_of_jobs(self):
        """The shard plan is a pure function of the config — the chunk
        size is a module constant, never a worker count."""
        config = CampaignConfig()
        assert plan_campaign(config)[1] == plan_campaign(config)[1]


class TestEndToEndOutcomes:
    """Every FaultKind classified end-to-end (acceptance criterion)."""

    def _outcome(self, result, kind):
        outcomes = [
            r.outcome
            for s, r in zip(result.scenarios, result.reports)
            if s.kind is kind
        ]
        assert outcomes, f"no scenario for {kind}"
        return outcomes

    @pytest.mark.parametrize(
        "kind",
        [k for k in FaultKind if k is not FaultKind.CGRA_CONTEXT_CORRUPTION],
    )
    def test_mild_rung_recovers(self, quick_result, kind):
        assert self._outcome(quick_result, kind) == [Outcome.RECOVERED]

    def test_context_corruption_detected_by_verifier(self, quick_result):
        assert self._outcome(
            quick_result, FaultKind.CGRA_CONTEXT_CORRUPTION
        ) == [Outcome.DETECTED]

    def test_severe_rungs_go_unstable(self):
        """Severe microphonics / detuning / DDS rungs destabilise the
        loop — run as lanes of one batched bench against lane 0."""
        from repro.faults.engine import run_fault_lanes
        from repro.faults.report import classify_trace

        severe = [
            FaultSpec(kind=FaultKind.MICROPHONIC_DETUNING, magnitude=60.0,
                      onset_time=0.02, duration=0.02, seed=11),
            FaultSpec(kind=FaultKind.DETUNING_TRANSIENT, magnitude=25.0,
                      onset_time=0.02, duration=0.02),
            FaultSpec(kind=FaultKind.DDS_PHASE_GLITCH, magnitude=math.pi / 2,
                      onset_time=0.02, duration=0.02),
        ]
        times, phase, _ = run_fault_lanes((None, *severe), 0.08)
        for lane, spec in enumerate(severe, start=1):
            report = classify_trace(times, phase[:, lane], phase[:, 0], spec)
            assert report.outcome is Outcome.UNSTABLE, spec.kind
            assert report.max_excursion_deg > 60.0

    def test_quick_summary_and_counts(self, quick_result):
        counts = quick_result.outcome_counts()
        assert counts[Outcome.RECOVERED] == 7
        assert counts[Outcome.DETECTED] == 1
        lines = quick_result.summary_lines()
        assert any("8 scenarios" in line for line in lines)
        assert any("worst excursion" in line for line in lines)

    def test_quick_campaign_counts_its_revolutions(self, quick_result):
        # 0.08 s at 800 kHz; the initial record is not a revolution.
        assert quick_result.n_turns == 64000

    def test_fault_lanes_report_the_revolutions_they_ran(self):
        from repro.faults.engine import run_fault_lanes

        times, _, n_turns = run_fault_lanes((None,), 0.001)
        assert len(times) == 101
        assert n_turns == 800

    def test_csv_columns_match_header(self, quick_result):
        cols = quick_result.csv_columns()
        names = CampaignResult.CSV_HEADER.split(",")
        assert len(cols) == len(names)
        n = len(quick_result.scenarios)
        assert all(c.shape == (n,) for c in cols)
        by_name = dict(zip(names, cols))
        assert list(by_name["scenario"]) == list(range(n))
        context_rows = by_name["kind_code"] == KIND_CODES[
            FaultKind.CGRA_CONTEXT_CORRUPTION
        ]
        np.testing.assert_array_equal(by_name["detected"][context_rows], 1.0)
        np.testing.assert_array_equal(by_name["detected"][~context_rows], 0.0)
        assert np.isnan(by_name["settle_s"][context_rows]).all()


#: The lanes of ``TestContainment.CONFIG``'s one shard: the baseline,
#: then each loop kind's one scenario.
SHARD_LANES = (
    "baseline, cavity_failure/m0/t0, microphonic_detuning/m0/t0, "
    "amplifier_saturation/m0/t0, detuning_transient/m0/t0, "
    "adc_stuck_bit/m0/t0, dac_clipping/m0/t0, dds_phase_glitch/m0/t0"
)


class TestContainment:
    """A poisoned shard is retried lane-by-lane; a scenario that still
    fails classifies FAILED without killing the campaign."""

    CONFIG = CampaignConfig(
        duration=0.02,
        onset_times=(0.005,),
        magnitudes_per_kind=1,
        fault_duration=0.005,
    )

    def test_shard_failure_is_retried_single_lane(self, monkeypatch):
        """The poisoned shard also holds the baseline.  Every lane is
        retried alone, and gives the bits it gave in its shard."""
        import repro.faults.campaign as campaign_mod

        clean = run_campaign(self.CONFIG)
        scenarios = campaign_grid(self.CONFIG)
        poisoned = next(
            i for i, s in enumerate(scenarios)
            if s.kind is FaultKind.DDS_PHASE_GLITCH
        )
        real_shard = campaign_mod.run_campaign_shard

        def flaky_shard(task):
            if len(task.indices) > 1 and poisoned in task.indices:
                raise RuntimeError("poisoned shard")
            return real_shard(task)

        monkeypatch.setattr(campaign_mod, "run_campaign_shard", flaky_shard)
        result = run_campaign(self.CONFIG)
        # Every lane of the failed shard was retried; all classified.
        assert poisoned in result.retried
        assert -1 in result.retried
        assert len(result.reports) == len(scenarios)
        assert all(
            r.outcome is not Outcome.FAILED for r in result.reports
        )
        for got, want in zip(result.csv_columns(), clean.csv_columns(), strict=True):
            np.testing.assert_array_equal(got, want)
        # The reason the shard failed reaches the result and its summary,
        # with the lanes the shard carried.
        assert result.failures == (
            f"{SHARD_LANES} (flaky_shard): RuntimeError: poisoned shard",
        )
        lines = result.summary_lines()
        retried_at = next(i for i, line in enumerate(lines) if line.startswith("retried"))
        assert lines[retried_at + 1] == f"failed: {result.failures[0]}"

    def test_scenario_failing_retry_classifies_failed(self, monkeypatch):
        import repro.faults.campaign as campaign_mod

        scenarios = campaign_grid(self.CONFIG)
        poisoned = next(
            i for i, s in enumerate(scenarios)
            if s.kind is FaultKind.ADC_STUCK_BIT
        )
        real_shard = campaign_mod.run_campaign_shard

        def poisoned_shard(task):
            if poisoned in task.indices:
                raise RuntimeError("always fails")
            return real_shard(task)

        monkeypatch.setattr(campaign_mod, "run_campaign_shard", poisoned_shard)
        result = run_campaign(self.CONFIG)
        report = result.reports[poisoned]
        assert report.outcome is Outcome.FAILED
        assert math.isnan(report.settle_s)
        # The shard and the lane's own retry each say why they failed,
        # the retry by the scenario it ran.
        assert result.failures == (
            f"{SHARD_LANES} (poisoned_shard): RuntimeError: always fails",
            "adc_stuck_bit/m0/t0 (poisoned_shard): RuntimeError: always fails",
        )
        # Shard-mates of the poisoned scenario still classified.
        others = [
            r
            for i, r in enumerate(result.reports)
            if i != poisoned and result.scenarios[i].kind in LOOP_KINDS
        ]
        assert all(r.outcome is not Outcome.FAILED for r in others)

    def test_detection_failure_classifies_failed(self, monkeypatch):
        import repro.faults.engine as engine_mod

        def broken_verifier(spec):
            raise RuntimeError("verifier down")

        monkeypatch.setattr(engine_mod, "detect_context_corruption", broken_verifier)
        result = run_campaign(self.CONFIG)
        for spec, report in zip(result.scenarios, result.reports):
            if spec.kind in LOOP_KINDS:
                assert report.outcome is not Outcome.FAILED, spec.label
                continue
            assert report.outcome is Outcome.FAILED
            assert math.isnan(report.settle_s)
            assert math.isnan(report.max_excursion_deg)
            assert math.isnan(report.final_error_deg)
        assert result.failures == tuple(
            f"detection {spec.label}: RuntimeError: verifier down"
            for spec in result.scenarios if spec.kind not in LOOP_KINDS
        )

    def test_baseline_failure_raises(self, monkeypatch):
        import repro.faults.campaign as campaign_mod

        def dead_shard(task):
            raise RuntimeError("no baseline")

        monkeypatch.setattr(campaign_mod, "run_campaign_shard", dead_shard)
        with pytest.raises(Exception, match="faults baseline"):
            run_campaign(self.CONFIG)


#: sha256 of ``runner faults --quick``'s faults_campaign.csv.
FAULTS_QUICK_SHA256 = "df9fff630397b43f7b5ab5f9fcce6be056451aa741c125dfef0ac387521389cb"


class TestByteIdentity:
    """Acceptance criteria: identical CSVs across --jobs and engines."""

    def test_runner_csv_identical_across_jobs(self, quick_result, tmp_path):
        """The ``faults --quick`` CSV is pinned by digest, inline (the
        shared quick campaign written the way the runner writes it) and
        through the runner on two workers.  Recorded on x86-64 with
        NumPy 2.4; a platform whose ``np.sin`` rounds differently will
        disagree here.  A deliberate model change needs a new digest and
        a line in CHANGES.md saying why."""
        from repro.experiments.runner import _write_csv

        inline = tmp_path / "jobs1.csv"
        _write_csv(inline, CampaignResult.CSV_HEADER, quick_result.csv_columns())
        pooled = tmp_path / "jobs2"
        assert main(["faults", "--out", str(pooled), "--quick", "--jobs", "2"]) == 0
        for jobs, path in (("1", inline), ("2", pooled / "faults_campaign.csv")):
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            assert got == FAULTS_QUICK_SHA256, f"--jobs {jobs}"


class TestRunnerFaultsFlag:
    """``--faults path.json`` arms ad-hoc faults on fig5a's bench, which
    gets them in its shard item; every other experiment refuses them
    before anything runs."""

    def _payload(self, tmp_path, target=0):
        spec = FaultSpec(
            kind=FaultKind.CAVITY_FAILURE,
            magnitude=0.6,
            onset_time=0.001,
            target=target,
            label="adhoc",
        )
        path = tmp_path / f"faults{target}.json"
        path.write_text(json.dumps([spec.to_dict()]))
        return path

    def test_armed_faults_perturb_fig5a(self, tmp_path):
        clean_out, faulted_out = tmp_path / "clean", tmp_path / "faulted"
        assert main(["fig5a", "--out", str(clean_out), "--quick"]) == 0
        assert main(
            [
                "fig5a",
                "--out", str(faulted_out),
                "--quick",
                "--faults", str(self._payload(tmp_path)),
            ]
        ) == 0
        clean = (clean_out / "fig5a_phase.csv").read_bytes()
        faulted = (faulted_out / "fig5a_phase.csv").read_bytes()
        assert clean != faulted

    def test_faulted_fig5a_identical_across_job_counts(self, tmp_path):
        """The faults travel in the shard item, so a worker's bench runs
        the same faults as the inline one."""
        payload = str(self._payload(tmp_path))
        for jobs in ("1", "2"):
            assert main(["fig5a", "--out", str(tmp_path / jobs), "--quick",
                         "--jobs", jobs, "--faults", payload]) == 0
        assert (tmp_path / "1" / "fig5a_phase.csv").read_bytes() == (
            tmp_path / "2" / "fig5a_phase.csv"
        ).read_bytes()

    @pytest.mark.parametrize("experiment", ["faults", "sweep", "all"])
    def test_faults_refused_for_other_experiments(self, tmp_path, capsys, experiment):
        """The campaign runs its own faults against a clean baseline, and
        no other experiment builds fig5a's bench: each refuses --faults
        before it writes anything."""
        out = tmp_path / "o"
        assert main([experiment, "--out", str(out), "--quick",
                     "--faults", str(self._payload(tmp_path))]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("ERROR") and "fig5a" in line
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bench_rejects_fault_before_run(self, tmp_path, capsys, jobs):
        """fig5a's bench has one lane; a fault aimed at lane 1 fails the
        bench config's own check up front, not in a shard."""
        out = tmp_path / "o"
        assert main(["fig5a", "--out", str(out), "--quick", "--jobs", jobs,
                     "--faults", str(self._payload(tmp_path, target=1))]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("ERROR")
        assert "cavity_failure targets lane 1 on a scalar bench" in line
        assert not out.exists()

    def test_list_does_not_arm_faults(self, tmp_path, capsys):
        assert main(["--list", "--faults", str(self._payload(tmp_path))]) == 0
        assert "fig5a" in capsys.readouterr().out

    def test_unknown_experiment_exits_before_arming(self, tmp_path, capsys):
        assert main(
            ["bogus", "--out", str(tmp_path / "o"),
             "--faults", str(self._payload(tmp_path))]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'bogus'" in err
        assert "fault(s)" not in err

    def test_bad_payload_is_a_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "cavity_failure"}))  # not a list
        assert main(
            ["fig5a", "--out", str(tmp_path / "o"), "--quick",
             "--faults", str(path)]
        ) == 2
        path.write_text("not json")
        assert main(
            ["fig5a", "--out", str(tmp_path / "o"), "--quick",
             "--faults", str(path)]
        ) == 2
        assert main(
            ["fig5a", "--out", str(tmp_path / "o"), "--quick",
             "--faults", str(tmp_path / "missing.json")]
        ) == 2

    def test_payload_missing_fields_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps([{"kind": "cavity_failure"}]))
        assert main(["fig5a", "--out", str(tmp_path / "o"), "--quick",
                     "--faults", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "missing FaultSpec fields: ['magnitude', 'onset_time']" in line
        assert not (tmp_path / "o").exists()


class TestLintGate:
    def test_shardlint_covers_faults_package(self):
        """CI satellite: the ``repro.analysis --all`` gate lints the
        faults modules (and they are clean)."""
        from repro.analysis import default_targets, lint_shard_file

        targets = [str(p) for p in default_targets()]
        for module in ("inject", "campaign", "engine", "report"):
            matches = [t for t in targets if t.endswith(f"faults/{module}.py")]
            assert matches, f"faults/{module}.py not in shardlint targets"
            report = lint_shard_file(matches[0])
            assert not report.errors(), report.errors()

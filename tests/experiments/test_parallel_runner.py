"""--jobs N through the runner: byte-identical output, merged telemetry.

The pinning tests here are the satellite contract: the shard plan and
every seed are pure functions of the workload, so the CSVs a pooled run
writes are the *same bytes* a serial run writes (sole exception:
``reconfig``, whose columns are measured wall-clock durations).
"""

import hashlib
import json
import multiprocessing

import numpy as np

from repro.experiments.runner import main, run_experiment
from repro.experiments.sweep import SWEEP_CHUNK, plan_sweep, run_sweep_shard
from repro.parallel import raise_on_failures, run_sharded

#: sha256 of ``runner sweep --quick``'s sweep_jump_amplitude.csv.
SWEEP_QUICK_SHA256 = "9d16be8fa73043a031905f712c45c3dc199dc6f4c94e1621c622d9697491de66"

#: sha256 of every CSV the deterministic one-call experiments write at
#: ``--quick`` (``fig1`` writes two).  ``sweep`` and ``faults`` have
#: their own digests; ``fig5a``/``fig5b`` are pinned array by array in
#: the simulator and multiparticle goldens; ``reconfig`` measures
#: wall-clock time.
QUICK_CSV_SHA256 = {
    "fig1": {
        "fig1_voltage.csv": "abb6e1c72ef561eb042e102a7b2e94b4d77ea58ce3f6053031a831527df1c0b6",
        "fig1_particles.csv": "d7607251eff724124d79283d3573a378e0323dc5d9b05126cf9bbfd54b6e0bf9",
    },
    "fig2": {
        "fig2_signals.csv": "462065fc44beec0b0ce53160ec2500891be9b983628bce673a1ad49c5d6dad84",
    },
    "schedule": {
        "schedule_lengths.csv": "082a6ab4fe2b549cbf6ae57ac131d1567a6e6a487df4e47a48ee04357405cc75",
    },
    "jitter": {
        "jitter.csv": "ea3660f6f4c6df3419ca34860943bb409d80060a24cda04e1fddf97dad1f19a4",
    },
    "rampup": {
        "rampup.csv": "905ac9701dcd64f2c9a6978c472c3b0754c09fa8cb2d6d66d3c14bc771164306",
    },
    "landau": {
        "landau.csv": "8c82eb615d2c943d3870a64744b95585ec64aa5ccc7a404cfa92a01874725514",
    },
    "dual": {
        "dual_harmonic.csv": "27fa3b9c6b6b6ced4a61e23001f84536662c4e220b05fc5dbc3551fa4c0d85fc",
    },
}


class TestJobsFlag:
    def test_invalid_jobs_exit_code(self, tmp_path, capsys):
        assert main(["jitter", "--out", str(tmp_path), "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_pool_closed_after_run(self, tmp_path):
        # jitter dispatches its shards to the workers (fig1 dispatches none).
        assert main(["jitter", "--out", str(tmp_path), "--quick", "--jobs", "2"]) == 0
        assert multiprocessing.active_children() == []

    def test_pool_closed_after_failure(self, tmp_path):
        assert main(["bogus", "--out", str(tmp_path), "--jobs", "2"]) == 2
        assert multiprocessing.active_children() == []

    def test_options_do_not_outlive_main(self, tmp_path):
        """An invocation's --batch does not leak into a later call: the
        runner keeps no state between calls."""
        assert main(["sweep", "--out", str(tmp_path / "cli"), "--quick",
                     "--batch", "3"]) == 0
        run_experiment("sweep", tmp_path / "api", quick=True)
        rows = np.loadtxt(tmp_path / "api" / "sweep_jump_amplitude.csv",
                          delimiter=",", skiprows=1)
        assert rows.shape == (8, 4)


class TestCsvBytePinning:
    def test_jitter_csv_identical_across_job_counts(self, tmp_path):
        serial = tmp_path / "serial"
        pooled = tmp_path / "pooled"
        assert main(["jitter", "--out", str(serial), "--quick"]) == 0
        assert main(["jitter", "--out", str(pooled), "--quick", "--jobs", "2"]) == 0
        assert (serial / "jitter.csv").read_bytes() == (
            pooled / "jitter.csv"
        ).read_bytes()

    def test_sweep_csv_identical_across_engines_and_jobs(self, tmp_path):
        """The ``sweep --quick`` CSV is pinned by digest, inline and on
        two workers.  Recorded on x86-64 with NumPy 2.4, where it was
        the same bytes under every engine choice and job count; a
        platform whose ``np.sin`` rounds differently will disagree here.
        A deliberate model change needs a new digest and a line in
        CHANGES.md saying why."""
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--out", str(out), "--quick",
                         "--jobs", jobs]) == 0
            got = hashlib.sha256(
                (out / "sweep_jump_amplitude.csv").read_bytes()
            ).hexdigest()
            assert got == SWEEP_QUICK_SHA256, f"--jobs {jobs}"

    def test_quick_csvs_pinned(self, tmp_path):
        """Every deterministic quick CSV, byte for byte.  Recorded on
        x86-64 with NumPy 2.4; a platform whose libm or NumPy rounds
        differently will disagree here.  A deliberate model change needs
        a new digest and a line in CHANGES.md saying why."""
        for name, files in QUICK_CSV_SHA256.items():
            run_experiment(name, tmp_path, quick=True)
            for fname, want in files.items():
                got = hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
                assert got == want, fname

    def test_reconfig_is_the_documented_exception(self):
        from repro.experiments import reconfig

        # The exception must stay documented where the measurement lives.
        assert "not byte-reproducible" in reconfig.reconfig_row.__doc__


class TestSweepShardParity:
    def test_pooled_sweep_traces_bit_exact(self):
        """Same shard plan, same lane grouping, same bits — jobs 1 vs 2."""
        tasks = plan_sweep(np.linspace(2.0, 12.0, 16), 0.0005, keep_trace=True)
        assert len(tasks) == 16 // SWEEP_CHUNK
        serial = raise_on_failures(run_sharded(run_sweep_shard, tasks, jobs=1))
        pooled = raise_on_failures(run_sharded(run_sweep_shard, tasks, jobs=2))
        for got, want in zip(pooled, serial):
            assert got.offset == want.offset
            assert np.array_equal(got.amps, want.amps)
            assert np.array_equal(got.phase_deg, want.phase_deg)

    def test_summary_reports_the_plan_that_ran(self, tmp_path):
        """The summary counts the lanes of each dispatched shard, not the
        chunk constant: three lanes run as one 3-lane shard."""
        summary = run_experiment("sweep", tmp_path, quick=True, batch=3)
        assert "1 shard(s) of 3 lanes" in summary[0]

    def test_plan_is_independent_of_jobs(self):
        """The plan never takes a worker count — grouping is pinned by
        the workload alone (this is what the byte-parity rests on)."""
        amps = np.linspace(2.0, 12.0, 24)
        plans = [plan_sweep(amps, 0.01) for _ in range(2)]
        assert plans[0] == plans[1]
        offsets = [t.offset for t in plans[0]]
        assert offsets == [0, 8, 16]


class TestShardTurnCounts:
    def test_shard_reports_the_revolutions_it_ran(self):
        """0.001 s at 800 kHz is 800 revolutions (the records include the
        initial one, so they cannot count)."""
        from repro.experiments.sweep import SweepTask

        task = SweepTask(offset=0, amps=(2.0, 6.0), duration=0.001)
        assert run_sweep_shard(task).n_turns == 800


class TestMergedTelemetry:
    def test_worker_metrics_reach_parent_export(self, tmp_path):
        out = tmp_path / "m"
        assert main(["jitter", "--out", str(out), "--quick", "--jobs", "2",
                     "--telemetry", "metrics"]) == 0
        snapshot = json.loads((out / "jitter_metrics.json").read_text())
        # Worker-side compile-cache traffic aggregated into the parent.
        cache_hits = snapshot["cgra_compile_cache_hits_total"]["series"]
        assert sum(cache_hits.values()) >= 2
        shards = snapshot["parallel_shards_total"]["series"]
        assert shards.get("outcome=ok") == 2.0
        assert snapshot["parallel_pool_workers"]["series"][""] == 2.0
        assert snapshot["parallel_shard_seconds"]["series"][""]["count"] == 2

    def test_serial_dispatch_also_counts_shards(self, tmp_path):
        out = tmp_path / "s"
        assert main(["jitter", "--out", str(out), "--quick", "--telemetry", "metrics"]) == 0
        snapshot = json.loads((out / "jitter_metrics.json").read_text())
        assert snapshot["parallel_shards_total"]["series"]["outcome=ok"] == 2.0

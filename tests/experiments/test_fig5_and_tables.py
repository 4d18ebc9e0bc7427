"""Tests for the E5–E10 experiment drivers (short configurations)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsError
from repro.experiments.fig5 import fig5_metrics, fig5_run_bench, fig5_run_machine
from repro.experiments.jitter_study import jitter_comparison
from repro.experiments.landau import landau_damping_comparison
from repro.experiments.rampup import RampUpScenario, rampup_run
from repro.experiments.reconfig import reconfiguration_table
from repro.experiments.schedule_table import PAPER_SCHEDULE_LENGTHS, schedule_length_table
from repro.physics import SIS18, KNOWN_IONS


class TestFig5Metrics:
    # The next two tests pin EXPERIMENTS.md E5's measured values at the
    # precision E5 states them.

    def test_bench_metrics_match_paper_story(self):
        res = fig5_run_bench(duration=0.055)
        m = fig5_metrics(res.time, res.phase_deg, jump_deg=8.0, jump_time=0.005)
        assert m.synchrotron_frequency == pytest.approx(1330.0, abs=10.0)
        assert m.peak_ratio == pytest.approx(0.94, abs=0.01)
        assert m.residual_peak_to_peak < 0.01
        assert m.settled_shift == pytest.approx(8.00, abs=0.01)

    def test_machine_metrics_at_experiments_ensemble(self):
        """5000 particles over the first jump window, the config's seed."""
        res = fig5_run_machine(duration=0.06, n_particles=5000)
        m = fig5_metrics(res.time, res.phase_deg, jump_deg=10.0, jump_time=0.005)
        assert m.synchrotron_frequency == pytest.approx(1230.0, abs=15.0)
        assert m.residual_peak_to_peak < 0.3
        assert m.settled_shift == pytest.approx(10.0, abs=0.1)

    def test_machine_metrics(self):
        res = fig5_run_machine(duration=0.055, n_particles=800)
        m = fig5_metrics(res.time, res.phase_deg, jump_deg=10.0, jump_time=0.005)
        assert m.synchrotron_frequency == pytest.approx(1.2e3, rel=0.08)
        assert 0.8 < m.peak_ratio < 1.15
        assert m.settled_shift == pytest.approx(10.0, abs=1.0)

    def test_metrics_validation(self):
        t = np.linspace(0, 0.01, 100)
        with pytest.raises(ConfigurationError):
            fig5_metrics(t, np.zeros(99), 8.0, 0.005)
        with pytest.raises(ConfigurationError):
            fig5_metrics(t, np.zeros(100), 8.0, 0.009)  # no settling room


class TestScheduleTable:
    def test_rows_cover_paper_configurations(self):
        rows = schedule_length_table()
        keys = {(r.n_bunches, r.pipelined) for r in rows}
        assert keys == set(PAPER_SCHEDULE_LENGTHS)

    def test_paper_reference_attached(self):
        rows = schedule_length_table()
        for r in rows:
            assert r.paper_ticks == PAPER_SCHEDULE_LENGTHS[(r.n_bunches, r.pipelined)]
            assert r.paper_max_f_rev_hz == pytest.approx(111e6 / r.paper_ticks)

    def test_shape_claims(self):
        rows = {(r.n_bunches, r.pipelined): r for r in schedule_length_table()}
        assert not rows[(8, False)].meets_1mhz
        assert rows[(8, True)].meets_1mhz
        assert rows[(1, True)].schedule_ticks < rows[(4, True)].schedule_ticks
        # The E6 tick table of EXPERIMENTS.md, exactly.
        assert {k: r.schedule_ticks for k, r in rows.items()} == {
            (8, False): 157, (8, True): 107, (4, True): 88, (1, True): 76,
        }

    def test_schedule_at_least_critical_path(self):
        for r in schedule_length_table():
            assert r.schedule_ticks >= r.critical_path_ticks


class TestJitterStudy:
    def test_cgra_beats_software_everywhere(self):
        rows = jitter_comparison(n_samples=30_000)
        by_impl = {}
        for r in rows:
            by_impl.setdefault(r.implementation, []).append(r)
        for sw, hw in zip(by_impl["software (CPU)"], by_impl["CGRA (this work)"]):
            assert hw.latency.std < sw.latency.std
            assert hw.false_phase_rms_deg < sw.false_phase_rms_deg
            assert hw.deadline_miss_rate <= sw.deadline_miss_rate

    def test_software_false_phase_is_show_stopper(self):
        rows = jitter_comparison(n_samples=60_000)
        sw = next(r for r in rows if "software" in r.implementation)
        # RMS false phase comparable to the 8-16 deg signals of Fig. 5.
        assert sw.false_phase_rms_deg > 4.0

    def test_e7_record(self):
        """EXPERIMENTS.md's E7 table and the benchmark's results file, at
        their printed precision (the benchmark's 200 000 samples)."""
        rows = [
            (r.implementation, r.f_rev_hz, f"{r.latency.p50 * 1e9:.1f}",
             f"{r.latency.p999 * 1e9:.1f}", f"{r.deadline_miss_rate:.2e}",
             f"{r.false_phase_rms_deg:.2f}", f"{r.false_phase_worst_deg:.2f}")
            for r in jitter_comparison(n_samples=200_000)
        ]
        assert rows == [
            ("software (CPU)", 800e3, "399.9", "478.7", "2.15e-04", "318.93", "110267.39"),
            ("CGRA (this work)", 800e3, "666.7", "666.7", "0.00e+00", "1.33", "2.30"),
            ("software (CPU)", 1e6, "400.0", "478.1", "1.70e-04", "226.86", "50119.94"),
            ("CGRA (this work)", 1e6, "666.7", "666.7", "0.00e+00", "1.66", "2.88"),
        ]


class TestReconfig:
    def test_speedups(self):
        rows = reconfiguration_table()
        for r in rows:
            assert r.speedup > 100.0
            assert r.cgra_seconds < 30.0
            assert r.fpga_seconds > 3600.0


class TestRampUp:
    def test_short_feasible_ramp(self):
        scenario = RampUpScenario(
            ring=SIS18, ion=KNOWN_IONS["14N7+"], f_start=700e3, f_end=750e3,
            duration=0.02, voltage_start=6e3, voltage_end=6e3,
        )
        res = rampup_run(scenario, record_every=32)
        assert res.final_gamma_error < 1e-4
        assert res.max_abs_bunch_phase_deg < 90.0
        assert res.deadline.met
        assert res.f_rev[-1] > res.f_rev[0]

    def test_infeasible_ramp_detected(self):
        scenario = RampUpScenario(
            ring=SIS18, ion=KNOWN_IONS["14N7+"], f_start=600e3, f_end=800e3,
            duration=0.002, voltage_start=1e3, voltage_end=1e3,
        )
        with pytest.raises(PhysicsError):
            rampup_run(scenario)

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            RampUpScenario(ring=SIS18, ion=KNOWN_IONS["14N7+"],
                           f_start=800e3, f_end=700e3)


class TestLandau:
    def test_loop_much_stronger_than_landau(self):
        rows = landau_damping_comparison(n_particles=1200)
        off = next(r for r in rows if not r.control_enabled)
        on = next(r for r in rows if r.control_enabled)
        assert off.damping_rate > 0.0         # Landau damping exists
        assert on.damping_rate > 3 * off.damping_rate  # loop dominates
        assert off.bunch_length_growth > 0.0  # filamentation grows sigma

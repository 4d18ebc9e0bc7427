"""Tests for the machine-experiment emulator (Fig. 5b stand-in)."""

import math

import numpy as np
import pytest

from repro.baselines.offline_tracker import (
    MachineExperimentConfig,
    MachineExperimentEmulator,
)
from repro.errors import ConfigurationError
from repro.experiments.mde import control_config
from repro.physics import SIS18, KNOWN_IONS
from repro.physics.oscillation import estimate_oscillation_frequency


def emulator(**overrides):
    kwargs = dict(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        n_particles=800,
        record_every=4,
        jump_start_time=0.002,
    )
    kwargs.update(overrides)
    return MachineExperimentEmulator(MachineExperimentConfig(**kwargs))


class TestConfig:
    def test_mde_defaults(self):
        cfg = MachineExperimentConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"])
        assert cfg.jump_deg == 10.0  # machine used 10 deg
        assert cfg.synchrotron_frequency == 1.2e3
        assert cfg.seed == 20231124

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MachineExperimentConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], n_particles=1)
        with pytest.raises(ConfigurationError):
            MachineExperimentConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], sigma_delta_t=0.0)
        # Non-finite fields are named before any sign check (NaN passes
        # `sigma_delta_t <= 0` and would run to a NaN phase trace).
        for name in ("revolution_frequency", "synchrotron_frequency", "jump_deg",
                     "jump_toggle_period", "jump_start_time", "sigma_delta_t"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                    MachineExperimentConfig(
                        ring=SIS18, ion=KNOWN_IONS["14N7+"], **{name: bad}
                    )

    @pytest.mark.parametrize("field, value, rule", [
        ("revolution_frequency", 0.0, "positive"),
        ("revolution_frequency", -800e3, "positive"),
        ("synchrotron_frequency", 0.0, "positive"),
        ("jump_toggle_period", -0.05, "positive"),
        ("harmonic", 0, ">= 1"),
    ])
    def test_scenario_fields_checked_at_construction(self, field, value, rule):
        # These used to fail only when the emulator was built, as
        # PhysicsError or SignalError.
        with pytest.raises(ConfigurationError, match=f"{field} must be {rule}"):
            MachineExperimentConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], **{field: value})

    def test_control_rate_must_match_revolution(self):
        """An 800 kHz loop filter cannot run once per 400 kHz revolution."""
        with pytest.raises(ConfigurationError, match="sample_rate must equal"):
            MachineExperimentConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"],
                                    revolution_frequency=400e3, control=control_config())
        MachineExperimentConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], control=control_config())


class TestRun:
    def test_oscillates_at_machine_fs(self):
        emu = emulator()
        res = emu.run(0.02)
        sel = (res.time > 0.002) & (res.time < 0.014)
        f = estimate_oscillation_frequency(res.time[sel], res.phase_deg[sel])
        assert f == pytest.approx(1.2e3, rel=0.08)

    def test_first_peak_doubles_jump(self):
        res = emulator().run(0.006)
        assert 15.0 < res.phase_deg.max() < 22.0  # ~2 x 10 deg

    def test_loop_damps_before_next_jump(self):
        res = emulator().run(0.05)
        late = res.phase_deg[(res.time > 0.042) & (res.time < 0.052)]
        assert late.max() - late.min() < 2.0
        assert late.mean() == pytest.approx(10.0, abs=0.8)

    def test_open_loop_decays_slower_than_closed(self):
        """Open loop: only Landau damping/filamentation acts, so the
        mid-window oscillation is far larger than with the loop closed
        (which has killed it by then)."""
        window = lambda r: r.phase_deg[(r.time > 0.008) & (r.time < 0.014)]
        open_res = emulator(control_enabled=False).run(0.016)
        closed_res = emulator(control_enabled=True).run(0.016)
        pp_open = window(open_res).max() - window(open_res).min()
        pp_closed = window(closed_res).max() - window(closed_res).min()
        assert pp_open > 5.0
        assert pp_open > 3.0 * pp_closed

    def test_reproducible_by_seed(self):
        a = emulator(seed=7).run(0.003)
        b = emulator(seed=7).run(0.003)
        np.testing.assert_array_equal(a.phase_deg, b.phase_deg)

    def test_sigma_trace_recorded(self):
        res = emulator().run(0.004)
        assert res.sigma_delta_t.shape == res.time.shape
        assert np.all(res.sigma_delta_t > 0)

    def test_duration_validation(self):
        emu = emulator()
        for duration in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError, match="duration must be"):
                emu.run(duration)

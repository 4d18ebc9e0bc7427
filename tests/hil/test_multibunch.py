"""Tests for multi-bunch operation of the HIL bench (Section VI's
"multiple bunches circulating in the ring at the same time")."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hil.simulator import CavityInTheLoop, HilConfig
from repro.physics import SIS18, KNOWN_IONS
from repro.physics.oscillation import estimate_oscillation_frequency
from tests.hil.test_simulator import assert_engines_identical


def config(**overrides):
    kwargs = dict(ring=SIS18, ion=KNOWN_IONS["14N7+"], record_every=4,
                  jump_start_time=0.002)
    kwargs.update(overrides)
    return HilConfig(**kwargs)


class TestValidation:
    def test_initial_offsets_length(self):
        with pytest.raises(ConfigurationError):
            config(n_bunches=4, initial_delta_t=(1e-9, 2e-9))

    def test_control_source_names(self):
        with pytest.raises(ConfigurationError):
            config(control_source="median")


class TestIndependentBunches:
    def test_offsets_produce_distinct_trajectories(self):
        offsets = (0.0, 4e-9, 8e-9, 12e-9)
        sim = CavityInTheLoop(config(n_bunches=4, initial_delta_t=offsets,
                                     jump_deg=0.0))
        res = sim.run(0.004)
        assert res.delta_t_all.shape[1] == 4
        finals = res.delta_t_all[-1]
        assert len(np.unique(np.round(finals * 1e12))) == 4

    def test_all_bunches_share_synchrotron_frequency(self):
        offsets = (2e-9, 5e-9, 8e-9, 11e-9)
        sim = CavityInTheLoop(config(
            n_bunches=4, initial_delta_t=offsets, jump_deg=0.0,
        ))
        res = sim.run(0.01)
        for b in range(4):
            trace = res.phase_deg_bunch(b, 4, 800e3)
            f = estimate_oscillation_frequency(res.time, trace)
            assert f == pytest.approx(1.28e3, rel=0.05)

    def test_amplitudes_scale_with_offsets(self):
        offsets = (2e-9, 8e-9, 2e-9, 8e-9)
        sim = CavityInTheLoop(config(n_bunches=4, initial_delta_t=offsets,
                                     jump_deg=0.0))
        res = sim.run(0.004)
        amp = np.abs(res.delta_t_all).max(axis=0)
        assert amp[1] == pytest.approx(4 * amp[0], rel=0.05)
        assert amp[3] == pytest.approx(4 * amp[2], rel=0.05)


class TestMultiBunchEngines:
    def test_cgra_python_equivalence_four_bunches(self):
        assert_engines_identical(
            0.003, n_bunches=4, initial_delta_t=(0.0, 3e-9, 6e-9, 9e-9)
        )


class TestMeanControl:
    def test_mean_control_damps_common_mode_only(self):
        """The loop sees the average phase, so it kills the *common*
        (coherent) dipole; the differential bunch-vs-bunch oscillations
        are invisible to it and persist — single macro particles have no
        Landau damping.  This is the physically correct multi-bunch
        behaviour of a sum-signal beam-phase loop."""
        offsets = (0.0, 2e-9, 4e-9, 6e-9)
        sim = CavityInTheLoop(config(
            n_bunches=4, initial_delta_t=offsets, control_source="mean",
        ))
        res = sim.run(0.04)
        tail = res.delta_t_all[res.time > 0.035]
        eq = -8.0 / 360.0 / (4 * 800e3)
        # Each bunch orbits the common jump equilibrium on average...
        np.testing.assert_allclose(tail.mean(axis=0), eq, rtol=0.12)
        # ...the common mode is damped...
        common = tail.mean(axis=1)
        assert common.max() - common.min() < 1.0e-9
        # ...but the differential mode still swings.
        differential = tail - common[:, None]
        assert np.abs(differential).max() > 1.5e-9

    def test_real_time_budget_with_four_bunches(self):
        sim = CavityInTheLoop(config(n_bunches=4))
        res = sim.run(0.002)
        assert res.deadline.met
        # 4-bunch schedule is longer but still inside the 800 kHz budget.
        assert res.schedule_length > CavityInTheLoop(config()).model.schedule_length

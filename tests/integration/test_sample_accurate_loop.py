"""Integration test of the fully sample-accurate closed loop.

The DSP here sees only the beam *waveform* — IQ demodulation must
recover the bunch phase through pulse shaping, ADC quantisation and DAC
reconstruction accurately enough for the control loop to damp the
oscillation.  This exercises every component of Fig. 4 at the sample
level in one closed loop.
"""

import numpy as np
import pytest

from repro.control import ControlLoopConfig
from repro.errors import ConfigurationError
from repro.hil.closed_loop import SampleAccurateBench, SampleAccurateBenchConfig
from repro.physics import SIS18, KNOWN_IONS


def make_bench(gain_scale=0.1, enabled=True, **overrides):
    kwargs = dict(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        control=ControlLoopConfig(
            sample_rate=800e3, gain_scale=gain_scale, enabled=enabled
        ),
        jump_start_time=0.0,
    )
    kwargs.update(overrides)
    return SampleAccurateBench(SampleAccurateBenchConfig(**kwargs))


@pytest.fixture(scope="module")
def closed_run():
    return make_bench().run_revolutions(1500)


class TestIQMeasurementChain:
    def test_iq_tracks_model_ground_truth(self, closed_run):
        """The waveform-level phase measurement equals the model's Δt to
        a tenth of a degree once the chain has settled."""
        ground_truth = -360.0 * 4 * 800e3 * closed_run.delta_t
        err = np.abs(closed_run.phase_deg[50:] - ground_truth[50:])
        assert np.median(err) < 0.05
        assert err.max() < 0.2

    def test_loop_damps_through_the_waveform(self, closed_run):
        ph = closed_run.phase_deg
        early = ph[100:400]
        late = ph[1200:]
        assert (early.max() - early.min()) > 4 * (late.max() - late.min())

    def test_settles_near_jump_level(self, closed_run):
        late = closed_run.phase_deg[1200:]
        assert late.mean() == pytest.approx(8.0, abs=1.0)


class TestOpenVsClosed:
    def test_open_loop_keeps_swinging(self):
        run = make_bench(enabled=False).run_revolutions(1200)
        late = run.phase_deg[900:]
        assert late.max() - late.min() > 10.0  # undamped 2x8 deg swing


class TestValidation:
    def test_revolution_count(self):
        with pytest.raises(ConfigurationError):
            make_bench().run_revolutions(0)

    def test_detector_window(self):
        with pytest.raises(ConfigurationError):
            SampleAccurateBenchConfig(
                ring=SIS18, ion=KNOWN_IONS["14N7+"],
                detector_window_revolutions=0,
            )

    @pytest.mark.parametrize("field, value, rule", [
        ("revolution_frequency", float("nan"), "finite"),
        ("synchrotron_frequency", float("inf"), "finite"),
        ("jump_deg", float("nan"), "finite"),
        ("jump_toggle_period", float("nan"), "finite"),
        ("jump_start_time", float("-inf"), "finite"),
        ("revolution_frequency", 0.0, "positive"),
        ("synchrotron_frequency", -1.28e3, "positive"),
        ("jump_toggle_period", 0.0, "positive"),
        ("adc_amplitude", 2.0, r"in \(0, 1\] volts"),
        ("adc_amplitude", 0.0, r"in \(0, 1\] volts"),
        ("n_bunches", 0, r"in \[1, harmonic\]"),
        ("n_bunches", 5, r"in \[1, harmonic\]"),
    ])
    def test_scenario_fields_validated(self, field, value, rule):
        # Checked as in HilConfig; a NaN jump used to run to phase 0.0
        # and a 2 V amplitude past the ADC's 2 Vpp rails.
        with pytest.raises(ConfigurationError, match=f"{field} must be {rule}"):
            SampleAccurateBenchConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], **{field: value})

    def test_control_rate_must_match_revolution(self):
        control = ControlLoopConfig(sample_rate=800e3)
        with pytest.raises(ConfigurationError, match="revolution frequency"):
            SampleAccurateBenchConfig(
                ring=SIS18, ion=KNOWN_IONS["14N7+"], revolution_frequency=400e3,
                control=control,
            )
        SampleAccurateBenchConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], control=control)

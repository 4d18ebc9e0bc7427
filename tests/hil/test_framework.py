"""Integration tests for the sample-accurate FPGA framework (Fig. 3)."""

import numpy as np
import pytest

from repro.constants import deg_to_rad
from repro.errors import ConfigurationError, HilError
from repro.hil.framework import FpgaFramework, FrameworkConfig
from repro.physics import SIS18, KNOWN_IONS
from repro.signal.dds import GroupDDS


def make_framework(**overrides):
    gap_volts = 4862.0
    adc_amp = 0.9
    kwargs = dict(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        harmonic=4,
        gap_volts_per_adc_volt=gap_volts / adc_amp,
        ref_volts_per_adc_volt=4 * gap_volts / adc_amp,
        n_bunches=1,
    )
    kwargs.update(overrides)
    return FpgaFramework(FrameworkConfig(**kwargs))


def drive(framework, n_revolutions, f_rev=800e3, gap_phase=0.0, amplitude=0.9):
    group = GroupDDS(
        revolution_frequency=f_rev,
        harmonic=framework.config.harmonic,
        amplitude=amplitude,
        sample_rate=250e6,
        gap_phase_drive=lambda t: gap_phase,
    )
    group.reset_phase()
    block = int(round(250e6 / f_rev))
    beams = []
    for _ in range(n_revolutions):
        ref, gap = group.generate(block)
        beam, monitor = framework.feed(ref.samples, gap.samples)
        beams.append(beam)
    return beams


class TestConfig:
    def test_bunches_bounded_by_harmonic(self):
        with pytest.raises(ConfigurationError):
            make_framework(n_bunches=5)

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            make_framework(gap_volts_per_adc_volt=-1.0)


class TestInitialisation:
    def test_waits_four_periods(self):
        fw = make_framework()
        drive(fw, 3)
        assert not fw.initialised
        with pytest.raises(HilError):
            _ = fw.executor

    def test_initialises_after_four_periods(self):
        fw = make_framework()
        drive(fw, 8)
        assert fw.initialised
        assert fw.executor.iterations >= 1

    def test_gamma_from_measured_period(self):
        fw = make_framework()
        drive(fw, 10)
        gamma0 = SIS18.gamma_from_revolution_frequency(800e3)
        assert fw.executor.register_of("gamma_r") == pytest.approx(gamma0, rel=1e-4)


class TestClosedBehaviour:
    def test_stationary_beam_stays_centred(self):
        fw = make_framework()
        drive(fw, 100)
        # No phase offset: the bunch must remain at the zero crossing.
        assert abs(fw.delta_t[0]) < 0.3e-9

    def test_phase_jump_excites_oscillation(self):
        fw = make_framework()
        drive(fw, 600, gap_phase=deg_to_rad(8.0))
        # Equilibrium shifted by -8 deg of RF phase ~ -6.9 ns; starting at
        # 0 the bunch swings out to about twice that excursion.  Judge by
        # the recorded trace, not by a single end-of-run snapshot that may
        # land mid-swing near zero.
        trace = fw.recorder.as_array()[:, 2]
        assert trace.min() < -10e-9
        assert trace.max() < 1e-9

    def test_beam_pulses_present(self):
        fw = make_framework()
        beams = drive(fw, 60)
        total = np.concatenate([b.samples for b in beams[-20:]])
        assert total.max() > 0.5  # Gauss pulses being played back

    def test_pulses_once_per_revolution(self):
        fw = make_framework()
        beams = drive(fw, 100)
        tail = np.concatenate([b.samples for b in beams[-32:]])
        # Count pulse peaks: threshold crossings of half amplitude.
        above = tail > 0.4
        rising = np.count_nonzero(above[1:] & ~above[:-1])
        assert rising == pytest.approx(32, abs=2)

    def test_multi_bunch_pulse_rate(self):
        fw = make_framework(n_bunches=4)
        beams = drive(fw, 100)
        tail = np.concatenate([b.samples for b in beams[-32:]])
        above = tail > 0.4
        rising = np.count_nonzero(above[1:] & ~above[:-1])
        assert rising == pytest.approx(128, abs=4)

    def test_recorder_rows(self):
        fw = make_framework()
        drive(fw, 50)
        rows = fw.recorder.rows
        assert rows == fw.executor.iterations
        data = fw.recorder.as_array()
        np.testing.assert_allclose(data[:, 1], 1.25e-6, rtol=1e-4)

    def test_monitor_mirror_mode(self):
        fw = make_framework()
        fw.params.write("monitor_select", 1.0)
        drive(fw, 40)
        # In mirror mode the monitor equals the beam output; run one block
        # manually to compare.
        group = GroupDDS(800e3, 4, 0.9, 250e6)
        ref, gap = group.generate(312)
        beam, monitor = fw.feed(ref.samples, gap.samples)
        np.testing.assert_array_equal(beam.samples, monitor.samples)

    def test_monitor_phase_mode(self):
        """Default monitor mode: the model's phase difference at 90°/V."""
        fw = make_framework()
        drive(fw, 400, gap_phase=deg_to_rad(8.0))
        group = GroupDDS(800e3, 4, 0.9, 250e6,
                         gap_phase_drive=lambda t: deg_to_rad(8.0))
        ref, gap = group.generate(312)
        _beam, monitor = fw.feed(ref.samples, gap.samples)
        expected_deg = -360.0 * 4 * (1 / 1.25e-6) * fw.delta_t[0]
        assert monitor.samples[0] == pytest.approx(expected_deg / 90.0, abs=0.02)

    def test_output_scale_parameter(self):
        fw = make_framework()
        fw.params.write("beam_output_scale", 0.5)
        beams = drive(fw, 80)
        tail = np.concatenate([b.samples for b in beams[-20:]])
        assert 0.3 < tail.max() < 0.5

    def test_mismatched_blocks_rejected(self):
        fw = make_framework()
        with pytest.raises(HilError):
            fw.feed(np.zeros(10), np.zeros(11))

    def test_deadline_checked(self):
        fw = make_framework()
        drive(fw, 20)
        stats = fw.deadline.stats()
        assert stats.met
        assert stats.min_slack > 0

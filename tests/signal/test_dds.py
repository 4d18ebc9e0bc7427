"""Tests for the DDS signal sources and the synchronised group."""

import math

import numpy as np
import pytest

from repro.constants import TWO_PI, deg_to_rad
from repro.errors import SignalError
from repro.signal.dds import DDS, GroupDDS


class TestDDS:
    def test_generate_sine(self):
        dds = DDS(1e6, amplitude=0.5, sample_rate=100e6)
        wf = dds.generate(1000)
        t = wf.time_axis()
        np.testing.assert_allclose(wf.samples, 0.5 * np.sin(TWO_PI * 1e6 * t), atol=1e-12)

    def test_phase_continuous_blocks(self):
        dds = DDS(1.234e6, sample_rate=100e6)
        a = dds.generate(777)
        b = dds.generate(777)
        joined = np.concatenate([a.samples, b.samples])
        ref = DDS(1.234e6, sample_rate=100e6).generate(1554)
        np.testing.assert_allclose(joined, ref.samples, atol=1e-9)

    def test_phase_continuous_frequency_change(self):
        dds = DDS(1e6, sample_rate=100e6)
        dds.generate(500)
        v_before = dds.voltage_at(dds.current_time)
        dds.set_frequency(2e6)
        v_after = dds.voltage_at(dds.current_time)
        assert v_after == pytest.approx(v_before, abs=1e-9)

    def test_analytic_matches_streamed(self):
        dds = DDS(800e3, amplitude=0.9, sample_rate=250e6)
        analytic = dds.voltage_at(np.arange(100) / 250e6)
        wf = dds.generate(100)
        np.testing.assert_allclose(wf.samples, analytic, atol=1e-12)

    def test_phase_offset_port(self):
        dds = DDS(1e6, sample_rate=100e6)
        dds.set_phase_offset(math.pi / 2)
        assert dds.voltage_at(0.0) == pytest.approx(1.0)

    def test_nyquist_rejected(self):
        with pytest.raises(SignalError):
            DDS(50e6, sample_rate=100e6)
        dds = DDS(1e6, sample_rate=100e6)
        with pytest.raises(SignalError):
            dds.set_frequency(60e6)

    def test_negative_frequency_rejected(self):
        dds = DDS(1e6, sample_rate=100e6)
        with pytest.raises(SignalError):
            dds.set_frequency(0.0)

    def test_cannot_run_backwards(self):
        dds = DDS(1e6, sample_rate=100e6)
        dds.advance_to(1e-3)
        with pytest.raises(SignalError):
            dds.advance_to(0.5e-3)

    def test_reset_phase(self):
        dds = DDS(1e6, sample_rate=100e6)
        dds.generate(12345)
        dds.reset_phase()
        assert dds.voltage_at(0.0) == pytest.approx(0.0, abs=1e-12)
        assert dds.current_time == 0.0


class TestGroupDDS:
    def test_harmonic_relationship(self):
        group = GroupDDS(800e3, harmonic=4, sample_rate=250e6)
        assert group.gap.frequency == pytest.approx(4 * group.reference.frequency)

    def test_synchronised_zero_crossings(self):
        group = GroupDDS(800e3, harmonic=4, amplitude=1.0, sample_rate=250e6)
        group.reset_phase()
        ref, gap = group.generate(625)  # two reference periods
        # Both start at a rising zero crossing.
        assert ref.samples[0] == pytest.approx(0.0, abs=1e-12)
        assert gap.samples[0] == pytest.approx(0.0, abs=1e-12)
        assert ref.samples[1] > 0 and gap.samples[1] > 0

    def test_gap_phase_drive(self):
        drive = lambda t: deg_to_rad(8.0)
        group = GroupDDS(800e3, harmonic=4, sample_rate=250e6, gap_phase_drive=drive)
        group.reset_phase()
        _, gap = group.generate(10)
        assert gap.samples[0] == pytest.approx(math.sin(deg_to_rad(8.0)), abs=1e-9)

    def test_invalid_harmonic(self):
        with pytest.raises(SignalError):
            GroupDDS(800e3, harmonic=0)

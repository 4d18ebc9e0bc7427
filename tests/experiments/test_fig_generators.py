"""Tests for the per-figure data generators (E1, E2, E4 scaffolding)."""

import numpy as np
import pytest

from repro.experiments.fig1 import fig1_forces_data
from repro.experiments.fig2 import fig2_signal_snapshot
from repro.experiments.mde import (
    MDE_HARMONIC,
    MDE_JUMP_DEG_BENCH,
    MDE_JUMP_DEG_MACHINE,
    MDE_REVOLUTION_FREQUENCY,
    bench_config,
    machine_config,
)


class TestFig1:
    @pytest.fixture()
    def data(self):
        return fig1_forces_data()

    def test_voltage_spans_one_rf_period(self, data):
        t_rf = 1 / (4 * 800e3)
        assert data.time[0] == pytest.approx(-t_rf / 2)
        assert data.time[-1] == pytest.approx(t_rf / 2)
        assert data.voltage.max() == pytest.approx(5e3, rel=1e-3)

    def test_paper_force_story(self, data):
        """Late particle accelerated, early decelerated, reference neutral."""
        early, ref, late = data.particle_delta_gamma_kick
        assert early < 0.0 < late
        assert ref == 0.0
        assert late == pytest.approx(-early, rel=1e-9)


class TestFig2:
    def test_harmonic_two_structure(self):
        d = fig2_signal_snapshot()
        # Gap completes two periods per reference period (h = 2).
        ref_spectrum = np.abs(np.fft.rfft(d.reference))
        gap_spectrum = np.abs(np.fft.rfft(d.gap))
        assert np.argmax(gap_spectrum) == 2 * np.argmax(ref_spectrum)

    def test_beam_pulses_displaced(self):
        d = fig2_signal_snapshot()
        # Pulse peaks sit bunch_delta_t after the gap's nominal crossings.
        peaks = np.nonzero(
            (d.beam[1:-1] > d.beam[:-2]) & (d.beam[1:-1] >= d.beam[2:])
            & (d.beam[1:-1] > 0.5 * d.beam.max())
        )[0] + 1
        assert len(peaks) >= 2
        t_rev = 1 / 800e3
        spacing = t_rev / 2
        offsets = (d.time[peaks] - 60e-9) % spacing
        offsets = np.minimum(offsets, spacing - offsets)
        assert np.abs(offsets).max() < 3e-9

    def test_traces_same_length(self):
        d = fig2_signal_snapshot()
        assert len(d.time) == len(d.reference) == len(d.gap) == len(d.beam)


class TestMdeConfigs:
    def test_bench_machine_asymmetry(self):
        b = bench_config()
        m = machine_config()
        assert b.jump_deg == MDE_JUMP_DEG_BENCH == 8.0
        assert m.jump_deg == MDE_JUMP_DEG_MACHINE == 10.0
        assert b.synchrotron_frequency == 1.28e3
        assert m.synchrotron_frequency == 1.2e3
        assert b.harmonic == m.harmonic == MDE_HARMONIC
        assert b.revolution_frequency == m.revolution_frequency == MDE_REVOLUTION_FREQUENCY

    def test_both_sides_share_control_parameters(self):
        b = bench_config()
        m = machine_config()
        assert b.control.f_pass == m.control.f_pass == 1.4e3
        assert b.control.gain == m.control.gain == -5.0
        assert b.control.recursion_factor == m.control.recursion_factor == 0.99

    def test_overrides(self):
        b = bench_config(jump_deg=4.0, engine="cgra")
        assert b.jump_deg == 4.0
        assert b.engine == "cgra"

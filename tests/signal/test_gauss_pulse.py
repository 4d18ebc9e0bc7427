"""Tests for the Gaussian beam-pulse generator."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.signal.gauss_pulse import GaussPulseGenerator


class TestGenerator:
    def test_pulse_at_trigger_time(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        g.schedule(1e-6)
        wf = g.render(0.0, 500)
        peak_time = wf.time_axis()[np.argmax(wf.samples)]
        assert peak_time == pytest.approx(1e-6, abs=1 / 250e6)

    def test_subsample_trigger_shifts_samples(self):
        g1 = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        g2 = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        g1.schedule(1e-6)
        g2.schedule(1e-6 + 2e-9)  # half a sample later
        w1 = g1.render(0.0, 500)
        w2 = g2.render(0.0, 500)
        assert not np.allclose(w1.samples, w2.samples)
        # Centroid moves by the sub-sample amount.
        t = w1.time_axis()
        c1 = np.sum(t * w1.samples) / w1.samples.sum()
        c2 = np.sum(t * w2.samples) / w2.samples.sum()
        assert c2 - c1 == pytest.approx(2e-9, abs=0.2e-9)

    def test_pulse_spanning_blocks(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        g.schedule(1e-6)  # sample 250: pulse spans samples ~230..270
        a = g.render(0.0, 250)
        b = g.render(250 / 250e6, 250)
        joined = np.concatenate([a.samples, b.samples])
        whole = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        whole.schedule(1e-6)
        ref = whole.render(0.0, 500)
        np.testing.assert_allclose(joined, ref.samples, atol=1e-12)

    def test_overlapping_pulses_sum(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6, amplitude=1.0)
        g.schedule(1e-6)
        g.schedule(1e-6 + 10e-9)
        wf = g.render(0.0, 500)
        assert wf.samples.max() > 1.5  # constructive overlap

    def test_past_trigger_rejected(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        g.render(0.0, 1000)
        with pytest.raises(SignalError):
            g.schedule(1e-6)  # 4-sigma tail already rendered

    def test_out_of_order_blocks_rejected(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        g.render(0.0, 500)
        with pytest.raises(SignalError):
            g.render(0.0, 500)

    def test_pending_triggers_discarded_after_render(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        g.schedule(1e-6)
        assert g.render(0.0, 1000).samples.max() > 0.0  # pulse fully rendered
        assert not g.render(1000 / 250e6, 1000).samples.any()

    def test_amplitude_sets_peak(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6, amplitude=0.25)
        g.schedule(1e-6)
        wf = g.render(0.0, 500)
        assert wf.samples.max() == pytest.approx(0.25, rel=1e-6)

    def test_empty_render(self):
        g = GaussPulseGenerator(sigma=20e-9, sample_rate=250e6)
        wf = g.render(0.0, 0)
        assert len(wf) == 0

"""Tests for FIR design and the beam-phase control filter."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.signal.fir import (
    PhaseControlFilter,
    design_bandpass_fir,
    design_lowpass_fir,
    fir_frequency_response,
)


class TestLowpassDesign:
    def test_dc_gain_unity(self):
        h = design_lowpass_fir(1e3, 100e3, 101)
        assert abs(fir_frequency_response(h, 100e3, 0.0)[0]) == pytest.approx(1.0)

    def test_stopband_attenuation(self):
        h = design_lowpass_fir(1e3, 100e3, 201)
        stop = abs(fir_frequency_response(h, 100e3, 10e3)[0])
        assert stop < 0.01

    def test_passband_flat(self):
        h = design_lowpass_fir(5e3, 100e3, 201)
        passband = abs(fir_frequency_response(h, 100e3, np.array([100.0, 500.0, 1000.0])))
        np.testing.assert_allclose(passband, 1.0, atol=0.01)

    def test_validation(self):
        with pytest.raises(SignalError):
            design_lowpass_fir(60e3, 100e3, 101)  # above Nyquist
        with pytest.raises(SignalError):
            design_lowpass_fir(1e3, 100e3, 100)  # even taps
        with pytest.raises(SignalError):
            design_lowpass_fir(0.0, 100e3, 101)


class TestBandpassDesign:
    def test_band_centre_passes(self):
        h = design_bandpass_fir(1e3, 2e3, 100e3, 401)
        centre = abs(fir_frequency_response(h, 100e3, 1.5e3)[0])
        assert centre > 0.8

    def test_rejects_dc_and_high(self):
        h = design_bandpass_fir(1e3, 2e3, 100e3, 401)
        assert abs(fir_frequency_response(h, 100e3, 0.0)[0]) < 0.01
        assert abs(fir_frequency_response(h, 100e3, 20e3)[0]) < 0.05

    def test_validation(self):
        with pytest.raises(SignalError):
            design_bandpass_fir(2e3, 1e3, 100e3, 101)


class TestPhaseControlFilter:
    def test_paper_defaults(self):
        f = PhaseControlFilter()
        assert f.f_pass == 1.4e3
        assert f.gain == -5.0
        assert f.recursion_factor == 0.99

    def test_unity_normalisation_at_f_pass(self):
        f = PhaseControlFilter(gain=-5.0)
        assert abs(f.frequency_response(1.4e3))[0] == pytest.approx(5.0, rel=1e-9)

    def test_dc_blocked(self):
        f = PhaseControlFilter()
        # Constant input (the dead-time offset of Fig. 5) decays to zero.
        out = f.process(np.full(3000, 42.0))
        assert abs(out[-1]) < 1e-2 * abs(out[0]) + 1e-9

    def test_corner_frequency_near_fs(self):
        # With r = 0.99 at 800 kHz the corner lands right at the
        # synchrotron frequency — why the paper's parameters are optimal.
        f = PhaseControlFilter(recursion_factor=0.99, sample_rate=800e3)
        assert f.corner_frequency() == pytest.approx(1273.0, rel=0.01)

    def test_phase_lead_below_corner(self):
        f = PhaseControlFilter(gain=1.0)
        h = f.frequency_response(200.0)[0]
        # Positive (lead) phase at low frequency: differentiator behaviour.
        assert 45.0 < np.degrees(np.angle(h)) <= 90.5

    def test_step_equals_process(self):
        f1 = PhaseControlFilter()
        f2 = PhaseControlFilter()
        x = np.sin(np.arange(100) * 0.01)
        stepped = np.array([f1.step(v) for v in x])
        np.testing.assert_allclose(stepped, f2.process(x), atol=1e-12)

    def test_reset_clears_state(self):
        f = PhaseControlFilter()
        f.step(5.0)
        f.reset()
        assert f.step(0.0) == 0.0

    def test_impulse_response_decays_with_r(self):
        f = PhaseControlFilter(recursion_factor=0.9, sample_rate=800e3, gain=1.0)
        out = f.process(np.concatenate([[1.0], np.zeros(99)]))
        # After the first two taps the response decays geometrically by r.
        ratios = out[4:20] / out[3:19]
        np.testing.assert_allclose(ratios, 0.9, atol=1e-6)

    def test_validation(self):
        with pytest.raises(SignalError):
            PhaseControlFilter(recursion_factor=1.0)
        with pytest.raises(SignalError):
            PhaseControlFilter(f_pass=500e3, sample_rate=800e3)
        with pytest.raises(SignalError):
            PhaseControlFilter(sample_rate=-1.0)


class TestVectorizedProcess:
    """Block-wise process() must be bit-identical to the scalar step()
    recurrence, including state carried across blocks."""

    def test_process_bit_exact_with_step(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 5.0, 400)
        f_step = PhaseControlFilter()
        f_proc = PhaseControlFilter()
        stepped = np.array([f_step.step(v) for v in x])
        processed = f_proc.process(x)
        assert np.array_equal(stepped, processed)  # exact, not allclose
        assert f_proc._x_prev == f_step._x_prev
        assert f_proc._y_prev == f_step._y_prev

    def test_process_across_blocks(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 2.0, 300)
        whole = PhaseControlFilter().process(x)
        chunked = PhaseControlFilter()
        parts = [chunked.process(x[i:i + 37]) for i in range(0, 300, 37)]
        assert np.array_equal(np.concatenate(parts), whole)

    def test_process_empty_block(self):
        f = PhaseControlFilter()
        f.step(1.0)
        out = f.process(np.empty(0))
        assert out.size == 0
        assert f.step(0.0) != 0.0  # state untouched by the empty call

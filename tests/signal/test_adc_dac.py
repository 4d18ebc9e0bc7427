"""Tests for the bit-accurate ADC and DAC converter models."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SignalError
from repro.signal.adc import ADC
from repro.signal.dac import DAC


class TestADC:
    def test_fmc151_defaults(self):
        adc = ADC()
        assert adc.bits == 14
        assert adc.vpp == 2.0
        assert adc.sample_rate == 250e6
        assert adc.lsb == pytest.approx(2.0 / 2**14)

    def test_quantisation_error_bounded(self):
        adc = ADC()
        v = np.linspace(-0.99, 0.99, 1001)
        q = adc.quantize(v)
        assert np.abs(q - v).max() <= adc.lsb / 2 + 1e-12

    def test_nan_input_raises_under_errstate(self):
        # The int64 cast is what turns a NaN reading into an error
        # inside the HIL benches' errstate envelope.
        adc = ADC()
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            adc.quantize(np.array([0.25, np.nan, -0.5]))

    def test_clipping_at_rails(self):
        adc = ADC()
        q = adc.quantize(np.array([-5.0, 5.0]))
        assert q[0] == pytest.approx(adc.code_min * adc.lsb)
        assert q[1] == pytest.approx(adc.code_max * adc.lsb)

    def test_codes_integer_range(self):
        adc = ADC(bits=8, vpp=2.0)
        codes = adc.convert(np.linspace(-2, 2, 100))
        assert codes.min() >= -128 and codes.max() <= 127

    def test_code_roundtrip(self):
        adc = ADC()
        codes = adc.convert([0.25])
        assert adc.codes_to_volts(codes)[0] == pytest.approx(0.25, abs=adc.lsb)

    def test_invalid_bits(self):
        with pytest.raises(SignalError):
            ADC(bits=0)
        with pytest.raises(SignalError):
            ADC(bits=64)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_quantise_idempotent(self, v):
        adc = ADC()
        once = adc.quantize(v)
        twice = adc.quantize(once)
        assert np.all(once == twice)


class TestDAC:
    def test_fmc151_defaults(self):
        dac = DAC()
        assert dac.bits == 16
        assert dac.vpp == 2.0
        assert dac.lsb == pytest.approx(2.0 / 2**16)

    def test_convert_quantises(self):
        dac = DAC()
        out = dac.convert(np.array([0.1234567]))
        assert abs(out[0] - 0.1234567) <= dac.lsb / 2

    def test_clipping(self):
        dac = DAC()
        out = dac.convert(np.array([3.0, -3.0]))
        assert out[0] == pytest.approx(dac.code_max * dac.lsb)
        assert out[1] == pytest.approx(dac.code_min * dac.lsb)

    def test_render_waveform(self):
        dac = DAC()
        wf = dac.render_waveform(np.array([0.1, 0.2]), t0=1.0)
        assert wf.t0 == 1.0
        assert wf.sample_rate == 250e6

    def test_dac_finer_than_adc(self):
        # 16-bit DAC has 4x finer steps than the 14-bit ADC at same Vpp.
        assert DAC().lsb == pytest.approx(ADC().lsb / 4)


class TestScalarFastPaths:
    """The scalar ADC entry points used by the per-revolution HIL loop
    must agree exactly with the array implementations."""

    def test_adc_convert_scalar_matches_array(self):
        adc = ADC()
        for v in (-2.0, -1.0001, -0.3, 0.0, 1e-5, 0.77, 1.0, 2.5):
            assert adc.convert_scalar(v) == int(adc.convert(v))
            assert adc.quantize_scalar(v) == float(adc.quantize(v))

    def test_scalar_clipping(self):
        adc = ADC()
        full = 2 ** (adc.bits - 1)
        assert adc.convert_scalar(100.0) == full - 1
        assert adc.convert_scalar(-100.0) == -full

"""Tests for the beam-phase control loop."""

import numpy as np
import pytest

from repro.control import BeamPhaseControlLoop, ControlLoopConfig
from repro.errors import ConfigurationError


def loop(**kw):
    defaults = dict(sample_rate=800e3)
    defaults.update(kw)
    return BeamPhaseControlLoop(ControlLoopConfig(**defaults))


class TestConfig:
    def test_paper_defaults(self):
        cfg = ControlLoopConfig()
        assert cfg.f_pass == 1.4e3
        assert cfg.gain == -5.0
        assert cfg.recursion_factor == 0.99

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ControlLoopConfig(saturation_deg=-1.0)
        with pytest.raises(ConfigurationError):
            ControlLoopConfig(gain_scale=0.0)

    def test_revolution_frequency_check(self):
        cfg = ControlLoopConfig(sample_rate=800e3)
        cfg.check_revolution_frequency(800e3 * (1.0 + 0.5e-6))
        with pytest.raises(ConfigurationError, match="sample_rate must equal"):
            cfg.check_revolution_frequency(800e3 * (1.0 + 2e-6))
        with pytest.raises(ConfigurationError):
            cfg.check_revolution_frequency(400e3)


class TestLoopBehaviour:
    def test_zero_input_zero_output(self):
        ctl = loop()
        assert ctl.update(0.0) == 0.0

    def test_constant_offset_ignored_asymptotically(self):
        # The Fig. 5 dead-time offset must not produce a permanent kick.
        ctl = loop()
        out = [ctl.update(15.0) for _ in range(5000)]
        assert abs(out[-1]) < 1e-2 * abs(out[0]) + 1e-9

    def test_disabled_loop(self):
        ctl = loop(enabled=False)
        assert ctl.update(30.0) == 0.0
        assert ctl.last_output_deg == 0.0

    def test_saturation(self):
        ctl = loop(saturation_deg=2.0, gain=-500.0)
        out = ctl.update(100.0)
        assert abs(out) == 2.0
        assert ctl.saturation_count == 1

    def test_oscillation_gets_lead_response(self):
        """At f_s the loop output leads the input (damping-capable)."""
        ctl = loop()
        f_s, fs = 1.28e3, 800e3
        n = int(fs / f_s) * 20
        t = np.arange(n) / fs
        x = np.sin(2 * np.pi * f_s * t)
        y = np.array([ctl.update(v) for v in x])
        # Cross-correlate the steady-state tail: output leads input.
        tail = slice(n // 2, None)
        xc = np.correlate(y[tail], x[tail], mode="full")
        lag = np.argmax(xc) - (len(x[tail]) - 1)
        period = fs / f_s
        # Negative lag = lead; gain < 0 flips sign, so the peak sits near
        # ±(period/2 - period/4) — just require a clear non-zero shift.
        assert abs(lag) > period / 16


class TestClosedLoopDamping:
    def test_damps_synthetic_oscillator(self):
        """Feed a discrete oscillator through the loop; amplitude decays."""
        f_s, fs = 1.28e3, 800e3
        omega = 2 * np.pi * f_s / fs
        ctl = loop()
        # Oscillator state driven by gap phase u: x'' = -w^2 (x - u).
        x, v = 8.0, 0.0
        amps = []
        for n in range(400000):
            u = ctl.last_output_deg
            v += -(omega**2) * (x - u)
            x += v
            ctl.update(x)
            if n % 4000 == 0:
                amps.append(abs(x))
        assert amps[-1] < 0.05 * amps[0]

    def test_positive_gain_antidamps(self):
        f_s, fs = 1.28e3, 800e3
        omega = 2 * np.pi * f_s / fs
        ctl = loop(gain=+5.0, saturation_deg=None)
        x, v = 1.0, 0.0
        peak = 0.0
        for n in range(100000):
            u = ctl.last_output_deg
            v += -(omega**2) * (x - u)
            x += v
            ctl.update(x)
            peak = max(peak, abs(x))
        assert peak > 2.0  # grew: wrong-sign gain destabilises

"""Failure-injection tests: the bench must fail loudly, not silently.

A HIL simulator that misses deadlines or feeds garbage produces wrong
physics that *looks* plausible — these tests pin the failure paths that
protect against that.
"""

import numpy as np
import pytest

from repro.cgra.fabric import CgraConfig
from repro.errors import RealTimeViolation, SignalError
from repro.hil.framework import FpgaFramework, FrameworkConfig
from repro.hil.simulator import CavityInTheLoop, HilConfig
from repro.physics import SIS18, KNOWN_IONS


class TestRealTimeViolations:
    def test_too_fast_revolution_raises(self):
        """8 bunches at 1.3 MHz exceed the schedule budget: the run must
        abort with RealTimeViolation, not produce a trace."""
        config = HilConfig(
            ring=SIS18,
            ion=KNOWN_IONS["14N7+"],
            revolution_frequency=1.3e6,
            n_bunches=4,
            harmonic=4,
        )
        sim = CavityInTheLoop(config)
        assert sim.model.max_f_rev < 1.3e6
        with pytest.raises(RealTimeViolation):
            sim.run(0.001)

    def test_slow_cgra_clock_raises(self):
        """Halving the overlay clock halves the budget."""
        config = HilConfig(
            ring=SIS18,
            ion=KNOWN_IONS["14N7+"],
            revolution_frequency=800e3,
            cgra_config=CgraConfig(clock_mhz=40.0),
        )
        sim = CavityInTheLoop(config)
        with pytest.raises(RealTimeViolation):
            sim.run(0.001)

    def test_fast_single_bunch_fits(self):
        """1 pipelined bunch sustains 1.3 MHz (above the paper's 1.19 MHz
        because our latency calibration is slightly optimistic)."""
        config = HilConfig(
            ring=SIS18,
            ion=KNOWN_IONS["14N7+"],
            revolution_frequency=1.3e6,
            n_bunches=1,
            jump_start_time=1e-4,
        )
        res = CavityInTheLoop(config).run(0.001)
        assert res.deadline.met


class TestFrameworkFaults:
    def _framework(self, **overrides):
        kwargs = dict(
            ring=SIS18,
            ion=KNOWN_IONS["14N7+"],
            harmonic=4,
            gap_volts_per_adc_volt=5e3,
            ref_volts_per_adc_volt=2e4,
        )
        kwargs.update(overrides)
        return FpgaFramework(FrameworkConfig(**kwargs))

    def test_dead_reference_input_never_initialises(self):
        """A dead (all-zero) reference channel: no crossings, no model
        start — and no crash."""
        fw = self._framework()
        for _ in range(20):
            fw.feed(np.zeros(312), np.zeros(312))
        assert not fw.initialised

    def test_buffer_overrun_detected(self):
        """If the model is somehow stalled while the ADC keeps writing,
        re-reading ancient samples raises instead of returning garbage."""
        fw = self._framework(ring_buffer_capacity=1024)
        from repro.signal.dds import GroupDDS

        group = GroupDDS(800e3, 4, 0.9, 250e6)
        group.reset_phase()
        # Prime until initialised.
        for _ in range(8):
            ref, gap = group.generate(312)
            fw.feed(ref.samples, gap.samples)
        # Ancient sample: global index far behind the write pointer.
        with pytest.raises(SignalError):
            fw.buffer_ref.read(0)

    def test_deadline_policy_raise_in_framework(self):
        """Reference running above the model's real-time capacity is a
        detected hardware-misuse condition."""
        fw = self._framework(
            n_bunches=4,
            cgra_config=CgraConfig(clock_mhz=30.0),
        )
        from repro.signal.dds import GroupDDS

        group = GroupDDS(800e3, 4, 0.9, 250e6)
        group.reset_phase()
        with pytest.raises(RealTimeViolation):
            for _ in range(12):
                ref, gap = group.generate(312)
                fw.feed(ref.samples, gap.samples)

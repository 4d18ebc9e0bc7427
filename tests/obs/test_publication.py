"""Per-revolution telemetry is published once per run, by the run owner.

The deadline monitor, the scalar ADC path and the beam-phase control
loop write nothing to the registry per call; they count into state they
own, and :meth:`publish` hands the counts over.  Publishing again adds
nothing, and a deadline miss that raises still reaches
``hil_deadline_misses_total``.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cgra.fabric import CgraConfig
from repro.control import BeamPhaseControlLoop, ControlLoopConfig
from repro.errors import RealTimeViolation
from repro.experiments.mde import bench_config
from repro.hil.realtime import DeadlineMonitor
from repro.hil.simulator import CavityInTheLoop
from repro.signal.adc import ADC


def _value(name: str, **labels):
    instrument = obs.metrics().get(name)
    return instrument.count(**labels) if instrument.kind == "histogram" else (
        instrument.value(**labels))


class TestDeadlineMonitor:
    def test_nothing_recorded_until_published(self, enabled):
        mon = DeadlineMonitor(128, policy="count")
        mon.check_revolution(1 / 1.0e6)  # miss
        assert _value("hil_slack_ticks") == 0
        assert _value("hil_deadline_misses_total") == 0
        mon.publish()
        assert _value("hil_slack_ticks") == 1
        assert _value("hil_deadline_misses_total") == 1

    def test_publishing_twice_does_not_double_count(self, enabled):
        mon = DeadlineMonitor(128, policy="count")
        mon.check_revolution(1 / 800e3)
        mon.check_revolution(1 / 1.0e6)  # miss
        mon.publish()
        mon.publish()
        assert _value("hil_slack_ticks") == 2
        assert _value("hil_deadline_misses_total") == 1
        # The record keeps growing after a publication; only the new
        # revolution is published next time.
        mon.check_revolution(1 / 800e3)
        mon.publish()
        assert _value("hil_slack_ticks") == 3
        assert _value("hil_deadline_misses_total") == 1
        assert mon.n_checked == 3

    def test_realtime_violation_lands_its_miss(self, enabled):
        mon = DeadlineMonitor(128)
        mon.check_revolution(1 / 800e3)
        with pytest.raises(RealTimeViolation):
            mon.check_revolution(1 / 1.0e6)
        assert _value("hil_deadline_misses_total") == 1
        assert _value("hil_slack_ticks") == 2

    def test_bench_violation_lands_its_miss(self, enabled):
        # 50 MHz gives 62.5 ticks per 800 kHz revolution: 76 do not fit.
        sim = CavityInTheLoop(bench_config(cgra_config=CgraConfig(clock_mhz=50.0)))
        with pytest.raises(RealTimeViolation):
            sim.run(0.001)
        assert _value("hil_deadline_misses_total") == 1
        assert obs.run_reports() == []

    def test_disabled_publication_is_dropped(self):
        mon = DeadlineMonitor(128, policy="count")
        mon.check_revolution(1 / 1.0e6)
        mon.publish()  # telemetry off: dropped, not deferred
        obs.enable()
        mon.publish()
        assert _value("hil_slack_ticks") == 0
        assert _value("hil_deadline_misses_total") == 0


class TestScalarAdc:
    def test_counts_published_once(self, enabled):
        adc = ADC()
        for volts in (0.1, 5.0, -5.0, 0.2):
            adc.convert_scalar(volts)
        adc.quantize_scalar(0.3)
        assert _value("signal_adc_samples_total") == 0
        adc.publish()
        adc.publish()
        assert _value("signal_adc_samples_total") == 5
        assert _value("signal_adc_clips_total") == 2


class TestControlLoop:
    def test_published_once_with_last_values(self, enabled):
        loop = BeamPhaseControlLoop(ControlLoopConfig(saturation_deg=0.01))
        outputs = [loop.update(phase) for phase in (1.0, 2.0, -3.0)]
        assert _value("control_updates_total") == 0
        loop.publish()
        loop.publish()
        assert _value("control_updates_total") == 3
        assert _value("control_saturation_total") == loop.saturation_count > 0
        assert _value("control_phase_error_deg") == -3.0
        assert _value("control_correction_deg") == outputs[-1]

    def test_no_updates_publish_nothing(self, enabled):
        BeamPhaseControlLoop(ControlLoopConfig()).publish()
        assert obs.metrics().get("control_phase_error_deg").series() == {}
        assert obs.metrics().get("control_updates_total").series() == {}

    def test_saturation_event_traced_per_update(self, tracing):
        loop = BeamPhaseControlLoop(ControlLoopConfig(saturation_deg=0.01))
        for phase in (1.0, 2.0):
            loop.update(phase)
        events = [r for r in tracing.records if r.name == "control.saturated"]
        assert len(events) == loop.saturation_count > 0


class TestRunOwner:
    def test_bench_publishes_each_run_once(self, enabled):
        sim = CavityInTheLoop(bench_config())
        first = sim.run(0.001)
        snapshot = obs.metrics().snapshot()
        # Publishing after the run adds nothing: the run already did.
        sim.deadline.publish()
        sim.control.publish()
        sim._adc.publish()
        assert obs.metrics().snapshot() == snapshot
        # A second run publishes its own revolutions only (the monitor's
        # stats span both runs).
        second = sim.run(0.001)
        n = second.deadline.n_iterations
        assert n == 2 * first.deadline.n_iterations == 1600
        assert _value("hil_slack_ticks") == n
        assert _value("control_updates_total") == n
        assert _value("signal_adc_samples_total") == 2 * n

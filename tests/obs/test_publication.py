"""Per-revolution telemetry is published once per run, by the run owner.

The deadline monitor, both ADC paths, the DAC, the CGRA interpreter, the
FPGA framework and the beam-phase control loop write nothing to the
registry per call; they count into state they own, and :meth:`publish`
hands the counts over.  Publishing again adds nothing, a deadline miss
that raises still reaches ``hil_deadline_misses_total``, and the
registry writes of a closed-loop run do not grow with its length.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cgra.context import build_context_images
from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler
from repro.cgra.sensor import SensorBus
from repro.control import BeamPhaseControlLoop, ControlLoopConfig
from repro.errors import RealTimeViolation
from repro.experiments.mde import bench_config
from repro.faults.spec import FaultKind, FaultSpec
from repro.hil.closed_loop import SampleAccurateBench, SampleAccurateBenchConfig
from repro.hil.realtime import DeadlineMonitor
from repro.hil.simulator import CavityInTheLoop, HilConfig
from repro.obs.registry import Counter, Gauge, Histogram
from repro.physics import KNOWN_IONS, SIS18
from repro.signal.adc import ADC
from repro.signal.dac import DAC


def _value(name: str, **labels):
    instrument = obs.metrics().get(name)
    return instrument.count(**labels) if instrument.kind == "histogram" else (
        instrument.value(**labels))


class TestDeadlineMonitor:
    def test_nothing_recorded_until_published(self, enabled):
        mon = DeadlineMonitor(128)
        mon.check_revolution(1 / 800e3)
        assert _value("hil_slack_ticks") == 0
        mon.publish()
        assert _value("hil_slack_ticks") == 1
        assert _value("hil_deadline_misses_total") == 0

    def test_publishing_twice_does_not_double_count(self, enabled):
        mon = DeadlineMonitor(128)
        mon.check_revolution(1 / 800e3)
        with pytest.raises(RealTimeViolation):
            mon.check_revolution(1 / 1.0e6)  # miss: publishes, then raises
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
        mon = DeadlineMonitor(128)
        with pytest.raises(RealTimeViolation):
            mon.check_revolution(1 / 1.0e6)  # publishes while telemetry is off
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

    def test_array_counts_published_once(self, enabled):
        adc = ADC()
        adc.convert(np.array([0.1, 5.0, -5.0, 0.2]))
        adc.quantize(np.array([[0.3, 1.5], [-0.2, 0.0]]))
        adc.quantize(0.25)  # 0-d
        adc.convert_scalar(-3.0)  # both paths share the pending counts
        assert _value("signal_adc_samples_total") == 0
        assert _value("signal_adc_clips_total") == 0
        adc.publish()
        adc.publish()
        assert _value("signal_adc_samples_total") == 10
        assert _value("signal_adc_clips_total") == 4

    def test_array_path_counts_nothing_while_disabled(self):
        adc = ADC()
        adc.convert(np.array([0.1, 5.0]))
        obs.enable()
        adc.publish()
        assert _value("signal_adc_samples_total") == 0
        assert _value("signal_adc_clips_total") == 0


class TestDac:
    def test_counts_published_once(self, enabled):
        dac = DAC()
        dac.convert(np.array([0.1, 3.0, -3.0]))
        dac.convert(0.2)
        dac.convert(5.0)
        assert _value("signal_dac_samples_total") == 0
        dac.publish()
        dac.publish()
        assert _value("signal_dac_samples_total") == 5
        assert _value("signal_dac_clips_total") == 3


class TestInterpreter:
    SOURCE = """
    void k() {
        float s = 0.0;
        while (1) {
            float v = read_sensor(0);
            write_actuator(16, s);
            s = s + v * 2.0;
        }
    }
    """

    def _executor(self):
        graph = compile_c_to_dfg(self.SOURCE)
        schedule = ListScheduler(CgraFabric(CgraConfig(rows=2, cols=2))).schedule(graph)
        bus = SensorBus()
        bus.register_reader(0, lambda: 1.0)
        bus.register_writer(16, lambda v: None)
        return CgraExecutor(schedule, bus, {})

    def test_iterations_published_once(self, enabled):
        ex = self._executor()
        for _ in range(3):
            ex.run_iteration()
        assert _value("cgra_iterations_total", executor="sequential") == 0
        ex.publish()
        ex.publish()
        length = ex.schedule_length
        ops = sum(len(image.entries) for image in build_context_images(ex.schedule).values())
        assert _value("cgra_iterations_total", executor="sequential") == 3
        assert _value("cgra_engine_iterations_total", engine="interpreted") == 3
        assert _value("cgra_ticks_per_iteration", executor="sequential") == length
        assert _value("cgra_context_switches_total", executor="sequential") == 3 * length
        assert _value("cgra_ops_executed_total", executor="sequential") == 3 * ops

    def test_run_publishes(self, enabled):
        ex = self._executor()
        ex.run(2)
        assert _value("cgra_iterations_total", executor="sequential") == 2


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

    def test_batched_bench_publishes_both_adc_legs(self, enabled):
        base = bench_config()
        lanes = 4
        bench = CavityInTheLoop(HilConfig(
            ring=base.ring, ion=base.ion, jump_deg=(8.0,) * lanes,
            record_every=8,
        ))
        res = bench.run(0.001)
        assert res.n_turns == 800
        # One lane-uniform reference read and one [B] gap read per turn.
        assert _value("signal_adc_samples_total") == res.n_turns * (1 + lanes)
        bench._adc.publish()
        assert _value("signal_adc_samples_total") == res.n_turns * (1 + lanes)


_REGISTRY_WRITES = (
    (Counter, "inc"),
    (Gauge, "set"),
    (Gauge, "inc"),
    (Histogram, "observe"),
    (Histogram, "observe_many"),
)


@pytest.fixture()
def registry_writes(monkeypatch):
    """Names of the registry writes made while the fixture is live."""
    calls: list[str] = []
    for cls, name in _REGISTRY_WRITES:
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            calls.append(f"{type(self).__name__}.{_name}")
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


def _batched(faults=()):
    base = bench_config()
    return CavityInTheLoop(HilConfig(
        ring=base.ring, ion=base.ion, jump_deg=(4.0, 8.0, 8.0, 12.0),
        record_every=8, faults=faults,
    ))


def _faulted_batched():
    # Windows open from 0.2 ms to past either run's end, on three lanes:
    # the gain, phase and stuck-bit (array ADC) legs all run.
    return _batched(faults=(
        FaultSpec(kind=FaultKind.CAVITY_FAILURE, magnitude=0.3,
                  onset_time=0.0002, target=0),
        FaultSpec(kind=FaultKind.MICROPHONIC_DETUNING, magnitude=20.0,
                  onset_time=0.0002, duration=0.01, target=1, seed=3),
        FaultSpec(kind=FaultKind.ADC_STUCK_BIT, magnitude=6.0,
                  onset_time=0.0002, target=2),
    ))


class TestWritesPerRun:
    """A run's registry writes are per run, not per revolution."""

    @pytest.mark.parametrize("make", [
        lambda: CavityInTheLoop(bench_config()),
        lambda: CavityInTheLoop(bench_config(engine="cgra")),
        _batched,
        _faulted_batched,
    ], ids=["scalar", "scalar_cgra", "batched", "batched_faulted"])
    def test_writes_do_not_grow_with_the_run(self, enabled, registry_writes, make):
        writes = []
        for duration in (0.001, 0.004):
            bench = make()
            registry_writes.clear()
            bench.run(duration)
            writes.append(sorted(registry_writes))
        assert writes[0] and writes[0] == writes[1]

    def test_sample_accurate_writes_do_not_grow(self, enabled, registry_writes):
        writes = []
        for n_revolutions in (20, 40):
            bench = SampleAccurateBench(SampleAccurateBenchConfig(
                ring=SIS18, ion=KNOWN_IONS["14N7+"], jump_start_time=0.0,
            ))
            registry_writes.clear()
            bench.run_revolutions(n_revolutions)
            writes.append(sorted(registry_writes))
        assert writes[0] and writes[0] == writes[1]

"""Tests for the closed-loop cavity-in-the-loop simulator (Fig. 4)."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, FaultSpecError, HilError
from repro.faults.inject import LOOP_KINDS
from repro.faults.spec import FaultKind, FaultSpec
from repro.hil.simulator import CavityInTheLoop, HilConfig
from repro.physics import SIS18, KNOWN_IONS
from repro.physics.oscillation import estimate_oscillation_frequency


def config(**overrides):
    kwargs = dict(ring=SIS18, ion=KNOWN_IONS["14N7+"], record_every=4,
                  jump_start_time=0.002)
    kwargs.update(overrides)
    return HilConfig(**kwargs)


def assert_engines_identical(duration=0.004, *, precision, **overrides):
    """Run the interpreter and the generated step on the same bench at
    ``precision``; every recorded array must match bit for bit."""
    r_cgra = CavityInTheLoop(
        config(engine="cgra", precision=precision, record_every=1, **overrides)
    ).run(duration)
    r_py = CavityInTheLoop(
        config(engine="python", precision=precision, record_every=1, **overrides)
    ).run(duration)
    for name in ("time", "phase_deg", "correction_deg", "jump_deg",
                 "delta_t", "delta_t_all", "gamma_ref"):
        np.testing.assert_array_equal(
            getattr(r_cgra, name), getattr(r_py, name), err_msg=name
        )


#: A magnitude inside each loop fault's window, in the kind's unit.
_MAGNITUDES = {
    FaultKind.CAVITY_FAILURE: st.floats(0.0, 1.0),
    FaultKind.MICROPHONIC_DETUNING: st.floats(0.0, 200.0),
    FaultKind.AMPLIFIER_SATURATION: st.floats(0.05, 1.0),
    FaultKind.DETUNING_TRANSIENT: st.floats(-500.0, 500.0),
    FaultKind.ADC_STUCK_BIT: st.integers(0, 13).map(float),
    FaultKind.DAC_CLIPPING: st.floats(0.05, 1.0),
    FaultKind.DDS_PHASE_GLITCH: st.floats(-math.pi, math.pi),
}


@st.composite
def bench_overrides(draw):
    """Bench settings that change the model or its sensor path."""
    pipelined = draw(st.booleans())
    # Unpipelined, only one bunch fits the 138-tick revolution budget.
    n_bunches = draw(st.integers(1, 4 if pipelined else 1))
    kind = draw(st.sampled_from(sorted(LOOP_KINDS, key=lambda k: k.value)))
    fault = FaultSpec(
        kind=kind, magnitude=draw(_MAGNITUDES[kind]),
        onset_time=draw(st.floats(0.0, 0.001)),
        duration=draw(st.none() | st.floats(0.0002, 0.001)), seed=7,
    )
    offsets = st.floats(-20e-9, 20e-9)
    return dict(
        pipelined=pipelined,
        n_bunches=n_bunches,
        control_source=draw(st.sampled_from(["bunch0", "mean"])),
        dual_harmonic_ratio=draw(st.floats(0.0, 0.45)),
        quantize_adc=draw(st.booleans()),
        initial_delta_t=tuple(draw(st.lists(offsets, min_size=n_bunches,
                                            max_size=n_bunches))),
        faults=(fault,),
        jump_start_time=0.0002,
    )


class TestConfigValidation:
    def test_engine_names(self):
        with pytest.raises(ConfigurationError, match="engine must be 'python' or 'cgra'"):
            config(engine="verilog")

    @pytest.mark.parametrize("engine", ["python", "cgra"])
    def test_precision_names(self, engine):
        # Checked here, not first when the bench builds its engine.
        with pytest.raises(ConfigurationError,
                           match="precision must be 'single' or 'double'"):
            config(engine=engine, precision="half")

    def test_bunch_bounds(self):
        with pytest.raises(ConfigurationError):
            config(n_bunches=0)
        with pytest.raises(ConfigurationError):
            config(n_bunches=5, harmonic=4)

    def test_adc_amplitude_bounds(self):
        with pytest.raises(ConfigurationError):
            config(adc_amplitude=1.5)  # beyond the 2 Vpp input limit

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["revolution_frequency", "synchrotron_frequency",
                                       "jump_toggle_period", "jump_start_time",
                                       "jump_deg", "initial_delta_t"])
    def test_non_finite_values_rejected(self, field, value):
        if field == "initial_delta_t":
            overrides = dict(n_bunches=2, initial_delta_t=(0.0, value))
            match = "initial_delta_t of bunch 1 must be finite"
        else:
            overrides = {field: value}
            match = f"{field} must be finite"
        with pytest.raises(ConfigurationError, match=match):
            config(**overrides)

    def test_control_rate_must_match_revolution(self):
        from repro.control import ControlLoopConfig

        with pytest.raises(ConfigurationError):
            CavityInTheLoop(config(control=ControlLoopConfig(sample_rate=1e6)))

    @pytest.mark.parametrize("kind, target", [
        (FaultKind.CAVITY_FAILURE, 1),
        (FaultKind.DDS_PHASE_GLITCH, 3),
    ])
    def test_fault_lane_checked_at_construction(self, kind, target):
        """The scalar bench has lane 0 only; the config refuses a loop
        fault aimed elsewhere with the bench's own message."""
        spec = FaultSpec(kind=kind, magnitude=0.5, onset_time=0.001, target=target)
        with pytest.raises(FaultSpecError,
                           match=f"{kind.value} targets lane {target} on a scalar bench"):
            config(faults=(spec,))


class TestCalibration:
    def test_gap_voltage_tuned_to_fs(self):
        sim = CavityInTheLoop(config())
        from repro.physics.rf import synchrotron_frequency

        f_s = synchrotron_frequency(
            SIS18, KNOWN_IONS["14N7+"], sim.rf, sim.gamma0
        )
        assert f_s == pytest.approx(1.28e3, rel=1e-9)

    def test_scales_relate_by_harmonic(self):
        sim = CavityInTheLoop(config())
        assert sim.ref_scale == pytest.approx(4 * sim.gap_scale)


class TestRunBehaviour:
    def test_oscillation_at_synchrotron_frequency(self):
        sim = CavityInTheLoop(config())
        res = sim.run(0.02)
        sel = (res.time > 0.002) & (res.time < 0.012)
        f = estimate_oscillation_frequency(res.time[sel], res.phase_deg[sel])
        assert f == pytest.approx(1.28e3, rel=0.08)

    def test_settles_at_jump_level(self):
        sim = CavityInTheLoop(config())
        res = sim.run(0.05)
        settled = res.phase_deg[(res.time > 0.04) & (res.time < 0.05)]
        assert settled.mean() == pytest.approx(8.0, abs=0.3)

    def test_first_peak_near_twice_jump(self):
        sim = CavityInTheLoop(config())
        res = sim.run(0.01)
        assert 13.0 < res.phase_deg.max() < 17.0

    def test_open_loop_does_not_damp(self):
        from repro.control import ControlLoopConfig

        sim = CavityInTheLoop(config(
            control=ControlLoopConfig(sample_rate=800e3, enabled=False)
        ))
        res = sim.run(0.04)
        late = res.phase_deg[res.time > 0.03]
        assert late.max() - late.min() > 10.0  # still swinging

    def test_no_jump_no_motion(self):
        sim = CavityInTheLoop(config(jump_deg=0.0))
        res = sim.run(0.01)
        assert np.abs(res.phase_deg).max() < 0.2

    def test_deadline_statistics(self):
        sim = CavityInTheLoop(config())
        res = sim.run(0.005)
        assert res.deadline.met
        assert res.schedule_length == sim.model.schedule_length

    def test_record_every_decimates(self):
        r1 = CavityInTheLoop(config(record_every=1)).run(0.002)
        r8 = CavityInTheLoop(config(record_every=8)).run(0.002)
        assert len(r1.time) == pytest.approx(8 * len(r8.time), abs=8)

    def test_smoothed_trace_same_length(self):
        res = CavityInTheLoop(config()).run(0.005)
        assert res.phase_deg_smoothed(5).shape == res.phase_deg.shape

    def test_duration_validation(self):
        sim = CavityInTheLoop(config())
        for duration in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(HilError, match="duration must be"):
                sim.run(duration)

    def test_correction_trace_bounded(self):
        res = CavityInTheLoop(config()).run(0.02)
        assert np.abs(res.correction_deg).max() < 60.0

    @pytest.mark.parametrize("overrides", [
        dict(engine="python"), dict(engine="cgra"), dict(jump_deg=(4.0, 8.0)),
    ], ids=["python", "cgra", "lanes"])
    def test_finished_bench_needs_no_cycle_collector(self, overrides):
        """The sensor bus holds no reference back to the bench: a cycle
        would keep every finished bench, and its per-revolution deadline
        record, alive until the cyclic collector ran."""
        sim = CavityInTheLoop(config(**overrides))
        sim.run(0.0005)
        ref = weakref.ref(sim)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del sim
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_jump_trace_records_toggles(self):
        res = CavityInTheLoop(config(jump_start_time=0.001)).run(0.06)
        assert set(np.unique(res.jump_deg)) == {0.0, 8.0}


class TestEngines:
    @pytest.mark.parametrize("pipelined", [True, False])
    def test_cgra_python_equivalence(self, pipelined):
        """The headline invariant: both engines produce identical traces
        at double precision."""
        assert_engines_identical(precision="double", pipelined=pipelined)

    def test_cgra_python_equivalence_dual_harmonic(self):
        assert_engines_identical(precision="double", dual_harmonic_ratio=0.2)

    def test_cgra_python_equivalence_adc_stuck_bit(self):
        assert_engines_identical(precision="double", faults=(FaultSpec(
            kind=FaultKind.ADC_STUCK_BIT, magnitude=9.0, onset_time=0.001,
            duration=0.002),))

    @settings(max_examples=12, deadline=None)
    @given(overrides=bench_overrides(), precision=st.sampled_from(["single", "double"]))
    def test_generated_step_matches_interpreter(self, overrides, precision):
        """The step generated from the schedule rounds every op as the
        interpreter does, at either precision, whatever the bench runs."""
        assert_engines_identical(0.0015, precision=precision, **overrides)

    def test_single_precision_close_to_double(self):
        r32 = CavityInTheLoop(config(engine="cgra", precision="single",
                                     record_every=1)).run(0.004)
        r64 = CavityInTheLoop(config(engine="cgra", precision="double",
                                     record_every=1)).run(0.004)
        # Single-precision CGRA arithmetic stays within ~1 deg of double
        # over a 4 ms window — small against the 8-16 deg signals.
        assert np.abs(r32.phase_deg - r64.phase_deg).max() < 1.0

    def test_quantize_adc_effect_is_small(self):
        r_q = CavityInTheLoop(config(quantize_adc=True, record_every=1)).run(0.004)
        r_i = CavityInTheLoop(config(quantize_adc=False, record_every=1)).run(0.004)
        diff = np.abs(r_q.phase_deg - r_i.phase_deg).max()
        assert 0.0 < diff < 0.5  # quantisation visible but tiny

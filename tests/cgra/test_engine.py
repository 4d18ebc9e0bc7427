"""Parity tests for the compiled engine (repro.cgra.engine).

The compiled engine (:class:`BatchedCgraExecutor`) lowers a verified
schedule into flat generated NumPy code that advances B lanes in
lockstep.  Its contract is **bit-exactness** with the cycle-accurate
interpreter (:class:`CgraExecutor`), the oracle: for every kernel,
precision and lane, the register file, actuator writes and fault
behaviour must be identical — not approximately, to the last ULP.
These tests compare the two iteration by iteration on the built-in beam
models, through the host interface, and on numeric faults.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.cgra import (
    BatchSensorBus,
    BatchedCgraExecutor,
    CgraExecutor,
    SensorBus,
    compile_beam_model,
)
from repro.cgra.engine import compile_program
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
)
from repro.errors import ExecutionError
from repro.physics import KNOWN_IONS, SIS18

#: Per-lane gap-voltage scales of the batched beam-model runs: the lanes
#: differ, so the bunch math runs on ``[B]`` arrays.
V_SCALES = (4862.0, 5000.0, 4000.0)


def _beam_params(model):
    gamma0 = SIS18.gamma_from_revolution_frequency(800e3)
    return model.default_params(
        gamma_r0=gamma0,
        q_over_mc2=KNOWN_IONS["14N7+"].gamma_gain_per_volt(),
        orbit_length=SIS18.circumference,
        alpha_c=SIS18.alpha_c,
        v_scale=4862.0,
        v_scale_ref=4 * 4862.0,
        f_sample=250e6,
        harmonic=4,
    )


def _ref(a):
    # The reference particle is lane-uniform: a scalar address.
    return math.sin(2 * math.pi * 800e3 * a / 250e6)


def _rational(amp):
    # Bounded rational — evaluates identically in scalar Python floats
    # and elementwise NumPy float64 (IEEE mult/div/abs only), so per-lane
    # reads compare exactly on every platform.
    return lambda a: amp * (a * 1e-3) / (1.0 + abs(a) * 1e-3)


_gap = _rational(0.6)


def _scalar_bus(n_bunches):
    bus = SensorBus()
    bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
    bus.register_addr_reader(SENSOR_REF_BUFFER, _ref)
    bus.register_addr_reader(SENSOR_GAP_BUFFER, _gap)
    outs: list[float] = []
    for i in range(n_bunches):
        bus.register_writer(ACTUATOR_DELTA_T + i, outs.append)
    return bus, outs


def _batch_bus(n_bunches, batch):
    bus = BatchSensorBus(batch)
    bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
    bus.register_addr_reader(SENSOR_REF_BUFFER, _ref)
    bus.register_addr_reader(SENSOR_GAP_BUFFER, _gap)
    outs: list[np.ndarray] = []
    for i in range(n_bunches):
        bus.register_writer(ACTUATOR_DELTA_T + i, lambda v: outs.append(np.array(v)))
    return bus, outs


def _pair(model, precision="single"):
    """A batched executor with one lane per :data:`V_SCALES` entry, and
    one interpreter (with its write log) per lane."""
    params = _beam_params(model)
    bus_b, outs_b = _batch_bus(model.n_bunches, len(V_SCALES))
    ex_b = BatchedCgraExecutor(model.schedule, bus_b, {**params, "V_SCALE": list(V_SCALES)},
                               precision=precision)
    lanes = []
    for v_scale in V_SCALES:
        bus_i, outs_i = _scalar_bus(model.n_bunches)
        lanes.append((CgraExecutor(model.schedule, bus_i, {**params, "V_SCALE": v_scale},
                                   precision=precision), outs_i))
    return ex_b, outs_b, lanes


def _assert_writes_match(outs_b, lanes):
    for lane, (_ex_i, outs_i) in enumerate(lanes):
        assert [float(w[lane]) for w in outs_b] == outs_i, f"lane {lane} writes"


class TestSequentialParity:
    """Each lane of the compiled engine vs the interpreter."""

    @pytest.mark.parametrize("n_bunches", [1, 2, 4])
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_beam_model_bit_exact(self, n_bunches, precision):
        model = compile_beam_model(n_bunches=n_bunches, pipelined=True)
        ex_b, outs_b, lanes = _pair(model, precision)
        for _ in range(40):
            ex_b.run_iteration()
            for lane, (ex_i, _outs) in enumerate(lanes):
                ex_i.run_iteration()
                # Full register file, exact float equality every iteration.
                assert ex_b.lane_registers(lane) == ex_i.registers, f"lane {lane}"
        _assert_writes_match(outs_b, lanes)
        for ex_i, _outs in lanes:
            assert ex_b.iterations == ex_i.iterations == 40
            assert ex_b.actuator_write_ticks == ex_i.actuator_write_ticks

    def test_unpipelined_model(self):
        model = compile_beam_model(n_bunches=1, pipelined=False)
        ex_b, outs_b, lanes = _pair(model)
        ex_b.run(30)
        for ex_i, _outs in lanes:
            ex_i.run(30)
        _assert_writes_match(outs_b, lanes)

    def test_host_interface_matches(self):
        """set_param / set_register / register_of behave identically."""
        model = compile_beam_model(n_bunches=1)
        ex_b, _outs, lanes = _pair(model)
        offsets = [3.5e-9, -1.0e-9, 0.0]
        scales = [5000.0, 4500.0, 5200.0]
        ex_b.run(5)
        ex_b.set_register("dt[0]", offsets)
        ex_b.set_param("V_SCALE", scales)
        ex_b.run(15)
        for lane, (ex_i, _outs) in enumerate(lanes):
            ex_i.run(5)
            ex_i.set_register("dt[0]", offsets[lane])
            ex_i.set_param("V_SCALE", scales[lane])
            ex_i.run(15)
            assert ex_b.register_of("dt[0]")[lane] == ex_i.register_of("dt[0]")
            assert ex_b.register_of("gamma_r")[lane] == ex_i.register_of("gamma_r")
            assert ex_b.lane_registers(lane) == ex_i.registers

    def test_unknown_names_raise(self):
        model = compile_beam_model(n_bunches=1)
        ex_b, _outs, lanes = _pair(model)
        for ex in (ex_b, lanes[0][0]):
            with pytest.raises(ExecutionError):
                ex.set_param("no_such_param", 1.0)
            with pytest.raises(ExecutionError):
                ex.set_register("no_such_reg", 1.0)
            with pytest.raises(ExecutionError):
                ex.register_of("no_such_node")


class TestFaultParity:
    """Numeric faults raise the interpreter's error text, after the
    interpreter's iteration count, in the compiled engine."""

    DIV = "void k(float p) { float x = 1.0; while (1) { x = x / p; } }"
    SQRT = "void k(float p) { float x = 1.0; while (1) { x = sqrt(p); } }"
    COUNTDOWN = ("void k(float p) { float c = 3.0; float x = 0.0; "
                 "while (1) { c = c - p; x = 1.0 / c; } }")

    @staticmethod
    def _schedule(source):
        graph = compile_c_to_dfg(source)
        return ListScheduler(CgraFabric(CgraConfig(rows=2, cols=2))).schedule(graph)

    # The batched step has no guards: errstate raises and the fault is
    # translated back to the interpreter's text.  Each case runs once
    # with a lane-uniform parameter (scalar registers) and once with one
    # faulting lane out of four.
    @pytest.mark.parametrize("driven", [False, True], ids=["run", "run_driven"])
    @pytest.mark.parametrize(
        "source, fault_p, lanes_p, text",
        [
            (DIV, 0.0, [1.0, 2.0, 0.0, 4.0], "division by zero in node"),
            (SQRT, -1.0, [1.0, 4.0, -1.0, 9.0], "sqrt of negative value in node"),
            (COUNTDOWN, 1.0, [-1.0, -0.5, 1.0, -2.0], "division by zero in node"),
        ],
        ids=["division_by_zero", "sqrt_of_negative", "iteration_count"],
    )
    def test_batched_matches_interpreter(self, driven, source, fault_p, lanes_p, text):
        ex_i = CgraExecutor(self._schedule(source), SensorBus(), {"p": fault_p})
        with pytest.raises(ExecutionError) as err_i:
            ex_i.run(10)
        assert text in str(err_i.value)
        for p in (fault_p, lanes_p):
            ex_b = BatchedCgraExecutor(self._schedule(source), BatchSensorBus(4), {"p": p})
            with pytest.raises(ExecutionError) as err_b:
                ex_b.run_driven(10) if driven else ex_b.run(10)
            assert str(err_b.value) == str(err_i.value)
            assert ex_b.iterations == ex_i.iterations

    # On a scalar bus the step runs on host scalars: at double a Python
    # float division raises ZeroDivisionError and math.sqrt ValueError,
    # at single float32 NumPy scalars raise under errstate.
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_scalar_step_division_by_zero(self, precision):
        self._assert_scalar_step_fault(self.COUNTDOWN, 1.0, precision, "division by zero in node")

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_scalar_step_sqrt_of_negative(self, precision):
        self._assert_scalar_step_fault(self.SQRT, -1.0, precision, "sqrt of negative value in node")

    def _assert_scalar_step_fault(self, source, p, precision, text):
        p = {"p": p}
        ex_i = CgraExecutor(self._schedule(source), SensorBus(), p, precision=precision)
        with pytest.raises(ExecutionError, match=text) as err_i:
            ex_i.run(10)
        ex_s = BatchedCgraExecutor(self._schedule(source), SensorBus(), p, precision=precision)
        with pytest.raises(ExecutionError) as err_s:
            ex_s.run(10)
        assert str(err_s.value) == str(err_i.value)
        assert ex_s.iterations == ex_i.iterations

    def test_batched_other_faults_keep_generic_text(self):
        """Overflow, and faults raised inside a bus handler, are not
        mistaken for a guarded division or square root."""
        source = "void k(float p) { float x = 1.0; while (1) { x = x * p; } }"
        ex_b = BatchedCgraExecutor(self._schedule(source), BatchSensorBus(2),
                                   {"p": [1.0, 1e30]})
        with pytest.raises(ExecutionError) as err:
            ex_b.run(5)
        assert str(err.value).startswith(
            "non-finite value produced in iteration 1 of the batched kernel:")
        assert ex_b.iterations == 1

        source = "void k() { float x = 1.0; while (1) { x = x / read_sensor(0); } }"
        bus = BatchSensorBus(2)
        bus.register_reader(0, lambda: np.float64(1.0) / np.float64(0.0))
        ex_b = BatchedCgraExecutor(self._schedule(source), bus, {})
        with pytest.raises(ExecutionError) as err:
            ex_b.run(1)
        assert str(err.value).startswith(
            "non-finite value produced in iteration 0 of the batched kernel:")


class TestBatchedParity:
    """Each lane of the batched executor is bit-identical to an
    interpreter run."""

    BATCH = 5

    def _scalar_run(self, model, params, ref_amp, gap_amp, n_iter):
        bus = SensorBus()
        bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
        bus.register_addr_reader(SENSOR_REF_BUFFER, _rational(ref_amp))
        bus.register_addr_reader(SENSOR_GAP_BUFFER, _rational(gap_amp))
        outs: list[float] = []
        bus.register_writer(ACTUATOR_DELTA_T, outs.append)
        ex = CgraExecutor(model.schedule, bus, params)
        traces = []
        for _ in range(n_iter):
            ex.run_iteration()
            traces.append(dict(ex.registers))
        return traces, outs

    def _check_lanes(self, ref_amp):
        """Run the beam model on 5 lanes with per-lane gap reads and the
        reference handler scaled by ``ref_amp`` (per lane, or a scalar
        for lane-uniform reads); assert every lane equals its interpreter run.
        Returns the reference addresses seen and the per-iteration
        ``gamma_r`` register views."""
        model = compile_beam_model(n_bunches=1)
        params = _beam_params(model)
        amps = [0.2, 0.5, 0.9, 1.3, 2.0]
        ref_amps = np.broadcast_to(ref_amp, (self.BATCH,))
        n_iter = 25

        bus = BatchSensorBus(batch=self.BATCH)
        bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
        amps_arr = np.asarray(amps)
        ref_addresses: list = []

        def ref_read(a):
            ref_addresses.append(a)
            return ref_amp * (a * 1e-3) / (1.0 + np.abs(a) * 1e-3)

        bus.register_addr_reader(SENSOR_REF_BUFFER, ref_read)
        bus.register_addr_reader(
            SENSOR_GAP_BUFFER,
            lambda a: 0.5 * amps_arr * (a * 1e-3) / (1.0 + np.abs(a) * 1e-3),
        )
        writes: list[np.ndarray] = []
        bus.register_writer(ACTUATOR_DELTA_T, lambda v: writes.append(np.array(v)))
        ex = BatchedCgraExecutor(model.schedule, bus, params)
        batched_traces = []
        gamma_views = []
        for _ in range(n_iter):
            ex.run_iteration()
            batched_traces.append([ex.lane_registers(lane) for lane in range(self.BATCH)])
            gamma_views.append(ex.register_view("gamma_r"))

        for lane, amp in enumerate(amps):
            scalar_traces, scalar_outs = self._scalar_run(
                model, params, float(ref_amps[lane]), 0.5 * amp, n_iter
            )
            for it in range(n_iter):
                assert batched_traces[it][lane] == scalar_traces[it], (
                    f"lane {lane} diverged at iteration {it}"
                )
            assert [float(w[lane]) for w in writes] == scalar_outs
        return ref_addresses, gamma_views

    def test_lanes_match_scalar_runs(self):
        self._check_lanes(np.asarray([0.2, 0.5, 0.9, 1.3, 2.0]))

    def test_lane_uniform_reads_stay_scalar(self):
        """A scalar period and NumPy-polymorphic handlers: the reference
        reads are lane-uniform, every lane still matches its interpreter
        run bit for bit, and the reference particle stays a NumPy scalar."""
        addresses, gamma_views = self._check_lanes(0.7)
        assert all(type(a) is np.float64 for a in addresses)
        assert all(isinstance(g, np.generic) for g in gamma_views)

    def test_host_interface_per_lane(self):
        model = compile_beam_model(n_bunches=1)
        params = _beam_params(model)
        bus = BatchSensorBus(batch=3)
        bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
        bus.register_addr_reader(SENSOR_REF_BUFFER, lambda a: a * 0.0)
        bus.register_addr_reader(SENSOR_GAP_BUFFER, lambda a: a * 0.0)
        bus.register_writer(ACTUATOR_DELTA_T, lambda v: None)
        ex = BatchedCgraExecutor(model.schedule, bus, params)
        ex.set_register("dt[0]", [1e-9, 2e-9, 3e-9])
        # Values are rounded to the kernel precision (single) on the way in.
        expect = np.asarray([1e-9, 2e-9, 3e-9], dtype=np.float32).astype(float)
        assert list(ex.register_of("dt[0]")) == list(expect)
        ex.set_param("V_SCALE", [4000.0, 4500.0, 5000.0])
        ex.run(3)
        assert ex.iterations == 3
        with pytest.raises(ExecutionError):
            ex.set_register("dt[0]", [1.0, 2.0])  # wrong lane count
        with pytest.raises(ExecutionError):
            ex.lane_registers(3)

    @pytest.mark.parametrize(
        "value, shown",
        [(float("nan"), "nan"), (float("-inf"), "-inf"), ([1e-9, float("nan"), 2e-9], "nan"),
         (1e39, "1e+39")],
        ids=["nan", "inf", "nan_lane", "single_overflow"],
    )
    def test_non_finite_host_values_rejected(self, value, shown):
        """Parameters and registers must be finite at the kernel
        precision, at construction and on every host write."""
        model = compile_beam_model(n_bunches=1)
        params = _beam_params(model)
        bus = BatchSensorBus(batch=3)
        tail = f"must be finite at single precision, got {shown}"
        with pytest.raises(ExecutionError, match=re.escape(f"parameter 'V_SCALE' {tail}")):
            BatchedCgraExecutor(model.schedule, bus, {**params, "V_SCALE": value})
        ex = BatchedCgraExecutor(model.schedule, bus, params)
        with pytest.raises(ExecutionError, match=re.escape(f"parameter 'V_SCALE' {tail}")):
            ex.set_param("V_SCALE", value)
        with pytest.raises(ExecutionError, match=re.escape(f"register 'dt[0]' {tail}")):
            ex.set_register("dt[0]", value)
        # A rejected write leaves the register file as it was.
        assert ex.register_of("dt[0]").tolist() == [0.0, 0.0, 0.0]


class TestEngineSelection:
    """Every executor of one schedule selects the same compiled program."""

    def test_program_is_cached_per_schedule(self):
        model = compile_beam_model(n_bunches=1)
        p1 = compile_program(model.schedule, "single")
        p2 = compile_program(model.schedule, "single")
        assert p1 is p2
        assert compile_program(model.schedule, "double") is not p1

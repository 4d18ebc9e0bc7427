"""Tests for cycle-accurate context execution."""

import pytest

from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler
from repro.cgra.executor import CgraExecutor
from repro.cgra.sensor import SensorBus
from repro.errors import CgraError, ExecutionError


def build(source, params=None, precision="double", bus=None, **cfg):
    graph = compile_c_to_dfg(source)
    schedule = ListScheduler(CgraFabric(CgraConfig(**cfg))).schedule(graph)
    return CgraExecutor(schedule, bus or SensorBus(), params or {}, precision=precision)


class TestArithmetic:
    def test_accumulator(self):
        ex = build("void k() { float x = 0.0; while (1) { x = x + 2.5; } }")
        ex.run(4)
        assert ex.register_of("x") == pytest.approx(10.0)

    def test_parameters(self):
        ex = build(
            "void k(float A) { float x = 0.0; while (1) { x = x + A; } }",
            params={"A": 3.0},
        )
        ex.run(3)
        assert ex.register_of("x") == 9.0

    def test_param_init_of_phi(self):
        ex = build(
            "void k(float X0) { float x = X0; while (1) { x = x * 0.5; } }",
            params={"X0": 8.0},
        )
        ex.run(3)
        assert ex.register_of("x") == 1.0

    def test_sqrt_div(self):
        ex = build(
            "void k() { float x = 0.0; while (1) { x = sqrt(16.0) / (1.0 + 1.0) + x * 0.0; } }"
        )
        ex.run(1)
        assert ex.register_of("x") == pytest.approx(2.0)

    def test_select_and_compare(self):
        ex = build(
            "void k() { float x = 0.0; while (1) { x = x < 2.0 ? x + 1.0 : x; } }"
        )
        ex.run(5)
        assert ex.register_of("x") == 2.0

    def test_fmin_fmax(self):
        ex = build(
            "void k() { float x = 0.0; while (1) { x = fmin(fmax(x + 1.0, 0.0), 3.0); } }"
        )
        ex.run(10)
        assert ex.register_of("x") == 3.0

    def test_missing_param_rejected(self):
        with pytest.raises(ExecutionError):
            build("void k(float A) { float x = 0.0; while (1) { x = x + A; } }")

    def test_unknown_param_rejected(self):
        with pytest.raises(ExecutionError):
            build(
                "void k() { float x = 0.0; while (1) { x = x + 1.0; } }",
                params={"NOPE": 1.0},
            )

    def test_division_by_zero_raises(self):
        ex = build(
            "void k(float D) { float x = 0.0; while (1) { x = x + 1.0 / D; } }",
            params={"D": 0.0},
        )
        with pytest.raises(ExecutionError):
            ex.run(1)

    def test_sqrt_negative_raises(self):
        ex = build(
            "void k(float A) { float x = 0.0; while (1) { x = x + sqrt(A); } }",
            params={"A": -4.0},
        )
        with pytest.raises(ExecutionError):
            ex.run(1)

    def test_nonfinite_detected(self):
        ex = build(
            "void k() { float x = 1.0; while (1) { x = x * 1e30; } }",
            precision="single",
        )
        with pytest.raises(ExecutionError):
            ex.run(10)


class TestPrecision:
    def test_single_rounds_per_operation(self):
        src = "void k() { float x = 0.0; while (1) { x = x + 0.1; } }"
        single = build(src, precision="single")
        double = build(src, precision="double")
        single.run(1000)
        double.run(1000)
        diff = abs(single.register_of("x") - double.register_of("x"))
        assert 0.0 < diff < 1e-2

    def test_double_matches_python(self):
        ex = build(
            "void k() { float x = 1.0; while (1) { x = x * 1.0001 + 0.001; } }"
        )
        expected = 1.0
        for _ in range(100):
            expected = expected * 1.0001 + 0.001
        ex.run(100)
        assert ex.register_of("x") == pytest.approx(expected, rel=1e-15)

    def test_bad_precision_rejected(self):
        with pytest.raises(ExecutionError):
            build("void k() { float x = 0.0; while (1) { x = x + 1.0; } }",
                  precision="half")


class TestIOExecution:
    SOURCE = """
    void k() {
        float s = 0.0;
        while (1) {
            float v = read_sensor2(1, s * 10.0);
            write_actuator(16, s);
            s = s + v + read_sensor(0);
        }
    }
    """

    def test_sensor_wiring(self):
        bus = SensorBus()
        bus.register_reader(0, lambda: 1.0)
        addrs = []

        def addr_reader(a):
            addrs.append(a)
            return 0.5

        bus.register_addr_reader(1, addr_reader)
        outs = []
        bus.register_writer(16, outs.append)
        ex = build(self.SOURCE, bus=bus)
        ex.run(3)
        assert outs == [0.0, 1.5, 3.0]
        assert addrs == [0.0, 15.0, 30.0]
        assert bus.read_counts == {0: 3, 1: 3}
        assert bus.write_counts == {16: 3}

    def test_unmapped_sensor_raises(self):
        ex = build(self.SOURCE, bus=SensorBus())
        with pytest.raises(CgraError):
            ex.run(1)

    def test_actuator_write_tick_deterministic(self):
        bus = SensorBus()
        bus.register_reader(0, lambda: 1.0)
        bus.register_addr_reader(1, lambda a: 0.0)
        bus.register_writer(16, lambda v: None)
        ex = build(self.SOURCE, bus=bus)
        ticks = set()
        for _ in range(5):
            ex.run_iteration()
            ticks.add(ex.actuator_write_ticks[16])
        assert len(ticks) == 1  # the CGRA's defining property


class TestHostAccess:
    def test_set_param_between_iterations(self):
        ex = build(
            "void k(float A) { float x = 0.0; while (1) { x = x + A; } }",
            params={"A": 1.0},
        )
        ex.run(2)
        ex.set_param("A", 10.0)
        ex.run(1)
        assert ex.register_of("x") == 12.0

    def test_set_unknown_param(self):
        ex = build(
            "void k(float A) { float x = 0.0; while (1) { x = x + A; } }",
            params={"A": 1.0},
        )
        with pytest.raises(ExecutionError):
            ex.set_param("B", 1.0)

    def test_register_of_unknown(self):
        ex = build("void k() { float x = 0.0; while (1) { x = x + 1.0; } }")
        with pytest.raises(ExecutionError):
            ex.register_of("nope")

    def test_negative_iterations(self):
        ex = build("void k() { float x = 0.0; while (1) { x = x + 1.0; } }")
        with pytest.raises(ExecutionError):
            ex.run(-1)

    def test_iteration_counter(self):
        ex = build("void k() { float x = 0.0; while (1) { x = x + 1.0; } }")
        ex.run(7)
        assert ex.iterations == 7


class TestPipelinedSemantics:
    def test_barrier_delays_by_one_iteration(self):
        source = """
        void k() {
            float x = 0.0;
            while (1) {
                float v = read_sensor(0);
                pipeline_barrier();
                x = x + v;
            }
        }
        """
        values = iter([10.0, 20.0, 30.0, 40.0])
        bus = SensorBus()
        bus.register_reader(0, lambda: next(values))
        ex = build(source, bus=bus)
        ex.run(3)
        # Iteration 0 adds the barrier-init 0, then the sensed values
        # arrive one iteration late: x = 0 + 10 + 20.
        assert ex.register_of("x") == 30.0

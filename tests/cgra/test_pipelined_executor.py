"""Tests for cycle-accurate modulo-schedule execution."""

import numpy as np
import pytest

from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.modulo import ModuloScheduler
from repro.cgra.pipelined_executor import PipelinedExecutor
from repro.cgra.scheduler import ListScheduler
from repro.cgra.sensor import SensorBus
from repro.errors import ExecutionError

KERNEL = """
void k() {
    float x = 0.5;
    float y = 1.0;
    while (1) {
        float s = read_sensor(0);
        write_actuator(16, x);
        x = x * 0.75 + s * 0.1;
        y = sqrt(y + x * x);
        write_actuator(17, y);
    }
}
"""


def make_bus():
    bus = SensorBus()
    state = {"n": 0}

    def sensor():
        state["n"] += 1
        return np.sin(0.37 * state["n"])

    bus.register_reader(0, sensor)
    outs = {16: [], 17: []}
    bus.register_writer(16, outs[16].append)
    bus.register_writer(17, outs[17].append)
    return bus, outs


@pytest.fixture(scope="module")
def compiled():
    graph = compile_c_to_dfg(KERNEL)
    fabric = CgraFabric(CgraConfig(rows=3, cols=3))
    return graph, fabric, ModuloScheduler(fabric).schedule(graph)


class TestValueEquivalence:
    def test_matches_sequential_executor_exactly(self, compiled):
        graph, fabric, modulo = compiled
        sequential = ListScheduler(fabric).schedule(graph)

        bus_a, outs_a = make_bus()
        CgraExecutor(sequential, bus_a, {}, precision="single").run(40)
        bus_b, outs_b = make_bus()
        PipelinedExecutor(modulo, bus_b, {}, precision="single").run(40)

        # Per-actuator streams are identical float-for-float even though
        # the pipelined global interleaving differs.
        assert outs_a[16] == outs_b[16]
        assert outs_a[17] == outs_b[17]

    def test_incremental_runs_equal_one_shot(self, compiled):
        _, _, modulo = compiled
        bus_a, outs_a = make_bus()
        ex = PipelinedExecutor(modulo, bus_a, {})
        ex.run(7)
        ex.run(13)
        bus_b, outs_b = make_bus()
        PipelinedExecutor(modulo, bus_b, {}).run(20)
        assert outs_a[16] == outs_b[16]
        assert outs_a[17] == outs_b[17]

    def test_value_of_named_node(self, compiled):
        _, _, modulo = compiled
        bus, _ = make_bus()
        ex = PipelinedExecutor(modulo, bus, {})
        ex.run(5)
        assert isinstance(ex.value_of("x"), float)
        with pytest.raises(ExecutionError):
            ex.value_of("nope")
        with pytest.raises(ExecutionError):
            ex.value_of("x", 100)  # an iteration that has not run


class TestPipelinedTimeline:
    def test_iterations_overlap_in_time(self, compiled):
        """The defining property: iteration k+1 starts before k ends."""
        _, _, modulo = compiled
        assert modulo.length > modulo.ii  # overlap exists for this kernel

    def test_io_interleaving_preserves_per_id_order(self, compiled):
        """Record the global IO stream; per-id subsequences must be in
        iteration order even when ids interleave."""
        _, _, modulo = compiled
        bus = SensorBus()
        stream = []
        state = {"n": 0}

        def sensor():
            state["n"] += 1
            stream.append(("read", state["n"]))
            return 0.1

        bus.register_reader(0, sensor)
        bus.register_writer(16, lambda v: stream.append(("w16", v)))
        bus.register_writer(17, lambda v: stream.append(("w17", v)))
        PipelinedExecutor(modulo, bus, {}).run(10)
        reads = [s for s in stream if s[0] == "read"]
        assert [r[1] for r in reads] == sorted(r[1] for r in reads)

    def test_beam_model_pipelined_execution(self):
        """The shipped (barrier-split) beam model executes correctly under
        modulo scheduling — the A6 'what automatic pipelining would buy'
        story is backed by actual execution, not just static checks."""
        import math

        from repro.cgra.models import compile_beam_model
        from repro.cgra.sensor import (
            ACTUATOR_DELTA_T,
            SENSOR_GAP_BUFFER,
            SENSOR_PERIOD,
            SENSOR_REF_BUFFER,
        )
        from repro.physics import SIS18, KNOWN_IONS

        model = compile_beam_model(n_bunches=1, pipelined=True)
        fabric = CgraFabric(CgraConfig())
        modulo = ModuloScheduler(fabric).schedule(model.graph)
        gamma0 = SIS18.gamma_from_revolution_frequency(800e3)
        params = model.default_params(
            gamma_r0=gamma0,
            q_over_mc2=KNOWN_IONS["14N7+"].gamma_gain_per_volt(),
            orbit_length=SIS18.circumference,
            alpha_c=SIS18.alpha_c,
            v_scale=4862.0,
            v_scale_ref=4 * 4862.0,
            f_sample=250e6,
            harmonic=4,
        )

        def bus_and_trace():
            bus = SensorBus()
            bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
            bus.register_addr_reader(
                SENSOR_REF_BUFFER, lambda a: math.sin(2 * math.pi * 800e3 * a / 250e6)
            )
            bus.register_addr_reader(
                SENSOR_GAP_BUFFER,
                lambda a: math.sin(2 * math.pi * 3.2e6 * a / 250e6 + 0.14),
            )
            trace = []
            bus.register_writer(ACTUATOR_DELTA_T, trace.append)
            return bus, trace

        bus_p, trace_p = bus_and_trace()
        PipelinedExecutor(modulo, bus_p, params, precision="double").run(500)
        bus_s, trace_s = bus_and_trace()
        CgraExecutor(model.schedule, bus_s, params, precision="double").run(500)
        np.testing.assert_allclose(trace_p, trace_s, atol=1e-18)

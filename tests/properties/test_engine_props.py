"""Property-based parity of the compiled engine over random DFGs.

Reuses the random mini-C kernel generator from the differential suite:
for *any* accepted kernel, every lane of the compiled engine
(:class:`BatchedCgraExecutor`) must be bit-identical to the
cycle-accurate interpreter — actuator writes and the whole register
file, exact float equality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cgra.engine import BatchedCgraExecutor, clear_program_cache
from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler
from repro.cgra.sensor import BatchSensorBus, SensorBus
from tests.properties.test_differential_execution import kernels

#: Per-lane offset of the sensor stream and of the loop-carried
#: registers; lane 0 runs the kernel as written.
LANE_OFFSETS = (0.0, 0.375, -1.25)


def _sensor_value(n, offset):
    # Bounded rational of the read count: IEEE add/mul/div/abs only, so
    # a scalar read and one lane of an array read agree bit for bit.
    u = n * 0.37 + offset
    return u / (1.0 + abs(u))


class TestCompiledEngineProperties:
    @settings(max_examples=50, deadline=None)
    @given(kernel=kernels(), precision=st.sampled_from(["single", "double"]))
    def test_compiled_matches_interpreted(self, kernel, precision):
        source, names = kernel
        graph = compile_c_to_dfg(source)
        schedule = ListScheduler(CgraFabric(CgraConfig(rows=3, cols=3))).schedule(graph)
        carried = sorted({phi.name for phi in graph.phis()} & set(names))
        offsets = np.asarray(LANE_OFFSETS)
        n_iter = 20

        bus = BatchSensorBus(batch=len(offsets))
        reads = {"n": 0}

        def sensor():
            reads["n"] += 1
            return _sensor_value(reads["n"], offsets)

        bus.register_reader(0, sensor)
        writes: list[np.ndarray] = []
        bus.register_writer(16, lambda v: writes.append(np.array(v)))
        batched = BatchedCgraExecutor(schedule, bus, {}, precision=precision)
        for name in carried:
            batched.set_register(name, batched.register_of(name) + offsets)
        batched.run(n_iter)

        for lane, offset in enumerate(LANE_OFFSETS):
            scalar_bus = SensorBus()
            lane_reads = {"n": 0}

            def lane_sensor(offset=offset):
                lane_reads["n"] += 1
                return _sensor_value(lane_reads["n"], offset)

            scalar_bus.register_reader(0, lane_sensor)
            outs: list[float] = []
            scalar_bus.register_writer(16, outs.append)
            oracle = CgraExecutor(schedule, scalar_bus, {}, precision=precision)
            for name in carried:
                oracle.set_register(name, oracle.register_of(name) + offset)
            oracle.run(n_iter)

            assert [float(w[lane]) for w in writes] == outs  # exact, not approx
            assert batched.lane_registers(lane) == oracle.registers
        clear_program_cache()  # random schedules: don't accumulate programs

"""Property-based parity of the compiled engine over random DFGs.

Reuses the random mini-C kernel generator from the differential suite:
for *any* accepted kernel, the compiled engine (and each lane of the
batched engine) must be bit-identical to the cycle-accurate interpreter
— actuator writes and loop-carried registers, exact float equality.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cgra.engine import clear_program_cache
from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler
from repro.cgra.sensor import BatchSensorBus
from tests.properties.test_differential_execution import _make_bus, kernels


class TestCompiledEngineProperties:
    @settings(max_examples=50, deadline=None)
    @given(kernel=kernels(), precision=st.sampled_from(["single", "double"]))
    def test_compiled_matches_interpreted(self, kernel, precision):
        source, names = kernel
        graph = compile_c_to_dfg(source)
        schedule = ListScheduler(CgraFabric(CgraConfig(rows=3, cols=3))).schedule(graph)

        bus_i, outs_i = _make_bus()
        ex_i = CgraExecutor(schedule, bus_i, {}, precision=precision,
                            engine="interpreted")
        bus_c, outs_c = _make_bus()
        ex_c = CgraExecutor(schedule, bus_c, {}, precision=precision,
                            engine="compiled")
        ex_i.run(20)
        ex_c.run(20)

        assert outs_c == outs_i  # exact float equality, not approx
        carried = {phi.name for phi in graph.phis()}
        for name in set(names) & carried:
            assert ex_c.register_of(name) == ex_i.register_of(name)
        clear_program_cache()  # random schedules: don't accumulate programs

    @settings(max_examples=25, deadline=None)
    @given(kernel=kernels())
    def test_batched_lanes_match_scalar(self, kernel):
        source, names = kernel
        graph = compile_c_to_dfg(source)
        schedule = ListScheduler(CgraFabric(CgraConfig(rows=2, cols=2))).schedule(graph)
        batch = 3

        # The kernel generator's sensor is stateful (a call counter).  A
        # batched run issues exactly one logical read per site, same as
        # a scalar run, so lane-uniform broadcasting keeps the streams
        # aligned — lane parity then follows from elementwise IEEE ops.
        scalar_traces = []
        for _ in range(batch):
            bus, outs = _make_bus()
            ex = CgraExecutor(schedule, bus, {}, engine="compiled")
            ex.run(15)
            carried = sorted({phi.name for phi in graph.phis()} & set(names))
            scalar_traces.append(
                (tuple(outs), tuple(ex.register_of(n) for n in carried))
            )
        assert scalar_traces.count(scalar_traces[0]) == batch  # deterministic

        from repro.cgra.engine import BatchedCgraExecutor

        bbus = BatchSensorBus(batch=batch)
        counter = {"n": 0}

        def sensor():
            counter["n"] += 1
            return np.sin(counter["n"] * 0.37)

        bbus.register_reader(0, sensor)
        bouts: list[np.ndarray] = []
        bbus.register_writer(16, lambda v: bouts.append(np.array(v)))
        bex = BatchedCgraExecutor(schedule, bbus, {})
        bex.run(15)

        expect_outs, expect_regs = scalar_traces[0]
        for lane in range(batch):
            assert tuple(float(w[lane]) for w in bouts) == expect_outs
        carried = sorted({phi.name for phi in graph.phis()} & set(names))
        for name, expect in zip(carried, expect_regs):
            lanes = bex.register_of(name)
            assert all(float(v) == expect for v in lanes)
        clear_program_cache()

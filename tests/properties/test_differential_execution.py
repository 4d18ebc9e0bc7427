"""Differential testing of the whole CGRA backend.

Property: for *any* kernel the frontend accepts and *any* fabric
geometry, the cycle-accurate executor (frontend → scheduler → contexts →
execution) produces exactly the values of the schedule-free
:class:`~repro.cgra.reference.ReferenceInterpreter`.  Scheduling,
placement, routing and context generation must be semantics-preserving —
this is the contract that lets the paper trust results computed on the
overlay.

Kernels are generated randomly: a pool of loop-carried accumulators, a
random straight-line body of arithmetic over them (guarded against
div-by-zero/sqrt-of-negative via fmax), optional sensor reads, actuator
writes and a pipeline barrier at a random position.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.reference import ReferenceInterpreter
from repro.cgra.scheduler import ListScheduler
from repro.cgra.sensor import SensorBus


@st.composite
def kernels(draw):
    """Generate a random mini-C kernel source."""
    n_vars = draw(st.integers(min_value=1, max_value=4))
    names = [f"v{i}" for i in range(n_vars)]
    inits = [draw(st.floats(min_value=-4.0, max_value=4.0).map(lambda x: round(x, 3)))
             for _ in names]
    n_stmts = draw(st.integers(min_value=1, max_value=8))
    use_sensor = draw(st.booleans())
    barrier_at = draw(st.integers(min_value=-1, max_value=n_stmts - 1))

    body: list[str] = []
    if use_sensor:
        body.append("float s0 = read_sensor(0) * 0.25;")

    def operand(rng_draw):
        choice = rng_draw(st.integers(min_value=0, max_value=len(names) + (1 if use_sensor else 0)))
        if use_sensor and choice == len(names):
            return "s0"
        if choice < len(names):
            return names[choice]
        return "s0" if use_sensor else names[0]

    for i in range(n_stmts):
        if barrier_at == i:
            body.append("pipeline_barrier();")
        target = draw(st.sampled_from(names))
        kind = draw(st.sampled_from(["add", "mul", "sub", "div", "sqrt", "minmax", "select"]))
        a = operand(draw)
        b = operand(draw)
        c = draw(st.floats(min_value=-2.0, max_value=2.0).map(lambda x: round(x, 3)))
        if kind == "add":
            stmt = f"{target} = {a} + {b} * 0.125 + {c};"
        elif kind == "mul":
            stmt = f"{target} = {a} * 0.5 + {b} * 0.25;"
        elif kind == "sub":
            stmt = f"{target} = {a} - {b} * 0.5;"
        elif kind == "div":
            stmt = f"{target} = {a} / fmax({b} * {b} + 1.0, 1.0);"
        elif kind == "sqrt":
            stmt = f"{target} = sqrt(fmax({a}, 0.0) + 1.0) - 1.0;"
        elif kind == "minmax":
            stmt = f"{target} = fmin(fmax({a}, -8.0), 8.0) + {c} * 0.01;"
        else:
            stmt = f"{target} = {a} < {b} ? {a} * 0.5 : {b} * 0.5;"
        body.append(stmt)
    body.append(f"write_actuator(16, {names[0]});")

    decls = "\n    ".join(
        f"float {n} = {v};" for n, v in zip(names, inits)
    )
    body_text = "\n        ".join(body)
    source = f"""
void kernel() {{
    {decls}
    while (1) {{
        {body_text}
    }}
}}
"""
    return source, names


def _make_bus():
    bus = SensorBus()
    counter = {"n": 0}

    def sensor():
        counter["n"] += 1
        return np.sin(counter["n"] * 0.37)  # deterministic pseudo-signal

    bus.register_reader(0, sensor)
    outs: list[float] = []
    bus.register_writer(16, outs.append)
    return bus, outs


class TestDifferentialExecution:
    @settings(max_examples=60, deadline=None)
    @given(kernel=kernels(), rows=st.integers(min_value=1, max_value=4),
           precision=st.sampled_from(["single", "double"]))
    def test_executor_matches_reference(self, kernel, rows, precision):
        source, names = kernel
        graph = compile_c_to_dfg(source)
        fabric = CgraFabric(CgraConfig(rows=rows, cols=rows))
        schedule = ListScheduler(fabric).schedule(graph)

        bus_a, outs_a = _make_bus()
        ex = CgraExecutor(schedule, bus_a, {}, precision=precision)
        bus_b, outs_b = _make_bus()
        ref = ReferenceInterpreter(graph, bus_b, {}, precision=precision)

        ex.run(20)
        ref.run(20)

        assert outs_a == outs_b  # exact float equality, not approx
        # Variables never assigned in the loop lower to constants with no
        # register to read back; compare the loop-carried ones.
        carried = {phi.name for phi in graph.phis()}
        for name in set(names) & carried:
            assert ex.register_of(name) == ref.register_of(name)

    @settings(max_examples=20, deadline=None)
    @given(kernel=kernels())
    def test_fabric_geometry_is_semantics_free(self, kernel):
        """The same program on different fabrics yields identical values
        (geometry only changes *when*, never *what*)."""
        source, names = kernel
        graph = compile_c_to_dfg(source)
        carried = sorted({phi.name for phi in graph.phis()} & set(names))
        finals = []
        for rows in (1, 3):
            schedule = ListScheduler(CgraFabric(CgraConfig(rows=rows, cols=rows))).schedule(graph)
            bus, outs = _make_bus()
            ex = CgraExecutor(schedule, bus, {}, precision="single")
            ex.run(10)
            finals.append((tuple(outs), tuple(ex.register_of(n) for n in carried)))
        assert finals[0] == finals[1]


class TestReferenceInterpreterBasics:
    def test_simple_accumulator(self):
        graph = compile_c_to_dfg(
            "void k() { float x = 0.0; while (1) { x = x + 2.0; } }"
        )
        ref = ReferenceInterpreter(graph, SensorBus(), {})
        ref.run(5)
        assert ref.register_of("x") == 10.0

    def test_beam_model_matches_executor(self):
        """The shipped beam model itself passes the differential check."""
        import math

        from repro.cgra.models import compile_beam_model
        from repro.cgra.sensor import (
            ACTUATOR_DELTA_T,
            SENSOR_GAP_BUFFER,
            SENSOR_PERIOD,
            SENSOR_REF_BUFFER,
        )
        from repro.physics import SIS18, KNOWN_IONS

        model = compile_beam_model(n_bunches=2, pipelined=True)
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

        def bus_and_outs():
            bus = SensorBus()
            bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
            bus.register_addr_reader(
                SENSOR_REF_BUFFER, lambda a: math.sin(2 * math.pi * 800e3 * a / 250e6)
            )
            bus.register_addr_reader(
                SENSOR_GAP_BUFFER,
                lambda a: math.sin(2 * math.pi * 3.2e6 * a / 250e6 + 0.14),
            )
            outs = []
            for i in range(2):
                bus.register_writer(ACTUATOR_DELTA_T + i, outs.append)
            return bus, outs

        bus_a, outs_a = bus_and_outs()
        CgraExecutor(model.schedule, bus_a, params, precision="single").run(200)
        bus_b, outs_b = bus_and_outs()
        ReferenceInterpreter(model.graph, bus_b, params, precision="single").run(200)
        assert outs_a == outs_b

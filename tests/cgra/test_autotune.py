"""The adaptive engine planner (repro.cgra.autotune) and the auto tier.

``engine="auto"`` must be a pure speed decision: same results as any
static tier, deterministic plans for a fixed machine profile, and plans
that round-trip to worker processes.  These tests pin the planning seam
by injecting fixed profiles — never by asserting what *this* machine's
calibration measures.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.cgra import (
    BatchSensorBus,
    BatchedCgraExecutor,
    CgraExecutor,
    MachineProfile,
    PipelinedExecutor,
    SensorBus,
    calibrate,
    clear_cache,
    compile_beam_model,
    compile_monitor_model,
    get_default_engine,
    plan_for,
    set_default_engine,
)
from repro.cgra import autotune
from repro.cgra.autotune import (
    DEFAULT_PROFILE,
    ExecutionPlan,
    clear_plan_cache,
    export_plans,
    import_plans,
    plan_cache_stats,
    program_key,
)
from repro.cgra.engine import compile_program
from repro.cgra.engine_vector import _KERNEL_CODE_CACHE
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    ACTUATOR_MONITOR,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
)
from repro.physics import KNOWN_IONS, SIS18

#: A fixed mid-range profile: plans asserted against it hold on every
#: machine (plan_for is a pure function of profile + program facts).
REFERENCE_PROFILE = MachineProfile(
    scalar_op_ns=400.0,
    array_op_ns=450.0,
    array_elem_ns=1.0,
    call_ns=80.0,
    chunk_elems=32768,
)


@pytest.fixture(autouse=True)
def _restore_engine_and_plans():
    saved = get_default_engine()
    yield
    set_default_engine(saved)
    clear_plan_cache()


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


def _scalar_bus(n_bunches):
    bus = SensorBus()
    bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
    bus.register_addr_reader(
        SENSOR_REF_BUFFER, lambda a: math.sin(2 * math.pi * 800e3 * a / 250e6)
    )
    bus.register_addr_reader(
        SENSOR_GAP_BUFFER,
        lambda a: math.sin(2 * math.pi * 3.2e6 * a / 250e6 + 0.14),
    )
    outs: list[float] = []
    for i in range(n_bunches):
        bus.register_writer(ACTUATOR_DELTA_T + i, outs.append)
    return bus, outs


def _monitor_params():
    gamma0 = SIS18.gamma_from_revolution_frequency(800e3)
    return {
        "GAMMA_R0": gamma0,
        "L_R": SIS18.circumference,
        "ALPHA_C": SIS18.alpha_c,
        "F_SYNC": 3.1e3,
        "T_NOM": 1.25e-6,
        "K_SMOOTH": 0.7,
        "LIMIT": 0.5,
    }


def _monitor_bus():
    bus = SensorBus()
    bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
    outs: list[float] = []
    bus.register_writer(ACTUATOR_MONITOR, outs.append)
    return bus, outs


def _beam_program():
    return compile_program(compile_beam_model(n_bunches=1, pipelined=True).schedule)


def _monitor_program():
    return compile_program(compile_monitor_model().schedule)


class TestPlanning:
    def test_plan_deterministic_for_fixed_profile(self):
        """Same profile + same program ⇒ the identical plan, every call."""
        program = _beam_program()
        plans = [
            plan_for(program, batch=8, horizon=4096, profile=REFERENCE_PROFILE)
            for _ in range(3)
        ]
        assert plans[0] == plans[1] == plans[2]

    def test_expected_winners_under_reference_profile(self):
        """The cost model reproduces the measured reality: sequential
        beam segments favour compiled, the fully chunkable monitor
        kernel favours vector."""
        beam = plan_for(_beam_program(), batch=1, horizon=4096,
                        profile=REFERENCE_PROFILE)
        monitor = plan_for(_monitor_program(), batch=1, horizon=4096,
                           profile=REFERENCE_PROFILE)
        assert beam.engine == "compiled"
        assert monitor.engine == "vector"

    def test_short_horizon_forces_compiled(self):
        plan = plan_for(_monitor_program(), batch=1, horizon=4,
                        profile=REFERENCE_PROFILE)
        assert plan.engine == "compiled"
        assert "horizon" in plan.reason

    def test_program_key_content_stable(self):
        assert program_key(_beam_program()) == program_key(_beam_program())
        assert program_key(_beam_program()) != program_key(_monitor_program())

    def test_plan_cache_counters(self):
        clear_plan_cache()
        program = _monitor_program()
        obs.enable()
        try:
            reg = obs.metrics()
            hits = reg.counter("autotune_plan_cache_hits_total", "")
            misses = reg.counter("autotune_plan_cache_misses_total", "")
            h0, m0 = hits.value(), misses.value()
            plan_for(program, batch=1, horizon=4096)
            plan_for(program, batch=1, horizon=4096)
            assert misses.value() == m0 + 1
            assert hits.value() == h0 + 1
            # A different shape is a fresh decision.
            plan_for(program, batch=64, horizon=4096)
            assert misses.value() == m0 + 2
        finally:
            obs.disable()
        assert plan_cache_stats()["plans"] >= 2

    def test_horizon_buckets_share_plans(self):
        clear_plan_cache()
        program = _monitor_program()
        plan_for(program, batch=1, horizon=4000)
        n = plan_cache_stats()["plans"]
        plan_for(program, batch=1, horizon=4095)  # same power-of-two bucket
        assert plan_cache_stats()["plans"] == n

    def test_clear_cache_drops_plans_and_kernels(self):
        plan_for(_monitor_program(), batch=1, horizon=4096)
        assert plan_cache_stats()["plans"] >= 1
        clear_cache()
        assert plan_cache_stats()["plans"] == 0
        assert len(_KERNEL_CODE_CACHE) == 0
        assert autotune._PROFILE is None

    def test_plans_round_trip_export_import(self):
        clear_plan_cache()
        program = _monitor_program()
        original = plan_for(program, batch=1, horizon=4096)
        bundle = export_plans()
        clear_plan_cache()
        import_plans(bundle)
        # The imported plan serves the same key without recomputation,
        # and the profile travels with it (no re-calibration).
        assert plan_for(program, batch=1, horizon=4096) == original
        if bundle["profile"] is not None:
            assert calibrate().to_dict() == bundle["profile"]

    def test_plan_serialisation(self):
        plan = ExecutionPlan(engine="vector", chunk_elems=1024, reason="test",
                             predicted_compiled_ns=10.0, predicted_vector_ns=5.0)
        assert ExecutionPlan.from_dict(plan.to_dict()) == plan

    def test_calibrate_disabled_yields_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE", "0")
        clear_plan_cache()
        assert calibrate() == DEFAULT_PROFILE


class TestAutoTier:
    """engine="auto" is accepted everywhere and is bit-exact."""

    def test_scalar_executor_auto_matches_compiled(self):
        model = compile_beam_model(n_bunches=1, pipelined=True)
        params = _beam_params(model)
        bus_c, outs_c = _scalar_bus(1)
        bus_a, outs_a = _scalar_bus(1)
        ex_c = CgraExecutor(model.schedule, bus_c, params, engine="compiled")
        ex_a = CgraExecutor(model.schedule, bus_a, params, engine="auto")
        for n in (3, 64, 7):
            ex_c.run(n)
            ex_a.run(n)
            assert ex_a.registers == ex_c.registers
        assert outs_a == outs_c
        assert ex_a.last_plan is not None  # the 64-iteration run planned

    def test_scalar_executor_auto_monitor_matches_interpreted(self):
        model = compile_monitor_model()
        params = _monitor_params()
        bus_i, outs_i = _monitor_bus()
        bus_a, outs_a = _monitor_bus()
        CgraExecutor(model.schedule, bus_i, params, engine="interpreted").run(96)
        ex_a = CgraExecutor(model.schedule, bus_a, params, engine="auto")
        ex_a.run(96)
        assert outs_a == outs_i

    def test_batched_executor_auto_matches_compiled(self):
        model = compile_beam_model(n_bunches=1, pipelined=True)
        params = _beam_params(model)

        def batch_bus():
            bus = BatchSensorBus(4)
            bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
            bus.register_addr_reader(
                SENSOR_REF_BUFFER, lambda a: np.sin(2 * np.pi * 800e3 * a / 250e6)
            )
            bus.register_addr_reader(
                SENSOR_GAP_BUFFER, lambda a: np.sin(2 * np.pi * 3.2e6 * a / 250e6 + 0.14)
            )
            outs: list = []
            bus.register_writer(ACTUATOR_DELTA_T, lambda v: outs.append(tuple(v)))
            return bus, outs

        bus_c, outs_c = batch_bus()
        bus_a, outs_a = batch_bus()
        ex_c = BatchedCgraExecutor(model.schedule, bus_c, params, engine="compiled")
        ex_a = BatchedCgraExecutor(model.schedule, bus_a, params, engine="auto")
        ex_c.run(48)
        ex_a.run(48)
        assert outs_a == outs_c
        assert ex_a.iterations == ex_c.iterations == 48

    def test_pipelined_executor_accepts_auto(self):
        from repro.cgra.fabric import CgraConfig, CgraFabric
        from repro.cgra.frontend import compile_c_to_dfg
        from repro.cgra.modulo import ModuloScheduler

        graph = compile_c_to_dfg(
            "void k() { float x = 0.5; while (1) {"
            " float s = read_sensor(0); write_actuator(16, x);"
            " x = x * 0.75 + s * 0.1; } }"
        )
        modulo = ModuloScheduler(CgraFabric(CgraConfig(rows=3, cols=3))).schedule(graph)
        bus = SensorBus()
        bus.register_reader(0, lambda: 0.25)
        bus.register_writer(16, lambda v: None)
        ex = PipelinedExecutor(modulo, bus, {}, engine="auto")
        assert ex.engine == "compiled"  # modulo overlap is per-cycle

    def test_default_engine_accepts_auto(self):
        set_default_engine("auto")
        assert get_default_engine() == "auto"

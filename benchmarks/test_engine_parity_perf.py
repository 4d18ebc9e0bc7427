"""Engine throughput benchmark with a built-in parity gate.

Measures the CGRA's two engines on the shipped beam kernel — the
cycle-accurate interpreter (the oracle) and the compiled engine, the
batched executor with 64 lockstep lanes — and writes
``BENCH_engine.json`` (both under ``benchmarks/results/`` and at the
repo root, where the committed copy lives).  The same run first proves
every lane of the compiled engine bit-exact against the interpreter, so
a reported speedup can never come from a semantics change.

Run directly (no pytest-benchmark plugin needed — timing is manual so
parity + perf land in one process):

.. code-block:: bash

    PYTHONPATH=src python -m pytest -q benchmarks/test_engine_parity_perf.py

Two kinds of gate:

* **Unconditional** — the parity gate: bit-exactness hard-fails
  anywhere.
* **Core-gated** (>= 2 usable cores) — a wall-clock floor: batched
  >= 50x aggregate at B = 64.  A loaded single-core container cannot
  express it honestly, but it still runs the full gates and reports
  real numbers.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cgra import (
    BatchSensorBus,
    BatchedCgraExecutor,
    CgraExecutor,
    SensorBus,
    compile_beam_model,
)
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
)
from repro.obs.export import write_bench_json
from repro.physics import KNOWN_IONS, SIS18

pytestmark = pytest.mark.bench

_RESULTS = Path(__file__).parent / "results"
#: The committed benchmark record lives at the repo root (CI uploads it
#: from every run; regressions diff against the committed copy).
_ROOT = Path(__file__).parent.parent
BATCH = 64


def _params(model):
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


def _scalar_bus():
    bus = SensorBus()
    bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
    bus.register_addr_reader(
        SENSOR_REF_BUFFER, lambda a: math.sin(2 * math.pi * 800e3 * a / 250e6)
    )
    bus.register_addr_reader(
        SENSOR_GAP_BUFFER, lambda a: math.sin(2 * math.pi * 3.2e6 * a / 250e6 + 0.14)
    )
    bus.register_writer(ACTUATOR_DELTA_T, lambda v: None)
    return bus


def _batch_bus():
    bus = BatchSensorBus(batch=BATCH)
    bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
    bus.register_addr_reader(
        SENSOR_REF_BUFFER, lambda a: np.sin(2 * np.pi * 800e3 * a / 250e6)
    )
    bus.register_addr_reader(
        SENSOR_GAP_BUFFER, lambda a: np.sin(2 * np.pi * 3.2e6 * a / 250e6 + 0.14)
    )
    bus.register_writer(ACTUATOR_DELTA_T, lambda v: None)
    return bus


def _rational(amp):
    # Bounded rational — evaluates identically in scalar Python floats
    # and elementwise NumPy float64 (IEEE mult/div/abs only), so the
    # parity gate compares exactly on every platform.
    return lambda a: amp * (a * 1e-3) / (1.0 + abs(a) * 1e-3)


def _time_run(executor, n_iterations: int) -> float:
    """Seconds per iteration for one bulk run."""
    t0 = time.perf_counter()
    executor.run(n_iterations)
    return (time.perf_counter() - t0) / n_iterations


def test_engine_parity_and_throughput():
    model = compile_beam_model(n_bunches=1, pipelined=True)
    params = _params(model)

    # -- parity gate: speedups below are only meaningful if bit-exact --
    # Hard-fails everywhere; never gated on core count.  Each of the 64
    # lanes reads the gap buffer at its own amplitude, so the lanes
    # diverge; every lane must equal an interpreter run at that amplitude.
    amps = np.linspace(0.2, 2.0, BATCH)
    bus = BatchSensorBus(batch=BATCH)
    bus.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
    bus.register_addr_reader(SENSOR_REF_BUFFER, _rational(0.7))
    bus.register_addr_reader(SENSOR_GAP_BUFFER, _rational(amps))
    bus.register_writer(ACTUATOR_DELTA_T, lambda v: None)
    ex_b = BatchedCgraExecutor(model.schedule, bus, params)
    ex_b.run(30)
    for lane, amp in enumerate(amps):
        scalar = SensorBus()
        scalar.register_reader(SENSOR_PERIOD, lambda: 1.25e-6)
        scalar.register_addr_reader(SENSOR_REF_BUFFER, _rational(0.7))
        scalar.register_addr_reader(SENSOR_GAP_BUFFER, _rational(float(amp)))
        scalar.register_writer(ACTUATOR_DELTA_T, lambda v: None)
        ex_i = CgraExecutor(model.schedule, scalar, params)
        ex_i.run(30)
        assert ex_b.lane_registers(lane) == ex_i.registers, f"parity regression, lane {lane}"

    # -- throughput, warmed executors, one bulk run each ---------------
    interp = CgraExecutor(model.schedule, _scalar_bus(), params)
    interp.run(50)  # warmup
    t_interp = _time_run(interp, 1500)

    batched = BatchedCgraExecutor(model.schedule, _batch_bus(), params)
    batched.run(100)
    t_batch_iter = _time_run(batched, 2000)
    t_lane = t_batch_iter / BATCH

    aggregate = t_interp / t_lane
    rows = [
        f"interpreted: {t_interp * 1e6:9.1f} us/iter",
        f"batched B={BATCH}: {t_lane * 1e6:7.2f} us/lane-iter  ({aggregate:.1f}x aggregate)",
    ]
    print("\n=== engine throughput (beam model, 1 bunch) ===")
    for row in rows:
        print(row)

    records = [
        {
            "name": "engine/interpreted",
            "stats": {"mean": t_interp, "rounds": 1500},
        },
        {
            "name": f"engine/batched_b{BATCH}",
            "stats": {"mean": t_lane, "rounds": 2000 * BATCH},
            "extra_info": {
                "batch": BATCH,
                "seconds_per_batch_iteration": t_batch_iter,
                "aggregate_speedup_vs_interpreted": aggregate,
            },
        },
    ]
    _RESULTS.mkdir(exist_ok=True)
    write_bench_json(_RESULTS / "BENCH_engine.json", records)
    write_bench_json(_ROOT / "BENCH_engine.json", records)

    # -- speedup target, where the hardware can express it -------------
    cores = len(os.sched_getaffinity(0))
    if cores >= 2:
        assert aggregate >= 50.0, f"aggregate speedup {aggregate:.1f}x below 50x target"

"""The beam model in mini-C and its compilation pipeline.

:func:`beam_model_source` emits the C implementation of Section IV-B for
a configurable bunch count, with or without the manual factor-2 loop
pipelining.  :func:`compile_beam_model` runs the full paper tool flow —
parse → SCAR dataflow graph → list scheduler → context images — and
returns a :class:`CompiledModel` bundling everything the HIL framework
and the E6 benchmark need (schedule length, maximum real-time revolution
frequency, an executor factory).

Model structure per loop iteration (one revolution), following the paper
step by step:

1. read the averaged revolution time of the reference signal from the
   period-length detector;
2. from the previous iteration's γ_R, compute the revolution time the
   reference particle needs at its current energy; the difference ΔT to
   the measured period is the reference particle's arrival offset
   relative to the last positive zero crossing;
3. fetch the (scaled, interpolated) reference-buffer voltage at ΔT — the
   gap voltage acting on the reference particle (Eq. 2 input);
4. for every bunch *k*: fetch the gap-buffer voltage at
   ΔT + k·T_R/h + Δt_k (Eq. 3 input) and write Δt_k to the bunch's Gauss
   pulse actuator — all IO sits in the first pipeline stage, "which
   means that there is no additional delay induced by the loop
   pipelining";
5. (pipeline barrier — in the pipelined variant)
6. update γ_R (Eq. 2), Δγ_k (Eq. 3), η (Eq. 5) and Δt_k (Eq. 6).

Parameters (live-in, loaded by the host before the loop):

==============  =====================================================
``GAMMA_R0``    initial reference Lorentz factor (from the measured
                revolution frequency, Eq. 1)
``QMC2``        Q/(m c²) in 1/volt (Eq. 2 coefficient)
``L_R``         reference orbit length in metres
``ALPHA_C``     momentum compaction factor
``V_SCALE``     ADC volts → gap volts for the gap channel
``V_SCALE_REF`` ADC volts → effective gap volts for the reference
                channel (includes the harmonic factor: the reference
                sine runs at f_R, not h·f_R)
``F_SAMPLE``    ring-buffer sample rate in Hz
``H_INV``       1/h (bunch spacing in revolutions)
==============  =====================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cgra.context import ContextImage, build_context_images
from repro.cgra.dfg import DataflowGraph
from repro.cgra.fabric import CgraConfig, CgraFabric
from repro.cgra.frontend import compile_c_to_dfg
from repro.cgra.scheduler import ListScheduler, Schedule
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
)
from repro.cgra.timing import max_revolution_frequency
from repro.errors import ConfigurationError
from repro.obs import get_registry
from repro.obs._state import STATE as _OBS

__all__ = [
    "beam_model_source",
    "CompiledModel",
    "compile_beam_model",
    "clear_cache",
]

_CACHE_HITS = get_registry().counter(
    "cgra_compile_cache_hits_total", "beam-model tool-flow runs served from the compile cache"
)
_CACHE_MISSES = get_registry().counter(
    "cgra_compile_cache_misses_total", "beam-model tool-flow runs that ran the full pipeline"
)

#: Speed of light, spelled in the C source as a literal.
_C0 = 299_792_458.0


def beam_model_source(n_bunches: int = 8, pipelined: bool = True) -> str:
    """Emit the mini-C beam model for ``n_bunches``, optionally pipelined."""
    if n_bunches < 1:
        raise ConfigurationError(f"n_bunches must be >= 1, got {n_bunches}")
    barrier = "        pipeline_barrier();\n" if pipelined else ""
    return f"""\
// Longitudinal beam model, Section IV-B ("Cavity in the Loop", SC 2024).
// {n_bunches} bunch(es), manual loop pipelining {'ON' if pipelined else 'OFF'}.
#define S_PERIOD {SENSOR_PERIOD}
#define S_REFBUF {SENSOR_REF_BUFFER}
#define S_GAPBUF {SENSOR_GAP_BUFFER}
#define A_DELTA_T {ACTUATOR_DELTA_T}
#define N_BUNCHES {n_bunches}
#define C0 {_C0!r}

void beam_model(float GAMMA_R0, float QMC2, float L_R, float ALPHA_C,
                float V_SCALE, float V_SCALE_REF, float F_SAMPLE, float H_INV) {{
    float gamma_r = GAMMA_R0;
    float dgamma[N_BUNCHES] = 0.0;
    float dt[N_BUNCHES] = 0.0;
    while (1) {{
        /* ---- stage 1: sensing and IO ---- */
        float t_meas = read_sensor(S_PERIOD);
        float inv_g2 = 1.0 / (gamma_r * gamma_r);
        float beta_r = sqrt(1.0 - inv_g2);
        float t_ref = L_R / (beta_r * C0);
        float dT = t_ref - t_meas;
        float v_r = read_sensor2(S_REFBUF, dT * F_SAMPLE) * V_SCALE_REF;
        float spacing = t_meas * H_INV;
        float v_a[N_BUNCHES] = 0.0;
        for (int i = 0; i < N_BUNCHES; i = i + 1) {{
            v_a[i] = read_sensor2(S_GAPBUF, (dT + spacing * i + dt[i]) * F_SAMPLE) * V_SCALE;
            write_actuator(A_DELTA_T + i, dt[i]);
        }}
{barrier}        /* ---- stage 2: tracking equations ---- */
        gamma_r = gamma_r + QMC2 * v_r;                    /* Eq. 2 */
        float inv_g2n = 1.0 / (gamma_r * gamma_r);
        float eta = ALPHA_C - inv_g2n;                     /* Eq. 5 */
        float beta_r2 = 1.0 - inv_g2n;
        float k_dt = L_R * eta / (beta_r2 * C0 * gamma_r);
        for (int i = 0; i < N_BUNCHES; i = i + 1) {{
            dgamma[i] = dgamma[i] + QMC2 * (v_a[i] - v_r); /* Eq. 3 */
            float gamma_a = gamma_r + dgamma[i];
            float beta_a = sqrt(1.0 - 1.0 / (gamma_a * gamma_a));
            dt[i] = dt[i] + k_dt * dgamma[i] / beta_a;     /* Eq. 6 */
        }}
    }}
}}
"""


@dataclass
class CompiledModel:
    """Everything produced by one run of the CGRA tool flow."""

    source: str
    n_bunches: int
    pipelined: bool
    graph: DataflowGraph
    schedule: Schedule
    images: dict[tuple[int, int], ContextImage]
    config: CgraConfig
    #: Wall-clock seconds the flow took (the "reconfiguration in seconds"
    #: claim of the paper, measured for E8).
    compile_seconds: float

    @property
    def schedule_length(self) -> int:
        """Ticks per revolution iteration."""
        return self.schedule.length

    @property
    def max_f_rev(self) -> float:
        """Highest real-time revolution frequency for this schedule."""
        from repro.cgra.timing import ClockDomain

        return max_revolution_frequency(
            self.schedule_length, ClockDomain("cgra", self.config.clock_mhz * 1e6)
        )

    def default_params(
        self,
        gamma_r0: float,
        q_over_mc2: float,
        orbit_length: float,
        alpha_c: float,
        v_scale: float,
        v_scale_ref: float,
        f_sample: float,
        harmonic: int,
    ) -> dict[str, float]:
        """Assemble the live-in parameter dictionary for the executor."""
        return {
            "GAMMA_R0": gamma_r0,
            "QMC2": q_over_mc2,
            "L_R": orbit_length,
            "ALPHA_C": alpha_c,
            "V_SCALE": v_scale,
            "V_SCALE_REF": v_scale_ref,
            "F_SAMPLE": f_sample,
            "H_INV": 1.0 / harmonic,
        }


#: Keyed compile cache: (source text, fabric config) → CompiledModel.
#:
#: **Multiprocess safety**: the cache is strictly per-process — a plain
#: dict with no lock and no shared memory.  Worker processes of
#: :mod:`repro.parallel` each hold their own copy: ``fork`` children
#: inherit the parent's primed entries at fork time (free warm start);
#: ``spawn`` children start empty and are primed by the pool's worker
#: initializer.  Never ship a :class:`CompiledModel` (or its schedule /
#: executor) across process boundaries to "share" the cache — workers
#: must return plain result data and let each process compile through
#: its own cache (``repro.parallel.pool._guard_value`` enforces this on
#: worker returns).
_MODEL_CACHE: dict[tuple[str, CgraConfig], CompiledModel] = {}


def compile_beam_model(
    n_bunches: int = 8,
    pipelined: bool = True,
    config: CgraConfig | None = None,
    use_cache: bool = True,
) -> CompiledModel:
    """Run the full tool flow for the beam model.

    This is the operation whose turnaround the paper praises ("changes to
    the C implementation are available on the experimental setup in
    seconds"); its wall-clock duration is recorded in
    :attr:`CompiledModel.compile_seconds`.

    Repeated calls with the same source and fabric config are served
    from a process-wide cache (the returned :class:`CompiledModel` is
    shared, with the original ``compile_seconds``).  Pass
    ``use_cache=False`` to force a fresh pipeline run — experiments that
    *measure* the tool-flow turnaround, or tests that mutate the
    returned model, need an uncached instance.
    """
    config = config if config is not None else CgraConfig()
    source = beam_model_source(n_bunches=n_bunches, pipelined=pipelined)
    key = (source, config)
    if use_cache:
        cached = _MODEL_CACHE.get(key)
        if cached is not None:
            if _OBS.enabled:
                _CACHE_HITS.inc()
            return cached
    t0 = time.perf_counter()
    graph = compile_c_to_dfg(source)
    fabric = CgraFabric(config)
    schedule = ListScheduler(fabric).schedule(graph)
    images = build_context_images(schedule)
    elapsed = time.perf_counter() - t0
    model = CompiledModel(
        source=source,
        n_bunches=n_bunches,
        pipelined=pipelined,
        graph=graph,
        schedule=schedule,
        images=images,
        config=config,
        compile_seconds=elapsed,
    )
    if use_cache:
        if _OBS.enabled:
            _CACHE_MISSES.inc()
        _MODEL_CACHE[key] = model
    return model


def clear_cache() -> None:
    """Drop all cached compiled models and compiled engine programs."""
    from repro.cgra.engine import clear_program_cache

    _MODEL_CACHE.clear()
    clear_program_cache()

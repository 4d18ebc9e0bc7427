"""E7 — quantifying the feasibility argument: software jitter vs. CGRA.

Section I of the paper: a pure-software simulator "could be fast enough,
but the time jitter induced by the microarchitecture and the interfacing
to the sensors was too high"; the CGRA's "input/output timing can be
controlled very precisely".

:func:`jitter_comparison` produces, for both implementations at the MDE
revolution rate and at the 1 MHz limit:

* the latency distribution summary (mean/σ/p99/p99.9/worst),
* the deadline-miss rate,
* the jitter-induced *false beam phase* in RF degrees — the number that
  decides feasibility, because the control loop cannot distinguish a
  late output pulse from genuine bunch motion.  It must be far below the
  degree-scale synchrotron oscillations being emulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cgra.models import compile_beam_model
from repro.cgra.sensor import ACTUATOR_DELTA_T
from repro.errors import ConfigurationError
from repro.hil.jitter import CgraTimingModel, SoftwareTimingModel, TimingSample
from repro.parallel import WorkerPool, dispatch, shard_seeds

__all__ = ["JitterRow", "JitterTask", "jitter_rows_for", "jitter_comparison"]

#: Revolution rates compared: the MDE rate and the paper's 1 MHz limit.
F_REV_VALUES = (800e3, 1.0e6)
#: Harmonic number converting output jitter into RF phase.
HARMONIC = 4
#: Root seed; each revolution rate samples from its own child seed.
SEED = 7


@dataclass(frozen=True)
class JitterRow:
    """One implementation's timing behaviour at one revolution rate."""

    implementation: str
    f_rev_hz: float
    latency: TimingSample
    deadline_miss_rate: float
    #: RMS false beam phase induced by output jitter, RF degrees.
    false_phase_rms_deg: float
    #: Worst-case false beam phase, RF degrees.
    false_phase_worst_deg: float


@dataclass(frozen=True)
class JitterTask:
    """One revolution-rate point of the comparison (plain data, so it
    shards across :mod:`repro.parallel` workers)."""

    f_rev_hz: float
    n_samples: int
    #: Per-item child seed (see :func:`repro.parallel.shard_seeds`).
    seed: int


def jitter_rows_for(task: JitterTask) -> list[JitterRow]:
    """Both implementations' rows at one revolution rate.

    Module-level so it pickles by reference; the model compile is served
    from the per-process cache in workers.
    """
    rng = np.random.default_rng(task.seed)
    model = compile_beam_model(n_bunches=1, pipelined=True)
    write_tick = None
    for placed in model.schedule.ops.values():
        node = model.graph.node(placed.node_id)
        if node.sensor_id == ACTUATOR_DELTA_T:
            write_tick = placed.start
            break
    if write_tick is None:
        raise ConfigurationError("beam model has no Δt actuator write")
    cgra = CgraTimingModel(write_tick, cgra_clock_hz=model.config.clock_mhz * 1e6)

    f_rev, n_samples = task.f_rev_hz, task.n_samples
    t_rev = 1.0 / f_rev
    rows: list[JitterRow] = []
    # Software implementation.
    lat = SoftwareTimingModel().sample(n_samples, rng)
    misses = float(np.count_nonzero(lat > t_rev)) / n_samples
    dev = lat - np.median(lat)
    phase_err = 360.0 * HARMONIC * f_rev * dev
    rows.append(
        JitterRow(
            implementation="software (CPU)",
            f_rev_hz=f_rev,
            latency=TimingSample.from_latencies(lat),
            deadline_miss_rate=misses,
            false_phase_rms_deg=float(np.sqrt(np.mean(phase_err**2))),
            false_phase_worst_deg=float(np.abs(phase_err).max()),
        )
    )
    # CGRA: deterministic write tick; only the DAC sample clock
    # quantises the output edge (±½ sample worst case).
    clat = cgra.sample(n_samples)
    miss = 1.0 if model.schedule_length > t_rev * model.config.clock_mhz * 1e6 else 0.0
    dac_quant = 0.5 * cgra.output_time_quantisation()
    rows.append(
        JitterRow(
            implementation="CGRA (this work)",
            f_rev_hz=f_rev,
            latency=TimingSample.from_latencies(clat),
            deadline_miss_rate=miss,
            false_phase_rms_deg=360.0 * HARMONIC * f_rev * dac_quant / np.sqrt(3.0),
            false_phase_worst_deg=360.0 * HARMONIC * f_rev * dac_quant,
        )
    )
    return rows


def jitter_comparison(
    n_samples: int = 200_000, pool: WorkerPool | None = None
) -> list[JitterRow]:
    """Build the E7 comparison table: one task per revolution rate on
    ``pool`` (inline without one).

    Each revolution rate samples from its own child seed, so the table
    is identical whether the tasks run here or across a worker pool.
    """
    tasks = [
        JitterTask(f_rev_hz=f_rev, n_samples=n_samples, seed=seed)
        for f_rev, seed in zip(F_REV_VALUES, shard_seeds(SEED, len(F_REV_VALUES)))
    ]
    return [row for pair in dispatch(pool, jitter_rows_for, tasks, "jitter") for row in pair]

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
from repro.parallel.seeding import shard_seeds

__all__ = ["JitterRow", "JitterTask", "jitter_tasks", "jitter_rows_for", "jitter_comparison"]


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
    harmonic: int = 4
    n_samples: int = 200_000
    #: Per-item child seed (see :func:`repro.parallel.shard_seeds`).
    seed: int = 7
    software_timing: SoftwareTimingModel | None = None


def jitter_rows_for(task: JitterTask) -> list[JitterRow]:
    """Both implementations' rows at one revolution rate.

    Module-level so it pickles by reference; the model compile is served
    from the per-process cache in workers.
    """
    rng = np.random.default_rng(task.seed)
    software = (
        task.software_timing
        if task.software_timing is not None
        else SoftwareTimingModel()
    )
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

    f_rev, harmonic, n_samples = task.f_rev_hz, task.harmonic, task.n_samples
    t_rev = 1.0 / f_rev
    rows: list[JitterRow] = []
    # Software implementation.
    lat = software.sample(n_samples, rng)
    misses = float(np.count_nonzero(lat > t_rev)) / n_samples
    dev = lat - np.median(lat)
    phase_err = 360.0 * harmonic * f_rev * dev
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
            false_phase_rms_deg=360.0 * harmonic * f_rev * dac_quant / np.sqrt(3.0),
            false_phase_worst_deg=360.0 * harmonic * f_rev * dac_quant,
        )
    )
    return rows


def jitter_tasks(
    f_rev_values: tuple[float, ...] = (800e3, 1.0e6),
    harmonic: int = 4,
    n_samples: int = 200_000,
    software_timing: SoftwareTimingModel | None = None,
    seed: int = 7,
) -> list[JitterTask]:
    """Shard plan of the comparison: one task per revolution rate, each
    with its own spawned child seed — independent of the worker count."""
    if not f_rev_values:
        raise ConfigurationError("need at least one revolution frequency")
    seeds = shard_seeds(seed, len(f_rev_values))
    return [
        JitterTask(
            f_rev_hz=f_rev,
            harmonic=harmonic,
            n_samples=n_samples,
            seed=item_seed,
            software_timing=software_timing,
        )
        for f_rev, item_seed in zip(f_rev_values, seeds)
    ]


def jitter_comparison(
    f_rev_values: tuple[float, ...] = (800e3, 1.0e6),
    harmonic: int = 4,
    n_samples: int = 200_000,
    software_timing: SoftwareTimingModel | None = None,
    seed: int = 7,
) -> list[JitterRow]:
    """Build the E7 comparison table (serial reference path).

    Each revolution rate samples from its own child seed, so the table
    is identical whether the tasks run here or across a worker pool.
    """
    rows: list[JitterRow] = []
    for task in jitter_tasks(f_rev_values, harmonic, n_samples, software_timing, seed):
        rows.extend(jitter_rows_for(task))
    return rows

"""Sharded jump-amplitude sweep: the batch × process workload.

The sweep runs one closed-loop scenario per jump amplitude.  Two levels
of fan-out compose:

* **batch** — each shard runs its amplitudes as lockstep lanes of one
  :class:`~repro.hil.simulator.CavityInTheLoop` (a tuple ``jump_deg``:
  one compiled program advances the whole shard per revolution);
* **process** — shards dispatch across a :mod:`repro.parallel` worker
  pool, one batched bench per worker at a time.

The shard plan is a pure function of the workload (``SWEEP_CHUNK`` lanes
per shard), **never** of the worker count: ``--jobs 1`` executes exactly
the same batched runs as ``--jobs N``, just serially, which is what
makes the merged CSV byte-identical across job counts (lane traces can
depend on the lane *grouping* through vector-width-sensitive libm paths,
so the grouping itself must be pinned).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SweepTask", "SweepShardResult", "plan_sweep", "run_sweep_shard", "SWEEP_CHUNK"]

#: Lanes per shard.  Fixed by the workload so the shard plan (and with
#: it every lane's batch composition) is independent of ``--jobs``.
SWEEP_CHUNK = 8


@dataclass(frozen=True)
class SweepTask:
    """One shard: a contiguous slice of the amplitude scan (plain data)."""

    #: Index of the first lane of this shard in the full scan.
    offset: int
    #: Phase-jump amplitudes of this shard's lanes, degrees.
    amps: tuple[float, ...]
    #: Machine-time duration of the run, seconds.
    duration: float
    #: Also return the per-lane phase traces (parity gates compare them
    #: bit-for-bit; costs pickle size, so off for plain sweeps).
    keep_trace: bool = False


@dataclass
class SweepShardResult:
    """Per-lane sweep observables of one shard (plain data, picklable)."""

    offset: int
    amps: np.ndarray
    f_s: np.ndarray
    first_pp: np.ndarray
    settled: np.ndarray
    n_turns: int
    #: (n_records, lanes) phase traces when the task asked for them.
    phase_deg: np.ndarray | None = None


def plan_sweep(
    amps: np.ndarray,
    duration: float,
    keep_trace: bool = False,
) -> list[SweepTask]:
    """Chunk an amplitude scan into ``SWEEP_CHUNK``-lane shard tasks."""
    amps = np.asarray(amps, dtype=float)
    return [
        SweepTask(
            offset=start,
            amps=tuple(float(a) for a in amps[start : start + SWEEP_CHUNK]),
            duration=float(duration),
            keep_trace=keep_trace,
        )
        for start in range(0, amps.size, SWEEP_CHUNK)
    ]


def run_sweep_shard(task: SweepTask) -> SweepShardResult:
    """Run one shard's lanes as a lockstep batch; extract Fig. 5 metrics.

    Module-level and imported lazily so it pickles by reference into
    worker processes, where ``compile_beam_model`` is served by the
    worker's own primed cache.
    """
    from repro.experiments.fig5 import fig5_metrics
    from repro.hil.simulator import CavityInTheLoop, HilConfig
    from repro.physics import KNOWN_IONS, SIS18

    # The bench's defaults: first jump at 5 ms, every revolution recorded.
    config = HilConfig(ring=SIS18, ion=KNOWN_IONS["14N7+"], jump_deg=task.amps)
    jump_time = config.jump_start_time
    res = CavityInTheLoop(config).run(task.duration)
    n_lanes = len(task.amps)
    f_s = np.full(n_lanes, np.nan)
    first_pp = np.full(n_lanes, np.nan)
    settled = np.full(n_lanes, np.nan)
    # fig5_metrics needs the full settled window (one 50 ms inter-jump
    # period after the jump); shorter smoke/bench runs keep NaN metrics
    # and are compared on the raw traces instead.
    if task.duration >= jump_time + 0.055:
        for lane in range(n_lanes):
            m = fig5_metrics(res.time, res.phase_deg[:, lane], task.amps[lane], jump_time)
            f_s[lane] = m.synchrotron_frequency
            first_pp[lane] = m.first_peak_to_peak
            settled[lane] = m.settled_shift
    return SweepShardResult(
        offset=task.offset,
        amps=np.asarray(task.amps),
        f_s=f_s,
        first_pp=first_pp,
        settled=settled,
        n_turns=res.n_turns,
        phase_deg=res.phase_deg if task.keep_trace else None,
    )

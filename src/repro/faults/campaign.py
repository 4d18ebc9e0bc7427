"""Fault-campaign planning, sharded execution and classification.

A campaign sweeps fault kind × magnitude × onset time over the Fig. 5a
closed-loop scenario and classifies every run's stability margin.  The
execution plan follows the sweep experiment's two-level fan-out:

* **batch** — loop-fault scenarios pack :data:`CAMPAIGN_CHUNK` per
  shard, one scenario per lane of a batched bench (each spec's
  ``target`` selects its lane, so co-resident scenarios stay bitwise
  isolated — pinned by ``tests/faults/test_inject.py``);
* **process** — shards dispatch over :mod:`repro.parallel`; the shard
  plan, every per-scenario seed
  (:func:`repro.parallel.seeding.shard_seeds` children of
  ``base_seed``) and the classification thresholds are pure functions
  of the :class:`CampaignConfig`, never of ``--jobs``, so the campaign
  CSV is byte-identical across job counts and across the bit-exact
  execution engines.

``CGRA_CONTEXT_CORRUPTION`` scenarios do not run — the engines execute
off the schedule, the context images being the serialization format the
hardware would load — so they dispatch as *detection* tasks instead:
corrupt one context slot, ask the PR-2 static verifier
(:func:`repro.faults.engine.detect_context_corruption`).

Failure containment: a faulted shard never kills the campaign.  Its
lanes are retried one scenario per single-lane shard (deterministic:
the retry plan depends only on *which* scenarios failed); scenarios
failing the retry classify as :class:`~repro.faults.report.Outcome`
``FAILED`` with NaN margins.  Only a baseline failure raises — without
the unfaulted reference trace nothing can be classified.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.errors import FaultSpecError
from repro.faults.engine import CAMPAIGN_JUMP_DEG, CAMPAIGN_RECORD_EVERY
from repro.faults.inject import LOOP_KINDS
from repro.faults.report import Outcome, StabilityReport, classify_trace
from repro.faults.spec import FaultKind, FaultSpec

__all__ = [
    "CAMPAIGN_CHUNK",
    "MAGNITUDE_LADDER",
    "KIND_CODES",
    "CampaignConfig",
    "CampaignTask",
    "VerifierTask",
    "CampaignShardResult",
    "VerifierResult",
    "CampaignResult",
    "campaign_grid",
    "plan_campaign",
    "run_campaign_shard",
    "run_verifier_shard",
    "run_campaign",
]

#: Scenario lanes per shard (same rationale as ``SWEEP_CHUNK``: the lane
#: grouping is part of the workload, never of the worker count).
CAMPAIGN_CHUNK = 8

#: Curated magnitude ladders, mild → severe, all inside
#: :data:`repro.faults.spec.MAGNITUDE_WINDOWS`.  A campaign subsamples
#: ``magnitudes_per_kind`` rungs, always including the mildest.
MAGNITUDE_LADDER: dict[FaultKind, tuple[float, ...]] = {
    FaultKind.CAVITY_FAILURE: (0.1, 0.3, 0.6, 1.0),  # gradient fraction lost
    FaultKind.MICROPHONIC_DETUNING: (5.0, 15.0, 30.0, 60.0),  # Hz RMS
    FaultKind.AMPLIFIER_SATURATION: (0.5, 0.2, 0.1, 0.04),  # clip level, V
    FaultKind.DETUNING_TRANSIENT: (2.0, 5.0, 10.0, 25.0),  # Hz step
    FaultKind.ADC_STUCK_BIT: (2.0, 5.0, 9.0, 12.0),  # bit index
    FaultKind.DAC_CLIPPING: (0.8, 0.5, 0.2, 0.05),  # fraction of full scale
    FaultKind.DDS_PHASE_GLITCH: (
        math.pi / 16, math.pi / 8, math.pi / 4, math.pi / 2,  # radians
    ),
    FaultKind.CGRA_CONTEXT_CORRUPTION: (0.0, 3.0, 7.0, 11.0),  # context slot
}

#: Stable numeric id of each kind for the all-numeric CSV (declaration
#: order of :class:`FaultKind`).
KIND_CODES: dict[FaultKind, int] = {kind: i for i, kind in enumerate(FaultKind)}

_SCENARIOS = obs.get_registry().counter(
    "faults_scenarios_total", "classified campaign scenarios (by outcome label)"
)


@dataclass(frozen=True)
class CampaignConfig:
    """The campaign grid and run parameters (plain data, hashable)."""

    #: Machine-time duration of every scenario run, seconds.
    duration: float = 0.12
    #: Fault onset times swept per (kind, magnitude), seconds.  The
    #: first falls in a quiet inter-jump stretch; the second straddles
    #: the 0.055 s phase jump, so saturation-type faults (which only
    #: bite when the loop swings) are exercised under load.
    onset_times: tuple[float, ...] = (0.02, 0.05)
    #: Magnitude rungs taken from :data:`MAGNITUDE_LADDER` per kind.
    magnitudes_per_kind: int = 2
    #: Transient length of every loop fault, seconds.
    fault_duration: float = 0.02
    #: Root of the per-scenario seed tree.
    base_seed: int = 2024
    record_every: int = CAMPAIGN_RECORD_EVERY
    jump_deg: float = CAMPAIGN_JUMP_DEG
    chunk: int = CAMPAIGN_CHUNK

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise FaultSpecError(f"duration must be finite and > 0, got {self.duration!r}")
        if not self.onset_times:
            raise FaultSpecError("onset_times must not be empty")
        for onset in self.onset_times:
            if not 0.0 <= onset < self.duration:
                raise FaultSpecError(
                    f"onset {onset!r} outside the run [0, {self.duration})"
                )
        ladder_depth = min(len(l) for l in MAGNITUDE_LADDER.values())
        if not 1 <= self.magnitudes_per_kind <= ladder_depth:
            raise FaultSpecError(
                f"magnitudes_per_kind must be in [1, {ladder_depth}], "
                f"got {self.magnitudes_per_kind}"
            )
        if not (math.isfinite(self.fault_duration) and self.fault_duration > 0.0):
            raise FaultSpecError(
                f"fault_duration must be finite and > 0, got {self.fault_duration!r}"
            )
        if self.chunk < 1:
            raise FaultSpecError(f"chunk must be >= 1, got {self.chunk}")

    @classmethod
    def quick(cls) -> "CampaignConfig":
        """Smoke-run grid: one mild magnitude, one onset per kind."""
        return cls(duration=0.08, onset_times=(0.02,), magnitudes_per_kind=1)


@dataclass(frozen=True)
class CampaignTask:
    """One shard of loop-fault scenarios (plain data, picklable).

    ``specs[j]`` runs on lane ``j``; ``indices[j]`` is its scenario
    index in the campaign grid.  ``specs`` of ``(None,)`` with indices
    ``(-1,)`` is the unfaulted baseline lane.
    """

    indices: tuple[int, ...]
    specs: tuple[FaultSpec | None, ...]
    duration: float
    jump_deg: float = CAMPAIGN_JUMP_DEG
    record_every: int = CAMPAIGN_RECORD_EVERY


@dataclass(frozen=True)
class VerifierTask:
    """One substrate-fault detection experiment."""

    index: int
    spec: FaultSpec


@dataclass
class CampaignShardResult:
    """Recorded lanes of one campaign shard (plain data, picklable)."""

    indices: tuple[int, ...]
    time: np.ndarray
    #: (n_records, lanes) phase traces, degrees at h·f_R.
    phase_deg: np.ndarray
    n_turns: int
    elapsed_s: float
    deadline_misses: int


@dataclass
class VerifierResult:
    """Outcome of one detection experiment."""

    index: int
    detected: bool
    n_errors: int


def _subsample(ladder: tuple[float, ...], count: int) -> tuple[float, ...]:
    """``count`` evenly spaced rungs of ``ladder``, mildest first."""
    if count == 1:
        return (ladder[0],)
    step = (len(ladder) - 1) / (count - 1)
    return tuple(ladder[round(i * step)] for i in range(count))


def campaign_grid(config: CampaignConfig) -> list[FaultSpec]:
    """The campaign's scenario list, in its one canonical order.

    Kind (declaration order) × magnitude (mild → severe) × onset; the
    substrate kind sweeps only magnitudes (a detection experiment has
    no meaningful onset).  Scenario ``i`` always carries seed child
    ``i`` of ``base_seed``, independent of grid edits elsewhere in the
    campaign — the seed is assigned positionally after the grid is
    fixed.
    """
    from repro.parallel.seeding import shard_seeds

    specs: list[FaultSpec] = []
    for kind in FaultKind:
        magnitudes = _subsample(MAGNITUDE_LADDER[kind], config.magnitudes_per_kind)
        onsets = config.onset_times if kind in LOOP_KINDS else config.onset_times[:1]
        for mi, magnitude in enumerate(magnitudes):
            for ti, onset in enumerate(onsets):
                specs.append(
                    FaultSpec(
                        kind=kind,
                        magnitude=magnitude,
                        onset_time=onset,
                        duration=config.fault_duration,
                        label=f"{kind.value}/m{mi}/t{ti}",
                    )
                )
    seeds = shard_seeds(config.base_seed, len(specs))
    return [replace(spec, seed=seeds[i]) for i, spec in enumerate(specs)]


def plan_campaign(
    config: CampaignConfig,
) -> tuple[list[FaultSpec], list[CampaignTask], list[VerifierTask]]:
    """Build the scenario list and its shard plan.

    Returns ``(scenarios, tasks, verifier_tasks)`` where ``tasks[0]``
    is always the baseline shard.  Pure function of the config.
    """
    scenarios = campaign_grid(config)
    loop_indices = [i for i, s in enumerate(scenarios) if s.kind in LOOP_KINDS]
    tasks = [
        CampaignTask(
            indices=(-1,),
            specs=(None,),
            duration=config.duration,
            jump_deg=config.jump_deg,
            record_every=config.record_every,
        )
    ]
    for start in range(0, len(loop_indices), config.chunk):
        group = loop_indices[start : start + config.chunk]
        tasks.append(
            CampaignTask(
                indices=tuple(group),
                specs=tuple(scenarios[i] for i in group),
                duration=config.duration,
                jump_deg=config.jump_deg,
                record_every=config.record_every,
            )
        )
    verifier_tasks = [
        VerifierTask(index=i, spec=s)
        for i, s in enumerate(scenarios)
        if s.kind not in LOOP_KINDS
    ]
    return scenarios, tasks, verifier_tasks


def run_campaign_shard(task: CampaignTask) -> CampaignShardResult:
    """Run one shard's scenarios as lockstep lanes (worker-side).

    Module-level and lazily importing so it pickles by reference into
    pool workers, like the sweep shard.
    """
    from repro.faults.engine import run_fault_lanes

    t0 = time.perf_counter()
    times, phase, n_turns, misses = run_fault_lanes(
        task.specs,
        task.duration,
        jump_deg=task.jump_deg,
        record_every=task.record_every,
    )
    return CampaignShardResult(
        indices=task.indices,
        time=times,
        phase_deg=phase,
        n_turns=n_turns,
        elapsed_s=time.perf_counter() - t0,
        deadline_misses=misses,
    )


def run_verifier_shard(task: VerifierTask) -> VerifierResult:
    """Run one detection experiment (worker-side)."""
    from repro.faults.engine import detect_context_corruption

    detected, n_errors = detect_context_corruption(task.spec)
    return VerifierResult(index=task.index, detected=detected, n_errors=n_errors)


@dataclass
class CampaignResult:
    """Classified campaign: one row per scenario, grid order."""

    config: CampaignConfig
    scenarios: list[FaultSpec]
    reports: list[StabilityReport]
    #: Baseline (unfaulted) phase trace and its record times.
    baseline_time: np.ndarray
    baseline_phase_deg: np.ndarray
    n_turns: int
    #: Scenario indices whose first shard failed and were retried.
    retried: tuple[int, ...] = ()

    #: CSV schema (all-numeric; NaN for not-applicable margins).
    CSV_HEADER = (
        "scenario,kind_code,magnitude,onset_s,duration_s,seed,"
        "outcome,detected,settle_s,max_excursion_deg,final_error_deg"
    )

    def csv_columns(self) -> list[np.ndarray]:
        """Columns matching :data:`CSV_HEADER`, scenario order."""
        n = len(self.scenarios)
        cols = {
            "scenario": np.arange(n, dtype=float),
            "kind_code": np.array(
                [KIND_CODES[s.kind] for s in self.scenarios], dtype=float
            ),
            "magnitude": np.array([s.magnitude for s in self.scenarios]),
            "onset_s": np.array([s.onset_time for s in self.scenarios]),
            "duration_s": np.array(
                [math.nan if s.duration is None else s.duration for s in self.scenarios]
            ),
            "seed": np.array([float(s.seed or 0) for s in self.scenarios]),
            "outcome": np.array([float(r.outcome) for r in self.reports]),
            "detected": np.array(
                [1.0 if r.outcome is Outcome.DETECTED else 0.0 for r in self.reports]
            ),
            "settle_s": np.array([r.settle_s for r in self.reports]),
            "max_excursion_deg": np.array(
                [r.max_excursion_deg for r in self.reports]
            ),
            "final_error_deg": np.array([r.final_error_deg for r in self.reports]),
        }
        return [cols[name] for name in self.CSV_HEADER.split(",")]

    def outcome_counts(self) -> dict[Outcome, int]:
        """Scenario tally per outcome (summary lines, tests)."""
        counts: dict[Outcome, int] = {}
        for report in self.reports:
            counts[report.outcome] = counts.get(report.outcome, 0) + 1
        return counts

    def summary_lines(self) -> list[str]:
        """Human-readable digest for the runner log."""
        counts = self.outcome_counts()
        tally = ", ".join(
            f"{counts[o]} {o.name.lower()}" for o in Outcome if o in counts
        )
        lines = [
            f"{len(self.scenarios)} scenarios "
            f"({len(self.config.onset_times)} onset(s) x "
            f"{self.config.magnitudes_per_kind} magnitude(s) per kind, "
            f"{self.config.duration * 1e3:.0f} ms runs): {tally}",
        ]
        if self.retried:
            lines.append(
                f"retried {len(self.retried)} scenario(s) single-lane "
                f"after shard failure"
            )
        worst = max(
            (r.max_excursion_deg for r in self.reports if math.isfinite(r.max_excursion_deg)),
            default=math.nan,
        )
        lines.append(f"worst excursion {worst:.2f} deg from baseline")
        return lines


def run_campaign(config: CampaignConfig, pool=None) -> CampaignResult:
    """Plan, dispatch, retry and classify one full campaign.

    ``pool`` is an optional warm :class:`repro.parallel.WorkerPool`;
    without it shards run inline (``--jobs 1`` semantics).  Shard
    failures are contained per the module docstring; only a failed
    baseline raises.
    """
    from repro.parallel import raise_on_failures, run_sharded

    def dispatch(fn, items):
        if pool is not None:
            return pool.map_sharded(fn, items)
        return run_sharded(fn, items, jobs=1)

    scenarios, tasks, verifier_tasks = plan_campaign(config)
    results = dispatch(run_campaign_shard, tasks)
    (baseline,) = raise_on_failures(results[:1], "faults baseline")

    # Collect lane traces; retry lanes of failed shards one-by-one so a
    # single poisoned scenario cannot take down its shard-mates.
    traces: dict[int, np.ndarray] = {}
    failed_indices: list[int] = []
    for task, result in zip(tasks[1:], results[1:]):
        if result.failure is not None:
            failed_indices.extend(task.indices)
            continue
        shard = result.value
        for lane, index in enumerate(shard.indices):
            traces[index] = shard.phase_deg[:, lane]
    retried = tuple(failed_indices)
    if failed_indices:
        retry_tasks = [
            CampaignTask(
                indices=(i,),
                specs=(scenarios[i],),
                duration=config.duration,
                jump_deg=config.jump_deg,
                record_every=config.record_every,
            )
            for i in failed_indices
        ]
        for result in dispatch(run_campaign_shard, retry_tasks):
            if result.failure is not None:
                continue  # stays absent -> FAILED below
            shard = result.value
            traces[shard.indices[0]] = shard.phase_deg[:, 0]

    verdicts: dict[int, VerifierResult] = {}
    for result in dispatch(run_verifier_shard, verifier_tasks):
        if result.failure is None:
            shard = result.value
            verdicts[shard.index] = shard

    nan_report = StabilityReport(Outcome.FAILED, math.nan, math.nan, math.nan)
    reports: list[StabilityReport] = []
    for i, spec in enumerate(scenarios):
        if spec.kind in LOOP_KINDS:
            trace = traces.get(i)
            if trace is None:
                reports.append(nan_report)
            else:
                reports.append(
                    classify_trace(
                        baseline.time, trace, baseline.phase_deg[:, 0], spec
                    )
                )
        else:
            verdict = verdicts.get(i)
            if verdict is None:
                reports.append(nan_report)
            else:
                outcome = Outcome.DETECTED if verdict.detected else Outcome.UNDETECTED
                reports.append(
                    StabilityReport(outcome, math.nan, math.nan, math.nan)
                )
    for report in reports:
        _SCENARIOS.inc(outcome=report.outcome.name.lower())
    return CampaignResult(
        config=config,
        scenarios=scenarios,
        reports=reports,
        baseline_time=baseline.time,
        baseline_phase_deg=baseline.phase_deg,
        n_turns=baseline.n_turns,
        retried=retried,
    )

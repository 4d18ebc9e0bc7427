"""Fault-campaign planning, sharded execution and classification.

A campaign sweeps fault kind × magnitude × onset time over the Fig. 5a
closed-loop scenario and classifies every run's stability margin
against an unfaulted baseline run under the same stimulus.  The plan
is one lane list: the baseline (lane ``-1``, spec ``None``), then every
loop-fault scenario in grid order.

* **batch** — the lane list is cut into shards of :data:`CAMPAIGN_CHUNK`
  lanes, one lane of a batched bench each, so the baseline is lane 0 of
  the first shard.  Each spec's ``target`` selects its lane, so
  co-resident lanes stay bitwise isolated (pinned by
  ``tests/faults/test_inject.py``): a lane's bits do not depend on its
  shard-mates;
* **process** — shards dispatch over :mod:`repro.parallel` in one map;
  the shard plan, every per-scenario seed
  (:func:`repro.parallel.seeding.shard_seeds` children of
  ``base_seed``) and the classification thresholds are pure functions
  of the :class:`CampaignConfig`, never of ``--jobs``, so the campaign
  CSV is byte-identical across job counts and across the bit-exact
  execution engines.

``CGRA_CONTEXT_CORRUPTION`` scenarios do not run — the engines execute
off the schedule, the context images being the serialization format the
hardware would load — so they are *detection* experiments instead,
run in place after the map: corrupt one context slot, ask the static
verifier (:func:`repro.faults.engine.detect_context_corruption`).

Failure containment: a faulted shard never kills the campaign.  Every
lane of a failed shard, the baseline's included, is retried alone in a
single-lane shard (deterministic: the retry plan depends only on
*which* shards failed); a scenario failing its retry, or a detection
that raises, classifies as :class:`~repro.faults.report.Outcome`
``FAILED`` with NaN margins, and the result keeps one line saying why
for every failed shard, retry and detection.  Only a baseline that
fails its retry raises — without the unfaulted reference trace nothing
can be classified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import FaultSpecError
from repro.faults.inject import LOOP_KINDS
from repro.faults.report import Outcome, StabilityReport, classify_trace
from repro.faults.spec import FaultKind, FaultSpec

__all__ = [
    "CAMPAIGN_CHUNK",
    "MAGNITUDE_LADDER",
    "KIND_CODES",
    "CampaignConfig",
    "CampaignTask",
    "CampaignShardResult",
    "CampaignResult",
    "campaign_grid",
    "plan_campaign",
    "run_campaign_shard",
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
        if not (
            isinstance(self.magnitudes_per_kind, int)
            and 1 <= self.magnitudes_per_kind <= ladder_depth
        ):
            raise FaultSpecError(
                f"magnitudes_per_kind must be an int in [1, {ladder_depth}], "
                f"got {self.magnitudes_per_kind!r}"
            )
        if not (math.isfinite(self.fault_duration) and self.fault_duration > 0.0):
            raise FaultSpecError(
                f"fault_duration must be finite and > 0, got {self.fault_duration!r}"
            )
        if not isinstance(self.base_seed, int) or self.base_seed < 0:
            raise FaultSpecError(f"base_seed must be an int >= 0, got {self.base_seed!r}")

    @classmethod
    def quick(cls) -> "CampaignConfig":
        """Smoke-run grid: one mild magnitude, one onset per kind."""
        return cls(duration=0.08, onset_times=(0.02,), magnitudes_per_kind=1)


@dataclass(frozen=True)
class CampaignTask:
    """One shard of campaign lanes (plain data, picklable).

    ``specs[j]`` runs on lane ``j``; ``indices[j]`` is its scenario
    index in the campaign grid, or ``-1`` for the unfaulted baseline,
    whose spec is ``None``.
    """

    indices: tuple[int, ...]
    specs: tuple[FaultSpec | None, ...]
    duration: float


@dataclass
class CampaignShardResult:
    """Recorded lanes of one campaign shard (plain data, picklable)."""

    indices: tuple[int, ...]
    time: np.ndarray
    #: (n_records, lanes) phase traces, degrees at h·f_R.
    phase_deg: np.ndarray
    n_turns: int


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


def _lane_tasks(
    lanes: Sequence[int], scenarios: list[FaultSpec], duration: float, width: int
) -> list[CampaignTask]:
    """Cut ``lanes`` into tasks of ``width`` lanes each, in order.

    A lane is a scenario index, or ``-1`` for the unfaulted baseline.
    """
    return [
        CampaignTask(
            indices=tuple(group),
            specs=tuple(None if i == -1 else scenarios[i] for i in group),
            duration=duration,
        )
        for group in (lanes[s : s + width] for s in range(0, len(lanes), width))
    ]


def plan_campaign(
    config: CampaignConfig,
) -> tuple[list[FaultSpec], list[CampaignTask]]:
    """Build the scenario list and its shard plan.

    Returns ``(scenarios, tasks)``: the lane list — the baseline
    (``-1``), then every loop scenario in grid order — cut into
    :data:`CAMPAIGN_CHUNK`-lane shards, so lane 0 of ``tasks[0]`` is
    the baseline.  Pure function of the config.
    """
    scenarios = campaign_grid(config)
    lanes = [-1] + [i for i, s in enumerate(scenarios) if s.kind in LOOP_KINDS]
    return scenarios, _lane_tasks(lanes, scenarios, config.duration, CAMPAIGN_CHUNK)


def run_campaign_shard(task: CampaignTask) -> CampaignShardResult:
    """Run one shard's lanes in lockstep (worker-side).

    Module-level and lazily importing so it pickles by reference into
    pool workers, like the sweep shard.
    """
    from repro.faults.engine import run_fault_lanes

    times, phase, n_turns = run_fault_lanes(task.specs, task.duration)
    return CampaignShardResult(
        indices=task.indices, time=times, phase_deg=phase, n_turns=n_turns
    )


@dataclass
class CampaignResult:
    """Classified campaign: one row per scenario, grid order."""

    config: CampaignConfig
    scenarios: list[FaultSpec]
    reports: list[StabilityReport]
    #: Baseline (unfaulted) record times and ``(n_records,)`` phase
    #: trace, degrees at h·f_R.
    baseline_time: np.ndarray
    baseline_phase_deg: np.ndarray
    n_turns: int
    #: Lanes retried alone after their shard failed, in plan order:
    #: scenario indices, ``-1`` for the baseline.
    retried: tuple[int, ...] = ()
    #: Why each failed shard, retry and detection failed: one line each,
    #: in the order they ran.
    failures: tuple[str, ...] = ()

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
                f"retried {len(self.retried)} lane(s) alone after a shard "
                f"failure"
            )
        lines += [f"failed: {line}" for line in self.failures]
        worst = max(
            (r.max_excursion_deg for r in self.reports if math.isfinite(r.max_excursion_deg)),
            default=math.nan,
        )
        lines.append(f"worst excursion {worst:.2f} deg from baseline")
        return lines


def run_campaign(config: CampaignConfig, pool=None) -> CampaignResult:
    """Plan, dispatch, retry and classify one full campaign.

    ``pool`` is an optional warm :class:`repro.parallel.WorkerPool`;
    without it the shards run inline (``WorkerPool(jobs=1)``).
    Failures are contained per the module docstring; only a baseline
    that fails its retry raises.
    """
    from repro.faults.engine import detect_context_corruption
    from repro.parallel import WorkerPool, raise_on_failures

    if pool is None:
        pool = WorkerPool(jobs=1)
    scenarios, tasks = plan_campaign(config)
    results = pool.map_sharded(run_campaign_shard, tasks)
    # Every lane of a failed shard is retried alone, so one poisoned
    # scenario cannot take down its shard-mates.
    retried = tuple(
        i
        for task, result in zip(tasks, results)
        if result.failure is not None
        for i in task.indices
    )
    retry_tasks = _lane_tasks(retried, scenarios, config.duration, width=1)
    retry_results = pool.map_sharded(run_campaign_shard, retry_tasks)
    # Lane -> (shard, column) of every lane that ran.
    ran: dict[int, tuple[CampaignShardResult, int]] = {}
    for result in results + retry_results:
        if result.failure is None:
            for column, index in enumerate(result.value.indices):
                ran[index] = (result.value, column)
    if -1 not in ran:
        # Nothing classifies without the unfaulted reference trace.  The
        # baseline leads the lane list, so its retry is the first.
        raise_on_failures(retry_results[:1], "faults baseline")
    base, base_column = ran[-1]
    baseline_phase = base.phase_deg[:, base_column]
    # Each failed task's line names the lanes it carried, not its
    # position in its map call.
    failures = []
    for task, r in zip(tasks + retry_tasks, results + retry_results):
        if r.failure is not None:
            lanes = ", ".join("baseline" if s is None else s.label for s in task.specs)
            failures.append(
                f"{lanes} ({r.failure.fn}): {r.failure.error_type}: {r.failure.message}"
            )

    failed = StabilityReport(Outcome.FAILED, math.nan, math.nan, math.nan)
    reports: list[StabilityReport] = []
    for i, spec in enumerate(scenarios):
        if spec.kind not in LOOP_KINDS:
            try:
                detected, _ = detect_context_corruption(spec)
            except Exception as exc:  # contained as a shard is: the row reads FAILED
                failures.append(f"detection {spec.label}: {type(exc).__name__}: {exc}")
                report = failed
            else:
                outcome = Outcome.DETECTED if detected else Outcome.UNDETECTED
                report = StabilityReport(outcome, math.nan, math.nan, math.nan)
        elif i in ran:
            shard, column = ran[i]
            report = classify_trace(
                base.time, shard.phase_deg[:, column], baseline_phase, spec
            )
        else:
            report = failed
        reports.append(report)
        _SCENARIOS.inc(outcome=report.outcome.name.lower())
    return CampaignResult(
        config=config,
        scenarios=scenarios,
        reports=reports,
        baseline_time=base.time,
        baseline_phase_deg=baseline_phase,
        n_turns=base.n_turns,
        retried=retried,
        failures=tuple(failures),
    )

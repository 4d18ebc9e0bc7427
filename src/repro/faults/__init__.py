"""``repro.faults`` — the fault-injection campaign engine.

Models RF-station and hardware-level faults against the closed loop and
sweeps fault kind × magnitude × onset time as batched/sharded runs,
reporting loop stability margins (see ROADMAP.md and docs/FAULTS.md).

``spec``
    Typed :class:`FaultSpec`/:class:`FaultKind` fault descriptions with
    construction-time validation (:class:`repro.errors.FaultSpecError`)
    and a JSON round trip — plain data by design, so campaign sweeps
    pickle cleanly to worker shards and pass the shard-safety lint
    (:mod:`repro.analysis.shardlint`) that guards this package.
``inject``
    The injectors: :class:`FaultProgram` compiles specs into
    time-indexed perturbation channels the HIL benches consult once per
    revolution (zero overhead when nothing is armed), the lane and ADC-
    bit bounds every bench config checks at construction, plus the
    context-image corruptor for substrate faults.  A bench runs the
    faults its config names and no others: the runner's ``--faults``
    hands them to ``fig5a``'s bench config, nothing else.
``engine``
    Scenario execution: loop faults run as lockstep lanes of a batched
    bench; context corruption runs as a detection experiment against
    the static verifier.
``campaign``
    Deterministic campaign grid; one lane plan, with the baseline as
    lane 0 of the first shard, dispatched in one map with failure
    containment and single-lane retries; detection experiments run in
    place; the all-numeric CSV.
``report``
    Stability-margin classification: recovered / degraded / unstable /
    detected, settle time and max excursion from the phase traces.

Campaign runs lean on the flight recorder: benches tag their spans and
:class:`~repro.obs.report.HilRunReport` entries with the armed fault
label, which travels through :class:`~repro.obs.snapshot.ObsSnapshot`
into ``repro.obs.view`` and the Perfetto export (docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from repro.faults.campaign import (
    CampaignConfig,
    CampaignResult,
    campaign_grid,
    run_campaign,
)
from repro.faults.inject import FaultProgram, corrupt_context_images
from repro.faults.report import Outcome, StabilityReport, classify_trace
from repro.faults.spec import MAGNITUDE_WINDOWS, FaultKind, FaultSpec

__all__ = [
    "FaultKind",
    "FaultSpec",
    "MAGNITUDE_WINDOWS",
    "FaultProgram",
    "corrupt_context_images",
    "Outcome",
    "StabilityReport",
    "classify_trace",
    "CampaignConfig",
    "CampaignResult",
    "campaign_grid",
    "run_campaign",
]

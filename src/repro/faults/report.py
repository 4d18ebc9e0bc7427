"""Stability-margin classification of faulted closed-loop runs.

The campaign engine (:mod:`repro.faults.campaign`) runs every scenario as
one lane of a batched bench plus one unfaulted *baseline* lane under the
same configuration.  This module turns the pair of phase traces into a
:class:`StabilityReport`: a per-scenario :class:`Outcome` plus the two
stability margins the campaign CSV exports —

* **settle time** — seconds from the fault's *clearance* (transient
  faults) or *onset* (persistent faults) until the loop's phase error is
  back inside the tolerance band and stays there;
* **max excursion** — the largest deviation of the faulted trace from
  the baseline trace, degrees at h·f_R.

Classification is a pure function of the traces, so byte-identical
traces (pinned across ``--jobs`` and engines by the existing parity
gates) classify identically — which is what makes the campaign CSV
byte-stable.  Shard telemetry (fault labels on
:class:`~repro.obs.report.HilRunReport` and span attributes) travels
through :class:`~repro.obs.snapshot.ObsSnapshot` and the usual
BENCH/JSONL exporters; this module only handles the trace-level verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from repro.faults.spec import FaultSpec

__all__ = [
    "Outcome",
    "StabilityReport",
    "classify_trace",
    "DEFAULT_TOLERANCE_DEG",
    "DEFAULT_UNSTABLE_DEG",
]

#: Phase-error band (degrees at h·f_R) within which the loop counts as
#: recovered.  One ADC code at the 0.9 V operating amplitude is ~0.004°,
#: so 1° is far above quantisation noise yet well inside the 8° jumps
#: the controller is designed to absorb.
DEFAULT_TOLERANCE_DEG = 1.0

#: Excursion (degrees) beyond which the loop is declared unstable: half
#: a bucket at h = 4 (±90° would be the separatrix; 60° keeps a margin
#: for the phase-detector wrap).
DEFAULT_UNSTABLE_DEG = 60.0


class Outcome(enum.IntEnum):
    """Per-scenario verdict (the CSV ``outcome`` code)."""

    #: Phase error returned to the tolerance band and stayed there.
    RECOVERED = 0
    #: Bounded residual error at the end of the run (loop still locked).
    DEGRADED = 1
    #: Excursion beyond the instability threshold or a non-finite trace.
    UNSTABLE = 2
    #: Substrate fault flagged by the static verifier before execution.
    DETECTED = 3
    #: Substrate fault the verifier failed to flag.
    UNDETECTED = 4
    #: The scenario's shard raised even after the single-lane retry,
    #: or its detection experiment raised.
    FAILED = 5


@dataclass(frozen=True)
class StabilityReport:
    """Stability margins of one classified scenario (plain data)."""

    outcome: Outcome
    #: Seconds from fault clearance (transient) / onset (persistent) to
    #: re-entry into the tolerance band; NaN when never settled or not
    #: applicable (verifier/failed scenarios).
    settle_s: float
    #: Largest |faulted − baseline| phase deviation, degrees; NaN when
    #: not applicable.
    max_excursion_deg: float
    #: |faulted − baseline| at the last record, degrees; NaN when not
    #: applicable.
    final_error_deg: float


def classify_trace(
    time: np.ndarray,
    phase_deg: np.ndarray,
    baseline_deg: np.ndarray,
    spec: FaultSpec,
) -> StabilityReport:
    """Classify one faulted phase trace against its unfaulted baseline.

    The error signal is the *deviation from baseline* — not the raw
    phase error — so the commanded 8° jump pattern (present in both
    traces) cancels and the verdict isolates the fault's effect.  The
    band and the instability threshold are :data:`DEFAULT_TOLERANCE_DEG`
    and :data:`DEFAULT_UNSTABLE_DEG`.
    """
    time = np.asarray(time, dtype=float)
    err = np.abs(np.asarray(phase_deg, dtype=float) - np.asarray(baseline_deg, dtype=float))
    if time.shape != err.shape:
        raise ValueError(
            f"time {time.shape} and phase {err.shape} shapes differ"
        )
    if err.size == 0:
        return StabilityReport(Outcome.FAILED, math.nan, math.nan, math.nan)
    if not np.all(np.isfinite(err)):
        finite = err[np.isfinite(err)]
        peak = float(finite.max()) if finite.size else math.inf
        return StabilityReport(Outcome.UNSTABLE, math.nan, peak, math.nan)
    peak = float(err.max())
    final = float(err[-1])
    if peak >= DEFAULT_UNSTABLE_DEG:
        return StabilityReport(Outcome.UNSTABLE, math.nan, peak, final)
    # Recovery clock starts when the disturbance stops being applied:
    # clearance for transients, onset for persistent faults (the loop
    # can still absorb a persistent bias, e.g. a stuck low bit).
    ref_time = (
        spec.onset_time + spec.duration if spec.duration is not None else spec.onset_time
    )
    out_of_band = err > DEFAULT_TOLERANCE_DEG
    if not out_of_band.any():
        return StabilityReport(Outcome.RECOVERED, 0.0, peak, final)
    last_oob = int(np.flatnonzero(out_of_band)[-1])
    if last_oob == err.size - 1:
        # Still outside the band at the end of the run.
        return StabilityReport(Outcome.DEGRADED, math.nan, peak, final)
    settle = max(0.0, float(time[last_oob + 1]) - ref_time)
    return StabilityReport(Outcome.RECOVERED, settle, peak, final)

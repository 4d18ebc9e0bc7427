"""Typed fault specifications — the injection point of fault campaigns.

A :class:`FaultSpec` is the *plain-data* description of one fault to
inject into a closed-loop run: which physical mechanism
(:class:`FaultKind`), how strong, when, for how long, and against which
target lane/channel.  Campaign runners sweep fault type × magnitude ×
onset time by building lists of specs and dispatching them through the
batched/sharded execution tiers — which is why the spec is deliberately
a frozen dataclass of scalars with a JSON round trip and **no handles**:
it must pickle cleanly to worker processes and pass the shard-safety
lint (:mod:`repro.analysis.shardlint`) that guards every module in this
package.

Validation happens at construction (:class:`repro.errors.FaultSpecError`)
so an inconsistent campaign fails before any shard is dispatched.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import FaultSpecError

__all__ = ["FaultKind", "FaultSpec", "MAGNITUDE_WINDOWS"]


class FaultKind(enum.Enum):
    """Fault mechanisms the campaign engine models (see ROADMAP.md).

    Station-level faults act on the RF/beam physics; hardware-level
    faults act on the signal chain and overlay substrate.
    """

    # RF-station faults.
    CAVITY_FAILURE = "cavity_failure"
    MICROPHONIC_DETUNING = "microphonic_detuning"
    AMPLIFIER_SATURATION = "amplifier_saturation"
    DETUNING_TRANSIENT = "detuning_transient"
    # Hardware/substrate faults.
    ADC_STUCK_BIT = "adc_stuck_bit"
    DAC_CLIPPING = "dac_clipping"
    DDS_PHASE_GLITCH = "dds_phase_glitch"
    CGRA_CONTEXT_CORRUPTION = "cgra_context_corruption"


#: Per-kind magnitude windows ``(low, high, integral)`` — inclusive
#: bounds, ``integral`` marks index-like magnitudes (bit/slot numbers).
MAGNITUDE_WINDOWS: dict[FaultKind, tuple[float, float, bool]] = {
    FaultKind.CAVITY_FAILURE: (0.0, 1.0, False),        # fraction of gradient lost
    FaultKind.MICROPHONIC_DETUNING: (0.0, math.inf, False),  # Hz RMS
    FaultKind.AMPLIFIER_SATURATION: (0.0, math.inf, False),  # clip level, V
    FaultKind.DETUNING_TRANSIENT: (-math.inf, math.inf, False),  # Hz step
    FaultKind.ADC_STUCK_BIT: (0.0, 13.0, True),         # bit index (14-bit ADC)
    FaultKind.DAC_CLIPPING: (0.0, 1.0, False),          # fraction of full scale
    FaultKind.DDS_PHASE_GLITCH: (-math.pi, math.pi, False),  # radians
    FaultKind.CGRA_CONTEXT_CORRUPTION: (0.0, math.inf, True),  # context slot
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: kind, magnitude, timing, target.

    Attributes
    ----------
    kind:
        The fault mechanism.
    magnitude:
        Strength in the kind's native unit; validated against
        :data:`MAGNITUDE_WINDOWS`.
    onset_time:
        Seconds into the run the fault switches on (≥ 0, finite).
    duration:
        Seconds the fault persists; ``None`` means until the end of the
        run (a hard failure rather than a transient).
    target:
        Lane/cavity/channel index the fault applies to (≥ 0).
    seed:
        Seed for stochastic fault realisations (microphonic spectra);
        ``None`` for deterministic kinds.
    label:
        Free-form campaign tag carried into reports.
    """

    kind: FaultKind
    magnitude: float
    onset_time: float
    duration: float | None = None
    target: int = 0
    seed: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise FaultSpecError(
                f"kind must be a FaultKind, got {type(self.kind).__name__}"
            )
        if not math.isfinite(self.magnitude):
            raise FaultSpecError(f"magnitude must be finite, got {self.magnitude!r}")
        low, high, integral = MAGNITUDE_WINDOWS[self.kind]
        if not low <= self.magnitude <= high:
            raise FaultSpecError(
                f"{self.kind.value} magnitude {self.magnitude!r} outside "
                f"[{low}, {high}]"
            )
        if integral and self.magnitude != int(self.magnitude):
            raise FaultSpecError(
                f"{self.kind.value} magnitude must be an integer index, "
                f"got {self.magnitude!r}"
            )
        if not (math.isfinite(self.onset_time) and self.onset_time >= 0.0):
            raise FaultSpecError(
                f"onset_time must be finite and >= 0, got {self.onset_time!r}"
            )
        if self.duration is not None and not (
            math.isfinite(self.duration) and self.duration > 0.0
        ):
            raise FaultSpecError(
                f"duration must be finite and > 0 (or None), got {self.duration!r}"
            )
        if not isinstance(self.target, int) or self.target < 0:
            raise FaultSpecError(f"target must be an int >= 0, got {self.target!r}")
        if self.seed is not None and (not isinstance(self.seed, int) or self.seed < 0):
            raise FaultSpecError(f"seed must be an int >= 0 or None, got {self.seed!r}")

    def is_transient(self) -> bool:
        """Whether the fault clears before the end of the run."""
        return self.duration is not None

    def active_at(self, t: float) -> bool:
        """Whether the fault is switched on at run time ``t`` (seconds)."""
        if t < self.onset_time:
            return False
        return self.duration is None or t < self.onset_time + self.duration

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "kind": self.kind.value,
            "magnitude": self.magnitude,
            "onset_time": self.onset_time,
            "duration": self.duration,
            "target": self.target,
            "seed": self.seed,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Inverse of :meth:`to_dict` (re-validates)."""
        known = {"kind", "magnitude", "onset_time", "duration", "target",
                 "seed", "label"}
        unknown = set(data) - known
        if unknown:
            raise FaultSpecError(f"unknown FaultSpec fields: {sorted(unknown)}")
        missing = {"kind", "magnitude", "onset_time"} - set(data)
        if missing:
            raise FaultSpecError(f"missing FaultSpec fields: {sorted(missing)}")
        try:
            kind = FaultKind(data["kind"])
        except ValueError as exc:
            raise FaultSpecError(f"invalid fault kind: {exc}") from exc
        duration = data.get("duration")
        seed = data.get("seed")
        return cls(
            kind=kind,
            magnitude=float(data["magnitude"]),
            onset_time=float(data["onset_time"]),
            duration=None if duration is None else float(duration),
            target=int(data.get("target", 0)),
            seed=None if seed is None else int(seed),
            label=str(data.get("label", "")),
        )


"""Hard real-time deadline accounting in the cycle domain.

The bench's real-time criterion (paper Section IV-B): "the calculation
must be completed within one period length of the reference sine wave,
which can be faster than one microsecond".  :class:`DeadlineMonitor`
checks that criterion for every revolution of a run and accumulates
slack statistics; a miss raises :class:`~repro.errors.RealTimeViolation`,
because a HIL bench that silently overruns its deadline produces wrong
physics, not just late answers.

Telemetry: the monitor keeps its per-revolution slack record in a typed
float buffer and writes nothing to the registry per revolution.  The
run owner calls :meth:`DeadlineMonitor.publish` once at the end of its
run, which feeds the revolutions checked since the previous publication
to the ``hil_slack_ticks`` histogram and their misses to
``hil_deadline_misses_total`` (no-ops while observability is disabled).
A miss publishes before it raises, so the miss is counted even though
the run never reaches its end.
:meth:`DeadlineMonitor.stats` reports exact p50/p99 slack percentiles
from the full per-iteration record.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, RealTimeViolation
from repro.obs import get_registry

__all__ = ["JitterStats", "DeadlineMonitor"]

_SLACK_HIST = get_registry().histogram(
    "hil_slack_ticks", "per-iteration deadline slack in CGRA ticks"
)
_MISSES = get_registry().counter(
    "hil_deadline_misses_total", "iterations whose slack went negative"
)


@dataclass(frozen=True)
class JitterStats:
    """Slack statistics over a run (in CGRA ticks).

    ``p50_slack``/``p99_slack`` are exact percentiles over the full
    per-iteration slack record (not bucket estimates).
    """

    n_iterations: int
    min_slack: float
    mean_slack: float
    misses: int
    p50_slack: float = 0.0
    p99_slack: float = 0.0

    @property
    def met(self) -> bool:
        """True when every iteration met its deadline.

        An empty record (``n_iterations == 0``) reports *not* met: no
        evidence is not a pass.
        """
        return self.n_iterations > 0 and self.misses == 0

    @classmethod
    def empty(cls) -> "JitterStats":
        """Well-defined stats for a run that checked no revolutions."""
        return cls(
            n_iterations=0,
            min_slack=0.0,
            mean_slack=0.0,
            misses=0,
            p50_slack=0.0,
            p99_slack=0.0,
        )


class DeadlineMonitor:
    """Per-iteration deadline bookkeeping.

    Parameters
    ----------
    schedule_length_ticks:
        Ticks one iteration occupies (from the CGRA schedule).
    cgra_clock_hz:
        Overlay clock.

    The first miss raises :class:`~repro.errors.RealTimeViolation`.  The
    highest revolution frequency a schedule serves is derived statically
    (:func:`repro.cgra.timing.max_revolution_frequency`), so no run
    probes beyond the limit on purpose.
    """

    def __init__(
        self,
        schedule_length_ticks: int,
        cgra_clock_hz: float = 111e6,
    ) -> None:
        if schedule_length_ticks <= 0:
            raise ConfigurationError("schedule_length_ticks must be positive")
        if cgra_clock_hz <= 0:
            raise ConfigurationError("cgra_clock_hz must be positive")
        self.schedule_length_ticks = int(schedule_length_ticks)
        self.cgra_clock_hz = float(cgra_clock_hz)
        self._slacks = array("d")
        self._misses = 0
        # What publish() has already handed to the registry.
        self._published = 0
        self._published_misses = 0

    def check_revolution(self, revolution_period_s: float) -> float:
        """Account one revolution; returns the slack in ticks."""
        if revolution_period_s <= 0:
            raise ConfigurationError("revolution period must be positive")
        budget = revolution_period_s * self.cgra_clock_hz
        slack = budget - self.schedule_length_ticks
        self._slacks.append(slack)
        if slack < 0:
            self._misses += 1
            self.publish()
            raise RealTimeViolation(
                f"iteration needs {self.schedule_length_ticks} ticks but the "
                f"revolution budget is {budget:.1f} ticks "
                f"(f_rev={1.0 / revolution_period_s:.3e} Hz)"
            )
        return slack

    def publish(self) -> None:
        """Feed the revolutions checked since the last call to
        ``hil_slack_ticks`` and their misses to ``hil_deadline_misses_total``.

        Publishing again without new revolutions adds nothing.  The
        histogram reads the record in place; its view dies with the
        call, so the buffer can keep growing afterwards.
        """
        n = len(self._slacks)
        if n > self._published:
            _SLACK_HIST.observe_many(np.frombuffer(self._slacks)[self._published:])
            self._published = n
        if self._misses > self._published_misses:
            _MISSES.inc(self._misses - self._published_misses)
            self._published_misses = self._misses

    @property
    def n_checked(self) -> int:
        """Revolutions accounted so far."""
        return len(self._slacks)

    def slacks(self) -> np.ndarray:
        """The full per-iteration slack record (ticks), oldest first (a copy)."""
        return np.array(self._slacks, dtype=float)

    def stats(self, allow_empty: bool = False) -> JitterStats:
        """Summary over all checked revolutions.

        With no revolutions checked this raises, unless ``allow_empty``
        asks for the well-defined :meth:`JitterStats.empty` instead —
        no division by zero, no nan percentiles, ``met`` is False.
        """
        if not self._slacks:
            if allow_empty:
                return JitterStats.empty()
            raise ConfigurationError("no revolutions checked yet")
        arr = np.frombuffer(self._slacks)
        return JitterStats(
            n_iterations=arr.size,
            min_slack=float(arr.min()),
            mean_slack=float(arr.mean()),
            misses=self._misses,
            p50_slack=float(np.percentile(arr, 50)),
            p99_slack=float(np.percentile(arr, 99)),
        )

"""Zero-crossing and period-length detectors (paper Section III-B).

"One ADC channel provides the reference voltage input, which is also
connected to a zero crossing detector.  This module both measures the
frequency and time of the last positive zero crossing of the sinusoidal
input voltage.  A period length detector determines the frequency of the
reference signal.  The measured frequency is averaged over the past four
periods to reduce jitter."

Both detectors are streaming: they consume ADC sample blocks and maintain
state across blocks, so the HIL framework can feed them one reference
period at a time.  Crossing times are resolved to sub-sample precision by
linear interpolation between the two straddling samples — the same
resolution the hardware edge detector achieves with its sample-domain
counter plus the model's interpolating fetch.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import SignalError

__all__ = ["ZeroCrossingDetector", "PeriodLengthDetector"]


class ZeroCrossingDetector:
    """Detects positive-going zero crossings of a streamed signal.

    Crossings are reported as fractional *global sample indices* (index of
    the last sample below zero plus the interpolated fraction).  Dividing
    by the sample rate yields the crossing time.
    """

    def __init__(self) -> None:
        self._last_sample: float | None = None
        self._consumed = 0
        #: Fractional global index of the most recent positive crossing.
        self.last_crossing: float | None = None

    def feed(self, samples) -> np.ndarray:
        """Consume a block; return fractional indices of new crossings.

        A crossing is a sample below zero followed by one at or above
        zero, including across block boundaries.
        """
        s = np.asarray(samples, dtype=float).ravel()
        if s.size == 0:
            return np.empty(0)
        prev = self._last_sample
        full = s if prev is None else np.concatenate(([prev], s))
        # offset of full[i] in global indices:
        base = self._consumed - (0 if prev is None else 1)
        below = full[:-1]
        above = full[1:]
        fired = np.nonzero((below < 0.0) & (above >= 0.0))[0]
        if fired.size:
            a = full[fired]
            b = full[fired + 1]
            d = b - a
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = np.where(d != 0.0, -a / d, 0.0)
            crossings = (base + fired) + frac
        else:
            crossings = np.empty(0)
        self._last_sample = float(s[-1])
        self._consumed += s.size
        if crossings.size:
            self.last_crossing = float(crossings[-1])
        return crossings

    @property
    def samples_consumed(self) -> int:
        """Total number of samples fed so far."""
        return self._consumed


class PeriodLengthDetector:
    """Measures the reference period, averaged over the last four periods.

    Wraps a :class:`ZeroCrossingDetector`; period lengths are the
    differences of consecutive positive-crossing indices.  As in the
    hardware, the detector reports the average of the **last four**
    periods ("the sensor applies a simple average filter by accumulating
    the last four period lengths measured") and is not ``ready`` until
    four full periods have been observed — the model program "waits for a
    valid measurement of four full sine waves" before initialising.
    """

    def __init__(self, sample_rate: float, average_over: int = 4) -> None:
        if sample_rate <= 0.0:
            raise SignalError("sample_rate must be positive")
        if average_over < 1:
            raise SignalError("average_over must be >= 1")
        self.sample_rate = float(sample_rate)
        self.average_over = int(average_over)
        self._zcd = ZeroCrossingDetector()
        self._periods: deque[float] = deque(maxlen=self.average_over)
        self._last_crossing: float | None = None

    def feed(self, samples) -> None:
        """Consume a block of reference-signal samples."""
        for crossing in self._zcd.feed(samples):
            if self._last_crossing is not None:
                period = crossing - self._last_crossing
                if period > 0.0:
                    self._periods.append(period)
            self._last_crossing = crossing

    @property
    def ready(self) -> bool:
        """True once four (``average_over``) periods have been measured."""
        return len(self._periods) == self.average_over

    @property
    def last_crossing_index(self) -> float:
        """Fractional global index of the latest positive zero crossing."""
        if self._last_crossing is None:
            raise SignalError("no zero crossing observed yet")
        return self._last_crossing

    @property
    def last_crossing_time(self) -> float:
        """Time of the latest positive zero crossing, in seconds."""
        return self.last_crossing_index / self.sample_rate

    def period_samples(self) -> float:
        """Averaged period length in samples (the sensor's native unit)."""
        if not self.ready:
            raise SignalError(
                f"period detector not ready: {len(self._periods)}/{self.average_over} periods"
            )
        return float(sum(self._periods) / len(self._periods))

    def period_seconds(self) -> float:
        """Averaged period length in seconds."""
        return self.period_samples() / self.sample_rate

    def frequency(self) -> float:
        """Averaged signal frequency in Hz."""
        return 1.0 / self.period_seconds()

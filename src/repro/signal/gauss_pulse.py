"""Gaussian beam-pulse generator (paper Section III-B).

The simulator's beam output "consist[s] of Gaussian distributed pulses":
"Using the previous positive zero crossing and the current frequency, the
correct time to trigger the next output Gauss pulse is stored in the
Gauss pulse generator module.  When the timer module triggers, a single,
precalculated, Gaussian distributed pulse is played back from sample
memory through the DAC output."

:class:`GaussPulseGenerator` holds pending trigger times and renders the
output sample stream block by block.  Trigger times are continuous
(seconds); the renderer aligns the pulse to the *exact* trigger time by
evaluating the Gaussian at the sample grid offsets, reproducing the
hardware's timer resolution of one DAC clock with the precalculated
pulse's shape (truncated at ±``n_sigmas``, as the sample memory is).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import SignalError
from repro.signal.waveform import Waveform

__all__ = ["GaussPulseGenerator"]


class GaussPulseGenerator:
    """Plays back precalculated Gaussian pulses at scheduled times.

    Parameters
    ----------
    sigma:
        Pulse standard deviation in seconds.
    sample_rate:
        DAC sample rate in Hz.
    amplitude:
        Peak amplitude in volts.
    n_sigmas:
        Rendered half-width in sigmas.
    """

    def __init__(
        self,
        sigma: float,
        sample_rate: float = 250e6,
        amplitude: float = 1.0,
        n_sigmas: float = 4.0,
    ) -> None:
        if sigma <= 0.0:
            raise SignalError("sigma must be positive")
        if sample_rate <= 0.0:
            raise SignalError("sample_rate must be positive")
        self.sigma = float(sigma)
        self.sample_rate = float(sample_rate)
        self.amplitude = float(amplitude)
        self.n_sigmas = float(n_sigmas)
        self._pending: list[float] = []
        self._rendered_until = 0.0

    def schedule(self, trigger_time: float) -> None:
        """Store the time at which the next pulse centre must appear.

        Triggers must be scheduled ahead of the render cursor; scheduling
        into already-rendered output raises, as the hardware timer cannot
        fire in the past either.
        """
        if trigger_time + self.n_sigmas * self.sigma < self._rendered_until:
            raise SignalError(
                f"trigger at {trigger_time} s lies entirely before the render "
                f"cursor {self._rendered_until} s"
            )
        heapq.heappush(self._pending, float(trigger_time))

    def render(self, t0: float, n_samples: int) -> Waveform:
        """Render the output block [t0, t0 + n/fs).

        Blocks must be requested in order (a streaming DAC).  Pulses
        overlapping the block are summed in; triggers entirely in the past
        of the block are discarded once rendered.
        """
        if n_samples < 0:
            raise SignalError("n_samples must be non-negative")
        if t0 < self._rendered_until - 0.5 / self.sample_rate:
            raise SignalError(
                f"blocks must be rendered in order: t0={t0} < cursor={self._rendered_until}"
            )
        out = np.zeros(n_samples, dtype=float)
        t_end = t0 + n_samples / self.sample_rate
        half = self.n_sigmas * self.sigma
        keep: list[float] = []
        for trig in self._pending:
            if trig + half < t0:
                continue  # fully in the past: drop
            if trig - half < t_end:
                # Overlaps this block: add its samples.
                i0 = max(0, int(math.floor((trig - half - t0) * self.sample_rate)))
                i1 = min(n_samples, int(math.ceil((trig + half - t0) * self.sample_rate)) + 1)
                if i1 > i0:
                    t = t0 + np.arange(i0, i1) / self.sample_rate
                    pulse = self.amplitude * np.exp(
                        -0.5 * ((t - trig) / self.sigma) ** 2
                    )
                    # Hard-truncate at ±n_sigmas like the precalculated
                    # sample memory, so block-boundary rounding cannot
                    # include samples a whole-window render would not.
                    pulse[np.abs(t - trig) > half] = 0.0
                    out[i0:i1] += pulse
            if trig + half >= t_end:
                keep.append(trig)  # still needed by future blocks
        self._pending = keep
        heapq.heapify(self._pending)
        self._rendered_until = t_end
        return Waveform(out, self.sample_rate, t0)

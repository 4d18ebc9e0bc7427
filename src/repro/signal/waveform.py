"""Uniformly sampled waveform container.

A thin, explicit wrapper around a NumPy array plus its sample rate and
start time.  Used at the module boundaries of the signal chain so that
units and time axes cannot silently drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SignalError

__all__ = ["Waveform"]


@dataclass
class Waveform:
    """A uniformly sampled real-valued signal.

    Attributes
    ----------
    samples:
        1-D float array of sample values (volts unless documented
        otherwise by the producer).
    sample_rate:
        Samples per second.
    t0:
        Time of ``samples[0]`` in seconds.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise SignalError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0.0:
            raise SignalError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Span covered by the samples, in seconds."""
        return self.samples.size / self.sample_rate

    @property
    def dt(self) -> float:
        """Sample period in seconds."""
        return 1.0 / self.sample_rate

    def time_axis(self) -> np.ndarray:
        """Time of each sample, in seconds."""
        return self.t0 + np.arange(self.samples.size) / self.sample_rate

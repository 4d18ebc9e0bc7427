"""Timing/jitter models: CGRA determinism vs. software jitter.

The paper rejected a pure-software simulator because "the time jitter
induced by the microarchitecture and the interfacing to the sensors was
too high", and chose a CGRA because "its input/output timing can be
controlled very precisely".  E7 quantifies that comparison:

* :class:`CgraTimingModel` — the output-write tick is a constant of the
  static schedule; the only timing granularity is the DAC sample clock.
* :class:`SoftwareTimingModel` — per-iteration latency of a compiled
  software loop on a CPU: a Gaussian core (pipeline/cache noise) plus a
  heavy lognormal tail (TLB misses, interrupts, SMIs, timer ticks), the
  standard empirical shape of OS-level latency distributions.

Both models emit the *latency from revolution start to output write*,
in seconds, so their distributions are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["TimingSample", "CgraTimingModel", "SoftwareTimingModel"]


@dataclass(frozen=True)
class TimingSample:
    """Summary statistics of a latency distribution (seconds)."""

    mean: float
    std: float
    p50: float
    p99: float
    p999: float
    worst: float

    @classmethod
    def from_latencies(cls, latencies: np.ndarray) -> "TimingSample":
        """Compute the summary from raw latency samples."""
        lat = np.asarray(latencies, dtype=float)
        if lat.size == 0:
            raise ConfigurationError("need at least one latency sample")
        return cls(
            mean=float(lat.mean()),
            std=float(lat.std()),
            p50=float(np.percentile(lat, 50)),
            p99=float(np.percentile(lat, 99)),
            p999=float(np.percentile(lat, 99.9)),
            worst=float(lat.max()),
        )


class CgraTimingModel:
    """Deterministic CGRA output timing.

    The actuator write issues at a fixed tick of the static schedule;
    converting to seconds adds only the (deterministic) CGRA clock and
    the DAC sample quantisation.  Jitter is therefore exactly zero at
    tick granularity.
    """

    def __init__(self, write_tick: int, cgra_clock_hz: float = 111e6, dac_rate_hz: float = 250e6) -> None:
        if write_tick < 0:
            raise ConfigurationError("write_tick must be non-negative")
        if cgra_clock_hz <= 0 or dac_rate_hz <= 0:
            raise ConfigurationError("clock rates must be positive")
        self.write_tick = int(write_tick)
        self.cgra_clock_hz = float(cgra_clock_hz)
        self.dac_rate_hz = float(dac_rate_hz)

    def latency_seconds(self) -> float:
        """Deterministic latency from iteration start to the output write."""
        return self.write_tick / self.cgra_clock_hz

    def sample(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """n latency samples — all identical (the point of the design)."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        return np.full(n, self.latency_seconds())

    def output_time_quantisation(self) -> float:
        """Granularity of the analogue output timing: one DAC sample."""
        return 1.0 / self.dac_rate_hz


class SoftwareTimingModel:
    """Empirical per-iteration latency model of a software implementation.

    Parameters
    ----------
    base_latency:
        Median loop latency in seconds (the pure compute time).
    gaussian_jitter:
        RMS of the fast microarchitectural noise.
    tail_probability:
        Per-iteration probability of a slow event (interrupt, timer
        tick, SMI, page walk burst).
    tail_scale:
        Median extra latency of a slow event (lognormal).
    tail_sigma:
        Lognormal shape of the tail (≥ ~1 gives the familiar heavy tail).
    """

    def __init__(
        self,
        base_latency: float = 400e-9,
        gaussian_jitter: float = 25e-9,
        tail_probability: float = 2e-4,
        tail_scale: float = 5e-6,
        tail_sigma: float = 1.0,
    ) -> None:
        if base_latency <= 0:
            raise ConfigurationError("base_latency must be positive")
        if gaussian_jitter < 0 or tail_scale < 0 or tail_sigma < 0:
            raise ConfigurationError("jitter parameters must be non-negative")
        if not 0.0 <= tail_probability <= 1.0:
            raise ConfigurationError("tail_probability must be in [0, 1]")
        self.base_latency = float(base_latency)
        self.gaussian_jitter = float(gaussian_jitter)
        self.tail_probability = float(tail_probability)
        self.tail_scale = float(tail_scale)
        self.tail_sigma = float(tail_sigma)

    def sample(self, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """Draw ``n`` per-iteration latencies (seconds, vectorised)."""
        if n < 0:
            raise ConfigurationError("n must be non-negative")
        rng = rng if rng is not None else np.random.default_rng()
        lat = self.base_latency + rng.normal(0.0, self.gaussian_jitter, n)
        lat = np.maximum(lat, 0.25 * self.base_latency)
        slow = rng.random(n) < self.tail_probability
        n_slow = int(slow.sum())
        if n_slow:
            lat[slow] += self.tail_scale * rng.lognormal(0.0, self.tail_sigma, n_slow)
        return lat

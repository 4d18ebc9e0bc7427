"""Dual-port sample-capture ring buffer (paper Section III-B).

Each input signal of the FPGA framework is captured into a ring buffer
that "needs to hold at least two full cycles of the reference voltage to
accommodate for positive and negative Δt values"; at revolution
frequencies down to 100 kHz that is up to 2 × 2500 samples, so the
hardware uses a capacity of **2¹³ = 8192** samples.  "A second port on
each buffer allows the simulator to access a sample value in each cycle
without interrupting the capturing process."

:class:`RingBuffer` reproduces that component: a write port streaming ADC
samples at 250 MHz, and a read port addressed *absolutely* (by global
sample index), with wrap-around and overwrite checking — reads of samples
that have already been overwritten raise, because on the hardware they
would silently return wrong data; the model makes that bug loud.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.signal.interpolation import linear_fetch_pair

__all__ = ["RingBuffer"]


class RingBuffer:
    """Power-of-two-sized capture buffer with absolute addressing.

    Parameters
    ----------
    capacity:
        Buffer depth in samples; must be a power of two (8192 in the
        paper's design, so address wrapping is a bit-mask).
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 2 or (capacity & (capacity - 1)) != 0:
            raise SignalError(f"capacity must be a power of two >= 2, got {capacity}")
        self.capacity = int(capacity)
        self._mask = self.capacity - 1
        self._data = np.zeros(self.capacity, dtype=float)
        #: Total number of samples ever written (head pointer).
        self.write_count = 0

    def write(self, samples) -> None:
        """Append a block of samples (the ADC stream).

        Vectorised: blocks longer than the capacity keep only their tail,
        exactly as continuous overwriting would.
        """
        s = np.asarray(samples, dtype=float).ravel()
        n = s.size
        if n == 0:
            return
        if n >= self.capacity:
            # Only the last `capacity` samples survive; physical slot of
            # global index g is g & mask.
            g0 = self.write_count + n - self.capacity
            idx = (np.arange(g0, g0 + self.capacity)) & self._mask
            self._data[idx] = s[n - self.capacity :]
            self.write_count += n
            return
        start = self.write_count & self._mask
        end = start + n
        if end <= self.capacity:
            self._data[start:end] = s
        else:
            split = self.capacity - start
            self._data[start:] = s[:split]
            self._data[: end - start - split] = s[split:]
        self.write_count += n

    def _check_window(self, oldest: int, newest: int) -> None:
        if newest >= self.write_count:
            raise SignalError(
                f"read of sample {newest} ahead of write pointer {self.write_count}"
            )
        if oldest < self.write_count - self.capacity:
            raise SignalError(
                f"read of sample {oldest} already overwritten "
                f"(window is [{self.write_count - self.capacity}, {self.write_count}))"
            )
        if oldest < 0:
            raise SignalError(f"negative sample index {oldest}")

    def read(self, index: int) -> float:
        """Read the sample with *global* index ``index`` (second port)."""
        self._check_window(index, index)
        return float(self._data[index & self._mask])

    def fetch_interpolated(self, address: float) -> float:
        """Linearly interpolated fetch at a fractional global address.

        Reproduces the model program's two-sample fetch: "a second value
        is requested from the buffer to perform linear interpolation to
        increase the accuracy" (paper Section IV-B).
        """
        base = int(np.floor(address))
        self._check_window(base, base + 1)
        a = self._data[base & self._mask]
        b = self._data[(base + 1) & self._mask]
        return linear_fetch_pair(a, b, address - base)

    @property
    def occupancy(self) -> int:
        """Valid samples currently held (saturates at capacity)."""
        return min(self.write_count, self.capacity)

    @property
    def fill_fraction(self) -> float:
        """Occupancy as a fraction of capacity, in [0, 1]."""
        return self.occupancy / self.capacity

"""Two-sample linear interpolation.

The CGRA model program fetches two adjacent ring-buffer samples and
interpolates linearly "to increase the accuracy" because the requested
arrival time "is rarely ever an integer multiple of the period length of
the sampling frequency" (paper Section IV-B).  :func:`linear_fetch_pair`
implements exactly that arithmetic for the ring buffer's interpolating
fetch (:meth:`repro.signal.ringbuffer.RingBuffer.fetch_interpolated`).
"""

from __future__ import annotations

from repro.errors import SignalError

__all__ = ["linear_fetch_pair"]


def linear_fetch_pair(a: float, b: float, frac: float) -> float:
    """Interpolate between two adjacent samples: a·(1−frac) + b·frac.

    ``frac`` must lie in [0, 1); the callers guarantee this by splitting a
    fractional address into integer base and remainder.
    """
    if not 0.0 <= frac < 1.0 + 1e-12:
        raise SignalError(f"interpolation fraction {frac} outside [0, 1)")
    return float(a * (1.0 - frac) + b * frac)

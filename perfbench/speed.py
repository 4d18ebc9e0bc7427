"""Host-speed correction of measured times, sampled during the run itself.

On a shared host a core's speed is not constant: another tenant's load
slows it down by up to 2x, for stretches from a fraction of a second to
minutes, and each core independently.  A time taken before or after a
run says little about the run, so the speed is sampled while the run
happens, in the process doing the work: an interval timer raises SIGALRM
every :data:`INTERVAL_S`, and the handler times one fixed slice of work
like the workload's per-turn work: a Python loop of NumPy ufunc and libm
calls on an array as wide as the workload's (see :data:`SLICES`).  The
width matters: when a core is shared, interpreter-bound calls on a few
lanes slow down about 2x, arithmetic on thousands of particles about
1.4x.  A slice that takes longer than its reference time ran on a slowed
core.

Work done in a stretch of wall time is its duration times the mean speed
over it, so :func:`correction` turns a wall time into seconds on a host
where the slice takes its reference time: the mean relative speed over
the samples, less the share of time the slices themselves took.  The
handler only touches its own array; it changes nothing the program
computes.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

#: Slice kinds: array width -> (loop iterations, the slice's seconds on
#: an unloaded core of the host the benchmark was defined on, an Intel
#: Xeon with 2 cores).  Corrected times read as seconds on that host.
SLICES = {8: (300, 240e-6), 5000: (80, 120e-6)}
#: Wall seconds between slices.
INTERVAL_S = 0.02

#: Seconds spent in slices by this process so far; the layer wrappers'
#: clock leaves them out.
sliced_s = 0.0


class SpeedSampler:
    """Times one slice of width ``lanes`` every :data:`INTERVAL_S` while
    started."""

    def __init__(self, lanes: int = 8) -> None:
        self.iterations, self.reference_s = SLICES[lanes]
        # 64-byte aligned: NumPy's SIMD loops run some 20% slower on a
        # misaligned array, and the heap hands out either, process by process.
        buf = np.zeros(lanes + 8)
        start = (-buf.ctypes.data % 64) // 8
        self.array = buf[start:start + lanes]
        #: (monotonic time, slice seconds, relative speed) of every slice
        #: since the last take.
        self.samples: list[tuple[float, float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        global sliced_s
        t = time.monotonic()
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(self.iterations):
            np.multiply(self.array, 1.0001, out=self.array)
            acc += math.sin(i * 1e-3)
        dt = time.perf_counter() - t0
        sliced_s += dt
        self.samples.append((t, dt, self.reference_s / dt))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self, since: float = -math.inf, until: float = math.inf) -> list:
        """The samples taken between ``since`` and ``until`` (monotonic
        seconds); forgets every sample taken so far."""
        samples, self.samples = self.samples, []
        return [s for s in samples if since <= s[0] <= until]


def correction(samples: list) -> float:
    """Factor from wall seconds to reference seconds over the stretch one
    process's samples cover."""
    if not samples:
        raise ValueError("no speed samples: the stretch is shorter than the interval")
    speed = statistics.fmean(s[2] for s in samples)
    slice_share = statistics.fmean(s[1] for s in samples) / INTERVAL_S
    return speed * (1.0 - slice_share)

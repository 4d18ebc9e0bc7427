"""Global observability switch.

One module-level flag object, checked by every instrument before doing
any work.  The disabled path is a single attribute load and branch, so
instrumented hot loops (the cycle-accurate executors, the per-revolution
HIL step) stay honest when telemetry is off — the overhead benchmark
(``benchmarks/test_obs_overhead.py``) pins that cost.

``enabled`` gates metrics; ``trace`` additionally gates span/event
recording.  Tracing implies metrics: :func:`repro.obs.enable` enforces
that ordering.
"""

from __future__ import annotations

__all__ = ["ObsState", "STATE"]


class ObsState:
    """Mutable global switches (attribute access is the fast path)."""

    __slots__ = ("enabled", "trace")

    def __init__(self) -> None:
        self.enabled = False
        self.trace = False


#: The process-wide switch every instrument checks.
STATE = ObsState()

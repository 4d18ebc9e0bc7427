"""Deterministic phase/op profiler.

Where the tracer answers "*when* did what happen", the profiler answers
"*where does the time go*": it accumulates named **phases** (count,
total/min/max seconds) into a flat per-process table with no per-sample
records, so its memory cost is O(distinct names) however long the run.

Built-in hooks (all behind the ``STATE.profile`` flag, one branch when
off — same budget as the rest of :mod:`repro.obs`):

* **compiled CGRA engine** — :func:`record_program` files one entry per
  kernel run (``engine.<engine>.<kernel>``) plus per-op-class entries
  (``op.<engine>.<OP>``) whose time share is attributed proportionally
  to the static op-class counts of the compiled program.  The
  attribution is *deterministic*: counts come from the schedule, not
  from sampling, so two runs of the same program produce identical
  shares.
* **HIL closed-loop phases** — ``hil.sense`` / ``hil.compute`` /
  ``hil.actuate`` per revolution (fast path and the sample-accurate
  bench), ``hil.model_iteration`` in the FPGA framework.
* **shard workers** — ``parallel.shard`` per work item; worker tables
  travel home inside :class:`~repro.obs.snapshot.ObsSnapshot` and merge
  by addition, so a ``--jobs N`` run aggregates into one table.

Entries are plain adds; merging across processes is count/total/min/max
composition, so the merged table equals the serial run's (order never
matters — unlike gauges there is no last-write state).
"""

from __future__ import annotations

import time

from repro.obs._state import STATE

__all__ = [
    "ProfileEntry",
    "Profiler",
    "get_profiler",
    "record_program",
]


class ProfileEntry:
    """Accumulated cost of one named phase."""

    __slots__ = ("count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = float("-inf")

    def add(self, seconds: float, count: int = 1) -> None:
        self.count += count
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }


class _NullPhase:
    """Shared do-nothing phase for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_PHASE = _NullPhase()


class _Phase:
    """Live phase timer; adds itself to the profiler on exit."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = time.perf_counter()

    def __enter__(self) -> "_Phase":
        return self

    def __exit__(self, *exc) -> None:
        self._profiler._add(self._name, time.perf_counter() - self._start)


class Profiler:
    """Flat name → :class:`ProfileEntry` accumulator."""

    def __init__(self) -> None:
        self._entries: dict[str, ProfileEntry] = {}

    # -- recording (gated) --------------------------------------------

    def phase(self, name: str):
        """Time a block: ``with profiler.phase("hil.sense"): ...``."""
        if not STATE.profile:
            return _NULL_PHASE
        return _Phase(self, name)

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        """Accumulate ``seconds`` (over ``count`` occurrences) into a phase."""
        if not STATE.profile:
            return
        self._add(name, seconds, count)

    # -- unconditional internals (also used by snapshot merge) --------

    def _add(self, name: str, seconds: float, count: int = 1) -> None:
        entry = self._entries.get(name)
        if entry is None:
            entry = self._entries[name] = ProfileEntry()
        entry.add(seconds, count)

    # -- reading ------------------------------------------------------

    def entries(self) -> dict[str, ProfileEntry]:
        """Name → entry, sorted by name (stable across runs)."""
        return {name: self._entries[name] for name in sorted(self._entries)}

    def hot_list(self, top: int = 10) -> list[tuple[str, ProfileEntry]]:
        """The ``top`` costliest phases, by total seconds (ties by name,
        so the ordering is deterministic)."""
        ranked = sorted(
            self._entries.items(), key=lambda item: (-item[1].total_s, item[0])
        )
        return ranked[: max(0, int(top))]

    def __len__(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        self._entries.clear()

    # -- snapshot transfer --------------------------------------------

    def state(self) -> dict:
        """Plain-data view for snapshot transfer / export."""
        return {name: entry.to_dict() for name, entry in self.entries().items()}

    def merge_state(self, state: dict) -> None:
        """Fold another process's table into this one (counts/totals add,
        min/max compose).  State transfer, not measurement: bypasses the
        profile flag, like the metric ``merge_state`` methods."""
        for name, payload in state.items():
            entry = self._entries.get(name)
            if entry is None:
                entry = self._entries[name] = ProfileEntry()
            entry.count += int(payload["count"])
            entry.total_s += float(payload["total_s"])
            entry.min_s = min(entry.min_s, float(payload["min_s"]))
            entry.max_s = max(entry.max_s, float(payload["max_s"]))


def record_program(
    kernel: str,
    engine: str,
    iterations: int,
    elapsed_s: float,
    op_class_counts: dict,
    lanes: int = 1,
) -> None:
    """File one compiled-program run into the global profiler.

    Adds ``engine.<engine>.<kernel>`` (count = iterations × lanes, total
    = measured elapsed) and one ``op.<engine>.<OP>`` entry per op class
    with the elapsed time attributed proportionally to the program's
    static op-class counts — a deterministic decomposition (the schedule
    fixes the counts), not a sampled one.
    """
    if not STATE.profile or iterations <= 0:
        return
    profiler = get_profiler()
    profiler._add(f"engine.{engine}.{kernel}", elapsed_s, iterations * lanes)
    total_ops = sum(op_class_counts.values())
    if total_ops > 0:
        for op_name in sorted(op_class_counts):
            n = op_class_counts[op_name]
            share = elapsed_s * (n / total_ops)
            profiler._add(f"op.{engine}.{op_name}", share, n * iterations * lanes)


#: The process-wide profiler used by all built-in instrumentation.
_PROFILER = Profiler()


def get_profiler() -> Profiler:
    """The global profiler (instrumented modules record here)."""
    return _PROFILER

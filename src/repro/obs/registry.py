"""Metric instruments and the process-wide registry.

Three instrument kinds, modelled on the Prometheus data model but kept
dependency-free and laptop-scale:

* :class:`Counter` — monotonically increasing totals (executed ops,
  ADC clips, deadline misses);
* :class:`Gauge` — last-written values (revolution period, ticks per
  iteration, ring-buffer occupancy);
* :class:`Histogram` — bucketed distributions with exact count/sum/
  min/max and interpolated percentiles (per-iteration slack).

Every instrument supports **labels** passed as keyword arguments to the
write methods; each distinct label set keeps its own series.  All write
methods are no-ops while observability is disabled
(:data:`repro.obs._state.STATE`), so a module can create its instruments
at import time and call them unconditionally.

Instruments are get-or-create: asking the registry for an existing name
returns the same object (and raises on a kind mismatch), which lets
independent modules share a metric.  :meth:`MetricsRegistry.reset`
clears recorded *values* but keeps the instrument objects, so references
captured at import time stay live across runs.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs._state import STATE

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_BUCKETS",
]

#: Key of the unlabelled series.
_NO_LABELS: tuple = ()

#: Default histogram bucket upper bounds: two-decades-per-side symmetric
#: log spread around zero plus ±inf rails, wide enough for slack-in-ticks
#: (1e-1 … 1e6) without configuration.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    [-(10.0**e) for e in range(6, -2, -1)]
    + [0.0]
    + [10.0**e for e in range(-1, 7)]
    + [math.inf]
)


#: Values :meth:`Histogram.observe_many` bins per pass (bounds its
#: temporaries to a few tens of KiB whatever the input length).
_OBSERVE_CHUNK = 4096


def _label_key(labels: dict) -> tuple:
    if not labels:
        return _NO_LABELS
    return tuple(sorted(labels.items()))


def _key_to_dict(key: tuple) -> dict:
    return dict(key)


class _Instrument:
    """Common name/description/label bookkeeping."""

    kind = "instrument"

    def __init__(self, name: str, description: str = "") -> None:
        if not name or not name.replace("_", "a").isidentifier():
            raise ConfigurationError(f"invalid metric name {name!r}")
        self.name = name
        self.description = description

    def reset(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonic counter; ``inc`` with a negative amount raises."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not STATE.enabled:
            return
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (amount={amount})"
            )
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current total of one label set (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label sets."""
        return sum(self._values.values())

    def reset(self) -> None:
        self._values.clear()

    def series(self) -> dict:
        return {key: value for key, value in self._values.items()}

    def state(self) -> dict:
        """Raw per-label-set totals, for snapshot transfer."""
        return dict(self._values)

    def merge_state(self, state: dict) -> None:
        """Add another process's totals into this counter.

        State transfer, not measurement: merging bypasses the enabled
        flag so a parent can aggregate worker snapshots even after
        telemetry was switched off.
        """
        for key, value in state.items():
            self._values[key] = self._values.get(key, 0.0) + float(value)


class Gauge(_Instrument):
    """Last-value instrument with ``set``/``inc``/``dec``."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        if not STATE.enabled:
            return
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not STATE.enabled:
            return
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        """Current value of one label set (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def reset(self) -> None:
        self._values.clear()

    def series(self) -> dict:
        return {key: value for key, value in self._values.items()}

    def state(self) -> dict:
        """Raw per-label-set values, for snapshot transfer."""
        return dict(self._values)

    def merge_state(self, state: dict) -> None:
        """Adopt another process's values (last merge wins per series).

        Gauges are last-write instruments, so merging in shard order
        reproduces the value a serial run would have ended with.
        """
        for key, value in state.items():
            self._values[key] = float(value)


class _HistogramSeries:
    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf


class Histogram(_Instrument):
    """Bucketed distribution with exact moments and percentile estimates.

    Parameters
    ----------
    buckets:
        Strictly increasing upper bounds; the last must be ``+inf``
        (appended automatically if missing).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, description)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if bounds and bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        if len(bounds) < 2 or any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram buckets must be strictly increasing")
        self.buckets = bounds
        self._series: dict[tuple, _HistogramSeries] = {}

    def _get(self, labels: dict) -> _HistogramSeries:
        key = _label_key(labels)
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _HistogramSeries(len(self.buckets))
        return s

    def _bucket_index(self, value: float) -> int:
        # Linear scan is fine: bucket lists are short and observe() sits
        # behind the enabled check.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets) - 1  # pragma: no cover - inf catches all

    def observe(self, value: float, **labels) -> None:
        if not STATE.enabled:
            return
        value = float(value)
        s = self._get(labels)
        s.counts[self._bucket_index(value)] += 1
        s.count += 1
        s.sum += value
        if value < s.min:
            s.min = value
        if value > s.max:
            s.max = value

    def observe_many(self, values: Iterable[float], **labels) -> None:
        """Observe every value in order, vectorized.

        Bit-identical to calling :meth:`observe` once per value: the
        bucket of each value is the first bound ``>=`` it (NaN lands in
        the ``+inf`` bucket), the sum accumulates left to right from the
        series' running sum, and min/max skip NaN and keep the first of
        equal values (so the sign of a zero extreme matches too).  A
        buffer-protocol input (``array('d')``, ndarray) is read in
        place, chunk by chunk, so no full-length temporary is built.
        """
        if not STATE.enabled:
            return
        if not hasattr(values, "__len__"):  # a generator or other iterator
            values = np.fromiter(values, dtype=float)
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size == 0:
            return
        s = self._get(labels)
        bounds = np.asarray(self.buckets)
        n_buckets = len(self.buckets)
        total = np.empty(_OBSERVE_CHUNK + 1)
        for start in range(0, values.size, _OBSERVE_CHUNK):
            chunk = values[start:start + _OBSERVE_CHUNK]
            n = chunk.size
            index = np.minimum(np.searchsorted(bounds, chunk), n_buckets - 1)
            for i, c in enumerate(np.bincount(index, minlength=n_buckets).tolist()):
                if c:
                    s.counts[i] += c
            s.count += n
            total[0] = s.sum
            total[1:n + 1] = chunk
            # Python float addition overflows to inf and yields NaN silently.
            with np.errstate(over="ignore", invalid="ignore"):
                s.sum = float(np.add.accumulate(total[:n + 1])[-1])
            low = float(np.fmin.reduce(chunk))
            if low < s.min:
                s.min = float(chunk[np.argmax(chunk == low)])
            high = float(np.fmax.reduce(chunk))
            if high > s.max:
                s.max = float(chunk[np.argmax(chunk == high)])

    def count(self, **labels) -> int:
        s = self._series.get(_label_key(labels))
        return s.count if s is not None else 0

    def sum(self, **labels) -> float:
        s = self._series.get(_label_key(labels))
        return s.sum if s is not None else 0.0

    def mean(self, **labels) -> float:
        s = self._series.get(_label_key(labels))
        if s is None or s.count == 0:
            raise ConfigurationError(f"histogram {self.name} has no observations")
        return s.sum / s.count

    def percentile(self, q: float, **labels) -> float:
        """Estimated q-th percentile (linear interpolation inside the
        containing bucket, clamped to the observed min/max)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        s = self._series.get(_label_key(labels))
        if s is None or s.count == 0:
            raise ConfigurationError(f"histogram {self.name} has no observations")
        target = q / 100.0 * s.count
        cumulative = 0
        for i, n in enumerate(s.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self.buckets[i - 1] if i > 0 else s.min
                hi = self.buckets[i]
                lo = max(lo, s.min)
                hi = min(hi, s.max)
                if n == 0 or hi <= lo:  # degenerate bucket
                    return float(hi)
                frac = (target - cumulative) / n
                return float(lo + frac * (hi - lo))
            cumulative += n
        return float(s.max)  # pragma: no cover - loop always returns

    def reset(self) -> None:
        self._series.clear()

    def state(self) -> dict:
        """Raw per-label-set bucket counts and moments, for transfer."""
        return {
            key: {
                "counts": list(s.counts),
                "count": s.count,
                "sum": s.sum,
                "min": s.min,
                "max": s.max,
            }
            for key, s in self._series.items()
        }

    def merge_state(self, state: dict) -> None:
        """Add another process's distributions into this histogram.

        The source must have been recorded with identical bucket bounds
        (all built-in instruments use :data:`DEFAULT_BUCKETS`); a length
        mismatch raises rather than silently mis-binning.
        """
        for key, payload in state.items():
            counts = payload["counts"]
            if len(counts) != len(self.buckets):
                raise ConfigurationError(
                    f"histogram {self.name}: cannot merge series with "
                    f"{len(counts)} buckets into {len(self.buckets)}"
                )
            s = self._series.get(key)
            if s is None:
                s = self._series[key] = _HistogramSeries(len(self.buckets))
            for i, c in enumerate(counts):
                s.counts[i] += int(c)
            s.count += int(payload["count"])
            s.sum += float(payload["sum"])
            s.min = min(s.min, float(payload["min"]))
            s.max = max(s.max, float(payload["max"]))

    def series(self) -> dict:
        out = {}
        for key, s in self._series.items():
            out[key] = {
                "count": s.count,
                "sum": s.sum,
                "min": s.min if s.count else None,
                "max": s.max if s.count else None,
                "buckets": {str(b): c for b, c in zip(self.buckets, s.counts)},
            }
        return out


class MetricsRegistry:
    """Named collection of instruments with get-or-create semantics."""

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, description, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self, name: str, description: str = "", buckets: Sequence[float] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, description, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        """Look up an instrument by name (None if absent)."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Zero all recorded values; instrument objects stay registered."""
        for instrument in self._instruments.values():
            instrument.reset()

    def snapshot(self) -> dict:
        """JSON-ready view of every instrument and series.

        Label keys serialise as ``"k=v,k2=v2"`` strings ("" for the
        unlabelled series).
        """
        out: dict = {}
        for name in self.names():
            instrument = self._instruments[name]
            series = {
                ",".join(f"{k}={v}" for k, v in key): value
                for key, value in instrument.series().items()
            }
            out[name] = {
                "kind": instrument.kind,
                "description": instrument.description,
                "series": series,
            }
        return out


#: The process-wide registry used by all built-in instrumentation.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The global registry (module-level instruments live here)."""
    return _REGISTRY

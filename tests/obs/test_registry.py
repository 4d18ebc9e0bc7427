"""Counter/gauge/histogram semantics, labels and no-op mode."""

import math
import struct
from array import array

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry


class TestNoOpMode:
    def test_disabled_writes_are_dropped(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        g = reg.gauge("g")
        h = reg.histogram("h")
        c.inc(10)
        g.set(3.0)
        h.observe(1.0)
        assert c.value() == 0
        assert g.value() == 0
        assert h.count() == 0

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled() and not obs.trace_enabled()
        obs.enable(trace=True)
        assert obs.enabled() and obs.trace_enabled()
        obs.disable()
        assert not obs.enabled() and not obs.trace_enabled()

    def test_values_survive_disable(self, enabled):
        c = enabled.counter("survivor_total")
        c.inc(4)
        obs.disable()
        assert c.value() == 4


class TestCounter:
    def test_inc_and_total(self, enabled):
        c = enabled.counter("ops_total", "desc")
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)
        assert c.total() == pytest.approx(3.5)

    def test_labels_are_independent_series(self, enabled):
        c = enabled.counter("labelled_total")
        c.inc(1, channel="ref")
        c.inc(2, channel="gap")
        c.inc(4)
        assert c.value(channel="ref") == 1
        assert c.value(channel="gap") == 2
        assert c.value() == 4
        assert c.total() == 7

    def test_label_order_does_not_matter(self, enabled):
        c = enabled.counter("order_total")
        c.inc(1, a="x", b="y")
        c.inc(1, b="y", a="x")
        assert c.value(a="x", b="y") == 2

    def test_negative_increment_rejected(self, enabled):
        with pytest.raises(ConfigurationError):
            enabled.counter("neg_total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self, enabled):
        g = enabled.gauge("level")
        g.set(5.0)
        g.inc(2.0)
        g.dec(3.0)
        assert g.value() == pytest.approx(4.0)

    def test_labelled_gauge(self, enabled):
        g = enabled.gauge("per_engine")
        g.set(1.0, engine="python")
        g.set(2.0, engine="cgra")
        assert g.value(engine="python") == 1.0
        assert g.value(engine="cgra") == 2.0


class TestHistogram:
    def test_moments(self, enabled):
        h = enabled.histogram("slack")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(10.0)
        assert h.mean() == pytest.approx(2.5)

    def test_percentiles_interpolate(self, enabled):
        h = enabled.histogram("p")
        h.observe_many(float(v) for v in range(1, 101))
        assert h.percentile(50) == pytest.approx(50.0, rel=0.15)
        assert h.percentile(99) == pytest.approx(99.0, rel=0.15)
        assert h.percentile(0) >= 1.0 - 1e-9
        assert h.percentile(100) == pytest.approx(100.0)

    def test_negative_values_supported(self, enabled):
        h = enabled.histogram("signed")
        h.observe(-50.0)
        h.observe(50.0)
        s = h.series()[()]
        assert s["count"] == 2
        assert s["min"] == -50.0 and s["max"] == 50.0

    def test_empty_percentile_raises(self, enabled):
        h = enabled.histogram("empty")
        with pytest.raises(ConfigurationError):
            h.percentile(50)
        with pytest.raises(ConfigurationError):
            h.mean()

    def test_bad_buckets_rejected(self, enabled):
        with pytest.raises(ConfigurationError):
            enabled.histogram("bad", buckets=[1.0, 1.0])
        with pytest.raises(ConfigurationError):
            enabled.histogram("bad2", buckets=[2.0, 1.0])

    def test_inf_bucket_appended(self, enabled):
        h = enabled.histogram("capped", buckets=[1.0, 2.0])
        assert h.buckets[-1] == math.inf
        h.observe(100.0)
        assert h.count() == 1


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestObserveMany:
    """observe_many is repeated observe, bit for bit."""

    @staticmethod
    def _assert_same(one_by_one, vectorized):
        (a,), (b,) = one_by_one.state().values(), vectorized.state().values()
        assert a["counts"] == b["counts"]
        assert a["count"] == b["count"]
        for moment in ("sum", "min", "max"):
            assert _bits(a[moment]) == _bits(b[moment]), moment

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_repeated_observe(self, enabled, seed):
        rng = np.random.default_rng(seed)
        # Wide dynamic range across every bucket, longer than one chunk,
        # with exact bucket bounds, signed zeros, rails and NaN mixed in.
        n = 9000
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 8, n)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 100.0, -0.1, 1e308]
        at = rng.integers(0, n, 40)
        values[at] = [specials[i % len(specials)] for i in range(40)]
        one_by_one = enabled.histogram(f"one_{seed}")
        vectorized = enabled.histogram(f"many_{seed}")
        for v in (3.5, -2.0):  # a running series to continue from
            one_by_one.observe(v)
            vectorized.observe(v)
        for v in values:
            one_by_one.observe(v)
        source = array("d", values.tolist()) if seed % 2 else values
        vectorized.observe_many(source)
        self._assert_same(one_by_one, vectorized)

    @pytest.mark.parametrize("values", [
        [math.nan, math.nan],
        [math.inf, -math.inf, math.nan],
        [0.0, -0.0, -0.0],
        [-0.0, 0.0],
        [1e308, 1e308, -5.0],
        [],
    ])
    def test_edge_values(self, enabled, values):
        one_by_one = enabled.histogram("one")
        vectorized = enabled.histogram("many")
        one_by_one.observe(1.0)
        vectorized.observe(1.0)
        for v in values:
            one_by_one.observe(v)
        vectorized.observe_many(values)
        self._assert_same(one_by_one, vectorized)

    def test_typed_buffer_can_grow_afterwards(self, enabled):
        record = array("d", [1.0, 2.0])
        enabled.histogram("grow").observe_many(record)
        record.append(3.0)  # BufferError if a view outlived the call
        assert enabled.histogram("grow").count() == 2


class TestRegistry:
    def test_get_or_create_returns_same_object(self, enabled):
        assert enabled.counter("same_total") is enabled.counter("same_total")

    def test_kind_mismatch_raises(self, enabled):
        enabled.counter("kindful")
        with pytest.raises(ConfigurationError):
            enabled.gauge("kindful")

    def test_invalid_name_rejected(self, enabled):
        with pytest.raises(ConfigurationError):
            enabled.counter("not a name")

    def test_reset_keeps_instruments(self, enabled):
        c = enabled.counter("keep_total")
        c.inc(7)
        enabled.reset()
        assert c.value() == 0
        # Same object still registered: new increments land in it.
        obs.enable()
        c.inc(1)
        assert enabled.counter("keep_total").value() == 1

    def test_snapshot_shape(self, enabled):
        c = enabled.counter("snap_total", "description here")
        c.inc(2, kind="x")
        snap = enabled.snapshot()
        entry = snap["snap_total"]
        assert entry["kind"] == "counter"
        assert entry["description"] == "description here"
        assert entry["series"] == {"kind=x": 2.0}

"""Overhead of the observability layer (not a paper artefact).

The obs design rule is "off by default, ~free when off": the
cycle-accurate executors and the per-revolution HIL loop carry
instrumentation that must cost no more than a flag check while disabled.
These benches pin that claim two ways — the per-call cost of a disabled
instrument, and the end-to-end closed-loop revolution rate with
telemetry off vs. on.  The measured numbers are quoted in
docs/OBSERVABILITY.md.
"""

import statistics
import time

import pytest

from repro import obs
from repro.experiments.mde import bench_config
from repro.hil.simulator import CavityInTheLoop


@pytest.fixture(autouse=True)
def _obs_off():
    """Benchmarks must start and end in the default (disabled) state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_disabled_instruments_are_noops(benchmark, report):
    registry = obs.metrics()
    counter = registry.counter("bench_noop_total")
    gauge = registry.gauge("bench_noop_gauge")
    hist = registry.histogram("bench_noop_hist")
    tracer = obs.tracer()
    n = 100_000

    def hammer():
        for _ in range(n):
            counter.inc()
            gauge.set(1.0)
            hist.observe(1.0)
            tracer.event("x")

    benchmark.pedantic(hammer, rounds=5, iterations=1)
    per_call = benchmark.stats["mean"] / (4 * n)
    report(benchmark, "obs — disabled instrument cost", [
        f"disabled write: {per_call * 1e9:.0f} ns/call "
        f"(counter+gauge+histogram+event, {4 * n} calls/round)",
    ])
    assert counter.value() == 0  # nothing was recorded
    # A disabled write is one flag check: well under a microsecond.
    assert per_call < 1e-6


def test_closed_loop_overhead_disabled_vs_enabled(benchmark, report):
    """Revolution rate of the fast-path bench, telemetry off vs. on.

    Each round runs the bench once per mode, back to back, and the
    rounds rotate which mode goes first.  Both sides get the same
    statistic: the per-mode times are medians over the rounds, and the
    overhead is the median over rounds of each round's time ratio to the
    disabled run, so a host that changes speed between rounds cancels
    out.
    """
    duration = 0.01  # 8000 revolutions at 800 kHz
    modes = {
        "disabled": None,
        "enabled": dict(trace=True),
        "profiled": dict(trace=True, profile=True),
    }
    samples: dict[str, list[float]] = {mode: [] for mode in modes}
    order = list(modes)

    def one_round():
        for mode in order:
            if modes[mode] is not None:
                obs.enable(**modes[mode])
            t0 = time.perf_counter()
            CavityInTheLoop(bench_config()).run(duration)
            samples[mode].append(time.perf_counter() - t0)
            obs.disable()
            obs.reset()
        order.append(order.pop(0))

    benchmark.pedantic(one_round, rounds=9, iterations=1)

    def median_us_per_rev(mode):
        return statistics.median(samples[mode]) / (duration * 800e3) * 1e6

    def ratio(mode):
        return statistics.median(
            t / base for t, base in zip(samples[mode], samples["disabled"])
        )

    enabled, profiled = ratio("enabled"), ratio("profiled")
    report(benchmark, "obs — closed-loop overhead", [
        f"{len(samples['disabled'])} rounds, each mode once per round in "
        f"rotating order, {duration * 800e3:.0f} revolutions per run",
        f"disabled: {median_us_per_rev('disabled'):.2f} us/rev (median)",
        f"enabled (metrics+trace): {median_us_per_rev('enabled'):.2f} us/rev (median)",
        f"overhead when enabled: {(enabled - 1) * 100:+.1f} % "
        f"(median of per-round ratios)",
        f"enabled (+profile): {median_us_per_rev('profiled'):.2f} us/rev "
        f"({(profiled - 1) * 100:+.1f} %)",
    ])
    # Enabled telemetry publishes the per-revolution metrics once per
    # run; the profiler adds three perf_counter pairs per revolution.
    # Both must stay a modest tax, not a slowdown class.
    assert enabled < 2.0
    assert profiled < 2.0

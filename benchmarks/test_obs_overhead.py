"""Overhead of the observability layer (not a paper artefact).

The obs design rule is "off by default, ~free when off": the
cycle-accurate executors and the per-revolution HIL loop carry
instrumentation that must cost no more than a flag check while disabled.
These benches pin that claim two ways — the per-call cost of a disabled
instrument, and the end-to-end revolution rate of the scalar and the
batched closed loop with telemetry off vs. on.  The measured numbers
are quoted in docs/OBSERVABILITY.md.
"""

import statistics
import time

import pytest

from repro import obs
from repro.experiments.mde import bench_config
from repro.hil.simulator import CavityInTheLoop, HilConfig


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


def _batched_bench():
    base = bench_config()
    return CavityInTheLoop(HilConfig(
        ring=base.ring, ion=base.ion,
        jump_deg=tuple(2.0 + 1.25 * lane for lane in range(8)),
        record_every=8,
    ))


def test_closed_loop_overhead_disabled_vs_enabled(benchmark, report):
    """Revolution rate of the closed loops, telemetry off vs. on.

    Two benches: the fast-path scalar bench with metrics and trace, and
    an 8-lane batched bench with metrics.  Each round runs each bench
    once per mode, back to back, and the rounds rotate which mode goes
    first.  Both sides get the same statistic: the per-mode times are
    medians over the rounds, and the overhead is the median over rounds
    of each round's time ratio to the disabled run, so a host that
    changes speed between rounds cancels out.
    """
    duration = 0.01  # 8000 revolutions at 800 kHz
    benches = {
        "scalar": (lambda: CavityInTheLoop(bench_config()), dict(trace=True)),
        "batched": (_batched_bench, {}),
    }
    samples: dict[tuple[str, str], list[float]] = {
        (bench, mode): [] for bench in benches for mode in ("disabled", "enabled")
    }
    order = ["disabled", "enabled"]

    def one_round():
        for bench, (make, enabled_kwargs) in benches.items():
            for mode in order:
                if mode == "enabled":
                    obs.enable(**enabled_kwargs)
                t0 = time.perf_counter()
                make().run(duration)
                samples[bench, mode].append(time.perf_counter() - t0)
                obs.disable()
                obs.reset()
        order.reverse()

    benchmark.pedantic(one_round, rounds=9, iterations=1)

    def median_us_per_rev(bench, mode):
        return statistics.median(samples[bench, mode]) / (duration * 800e3) * 1e6

    def ratio(bench):
        return statistics.median(
            t / base
            for t, base in zip(samples[bench, "enabled"], samples[bench, "disabled"])
        )

    scalar, batched = ratio("scalar"), ratio("batched")
    report(benchmark, "obs — closed-loop overhead", [
        f"{len(samples['scalar', 'disabled'])} rounds, each mode once per round in "
        f"rotating order, {duration * 800e3:.0f} revolutions per run",
        f"disabled: {median_us_per_rev('scalar', 'disabled'):.2f} us/rev (median)",
        f"enabled (metrics+trace): {median_us_per_rev('scalar', 'enabled'):.2f} us/rev (median)",
        f"overhead when enabled: {(scalar - 1) * 100:+.1f} % "
        f"(median of per-round ratios)",
        f"batched, 8 lanes, disabled: "
        f"{median_us_per_rev('batched', 'disabled'):.2f} us/rev (median)",
        f"batched, 8 lanes, enabled (metrics): "
        f"{median_us_per_rev('batched', 'enabled'):.2f} us/rev (median)",
        f"batched overhead when enabled: {(batched - 1) * 100:+.1f} % "
        f"(median of per-round ratios)",
    ])
    # Enabled telemetry publishes the per-revolution metrics once per
    # run: a modest tax, not a slowdown class.  The exact guard, that a
    # run's registry writes do not grow with its length, is
    # tests/obs/test_publication.py::TestWritesPerRun.
    assert scalar < 2.0
    assert batched < 2.0

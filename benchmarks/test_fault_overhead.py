"""Overhead of the fault-injection seams (not a paper artefact).

The fault design rule mirrors the obs layer's: "no-op by default, one
comparison when armed-but-idle".  A bench built without faults must run
the exact pre-fault code path (``self._faults is None`` is the only
added work), and a bench with faults armed far in the future pays two
float compares and a flag test per revolution until the first onset.  Both claims are
pinned here — timing ratios *and* bit-identity of the produced traces.
The measured numbers are quoted in docs/FAULTS.md.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.experiments.mde import bench_config
from repro.faults.spec import FaultKind, FaultSpec
from repro.hil.simulator import CavityInTheLoop


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


#: Armed far beyond any bench duration: never activates, so the cost is
#: the pre-onset fast path (one float compare per revolution).
_LATE_FAULTS = (
    FaultSpec(kind=FaultKind.CAVITY_FAILURE, magnitude=0.5, onset_time=1e6),
    FaultSpec(kind=FaultKind.ADC_STUCK_BIT, magnitude=5.0, onset_time=1e6),
)


def test_disarmed_and_idle_fault_paths_are_free(benchmark, report):
    """Revolution rate: no faults vs. armed-but-idle faults."""
    duration = 0.01  # 8000 revolutions at 800 kHz

    def run_disarmed():
        return CavityInTheLoop(bench_config()).run(duration)

    def run_armed_idle():
        return CavityInTheLoop(bench_config(faults=_LATE_FAULTS)).run(duration)

    benchmark.pedantic(run_disarmed, rounds=3, iterations=1)
    disarmed_mean = benchmark.stats["mean"]

    def timed(fn, n=3):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    armed_mean = timed(run_armed_idle)

    n_revs = duration * 800e3
    overhead = armed_mean / disarmed_mean - 1.0
    report(benchmark, "faults — disarmed/idle overhead", [
        f"disarmed: {disarmed_mean / n_revs * 1e6:.2f} us/rev",
        f"armed, pre-onset: {armed_mean / n_revs * 1e6:.2f} us/rev",
        f"overhead while idle: {overhead * 100:+.1f} %",
    ])
    # One float compare per revolution must stay noise, not a tax.
    assert armed_mean < 1.25 * disarmed_mean


def test_armed_idle_traces_are_bit_identical(report, benchmark):
    """The stronger form of "free": armed-but-idle runs produce traces
    bit-identical to disarmed runs, so zero-fault campaigns cannot
    perturb any existing experiment output."""
    duration = 0.005
    clean = CavityInTheLoop(bench_config()).run(duration)
    armed = CavityInTheLoop(bench_config(faults=_LATE_FAULTS)).run(duration)

    def compare():
        np.testing.assert_array_equal(
            np.asarray(armed.phase_deg), np.asarray(clean.phase_deg)
        )
        np.testing.assert_array_equal(
            np.asarray(armed.delta_t), np.asarray(clean.delta_t)
        )

    benchmark.pedantic(compare, rounds=1, iterations=1)
    report(benchmark, "faults — armed/idle bit-identity", [
        f"{len(np.asarray(clean.phase_deg))} records bit-identical "
        f"with {len(_LATE_FAULTS)} faults armed past the horizon",
    ])

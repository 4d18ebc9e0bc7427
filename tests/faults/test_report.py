"""Classification tests: every Outcome branch from synthetic traces."""

import math

import numpy as np
import pytest

from repro.faults.report import (
    DEFAULT_TOLERANCE_DEG,
    DEFAULT_UNSTABLE_DEG,
    Outcome,
    classify_trace,
)
from repro.faults.spec import FaultKind, FaultSpec

N = 100
TIME = np.linspace(0.0, 0.099, N)
BASELINE = np.zeros(N)


def _spec(onset=0.02, duration=0.01):
    return FaultSpec(
        kind=FaultKind.DETUNING_TRANSIENT,
        magnitude=5.0,
        onset_time=onset,
        duration=duration,
    )


def _classify(phase, spec=None):
    return classify_trace(TIME, phase, BASELINE, spec or _spec())


class TestOutcomes:
    def test_flat_trace_recovers_with_zero_settle(self):
        r = _classify(np.zeros(N))
        assert r.outcome is Outcome.RECOVERED
        assert r.settle_s == 0.0
        assert r.max_excursion_deg == 0.0 and r.final_error_deg == 0.0

    def test_in_band_wiggle_recovers_with_zero_settle(self):
        phase = np.full(N, 0.5 * DEFAULT_TOLERANCE_DEG)
        r = _classify(phase)
        assert r.outcome is Outcome.RECOVERED and r.settle_s == 0.0

    def test_transient_excursion_recovers_with_settle_time(self):
        phase = np.zeros(N)
        phase[25:40] = 10.0  # out of band until t = TIME[39]
        r = _classify(phase, _spec(onset=0.02, duration=0.01))
        assert r.outcome is Outcome.RECOVERED
        # Settles at the first in-band record after the excursion,
        # measured from fault clearance (onset + duration = 0.03 s).
        assert r.settle_s == pytest.approx(TIME[40] - 0.03)
        assert r.max_excursion_deg == pytest.approx(10.0)

    def test_settle_clamped_to_zero_before_clearance(self):
        phase = np.zeros(N)
        phase[21:23] = 5.0  # back in band long before clearance
        r = _classify(phase, _spec(onset=0.02, duration=0.05))
        assert r.outcome is Outcome.RECOVERED and r.settle_s == 0.0

    def test_persistent_fault_settles_from_onset(self):
        phase = np.zeros(N)
        phase[25:40] = 10.0
        r = _classify(phase, _spec(onset=0.02, duration=None))
        assert r.outcome is Outcome.RECOVERED
        assert r.settle_s == pytest.approx(TIME[40] - 0.02)

    def test_residual_error_at_end_is_degraded(self):
        phase = np.zeros(N)
        phase[50:] = 5.0 * DEFAULT_TOLERANCE_DEG
        r = _classify(phase)
        assert r.outcome is Outcome.DEGRADED
        assert math.isnan(r.settle_s)
        assert r.final_error_deg == pytest.approx(5.0 * DEFAULT_TOLERANCE_DEG)

    def test_excursion_beyond_threshold_is_unstable(self):
        phase = np.zeros(N)
        phase[30] = DEFAULT_UNSTABLE_DEG  # threshold is inclusive
        r = _classify(phase)
        assert r.outcome is Outcome.UNSTABLE
        assert math.isnan(r.settle_s)
        assert r.max_excursion_deg == pytest.approx(DEFAULT_UNSTABLE_DEG)

    def test_non_finite_trace_is_unstable_with_finite_peak(self):
        phase = np.zeros(N)
        phase[40] = 30.0
        phase[60] = math.nan
        phase[70] = math.inf
        r = _classify(phase)
        assert r.outcome is Outcome.UNSTABLE
        assert r.max_excursion_deg == pytest.approx(30.0)

    def test_empty_trace_is_failed(self):
        empty = np.zeros(0)
        r = classify_trace(empty, empty, empty, _spec())
        assert r.outcome is Outcome.FAILED
        assert math.isnan(r.settle_s) and math.isnan(r.max_excursion_deg)


class TestBaselineCancellation:
    def test_common_jump_pattern_cancels(self):
        """The commanded jumps appear in both traces and must not count."""
        jumps = np.where(TIME > 0.05, 200.0, 0.0)  # way past unstable_deg
        r = classify_trace(TIME, jumps, jumps, _spec())
        assert r.outcome is Outcome.RECOVERED and r.max_excursion_deg == 0.0

    def test_deviation_from_baseline_counts(self):
        jumps = np.where(TIME > 0.05, 20.0, 0.0)
        faulted = jumps.copy()
        faulted[30] += DEFAULT_UNSTABLE_DEG + 5.0
        r = classify_trace(TIME, faulted, jumps, _spec())
        assert r.outcome is Outcome.UNSTABLE


class TestKnobs:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shapes differ"):
            classify_trace(TIME, np.zeros(N - 1), BASELINE[: N - 1], _spec())


class TestStabilityReport:
    def test_outcome_codes_are_stable(self):
        """The CSV schema depends on these exact integer codes."""
        assert [o.value for o in Outcome] == [0, 1, 2, 3, 4, 5]
        assert Outcome.RECOVERED == 0 and Outcome.FAILED == 5

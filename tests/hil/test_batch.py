"""The bench's lanes vs one-loop runs of the same class.

A tuple ``jump_deg`` advances B full closed loops with one compiled
program.  Its contract: each lane evolves exactly as a one-loop
``CavityInTheLoop`` run with that lane's jump amplitude (same
quantisation), and the interpreter (``engine="cgra"``) stays the
oracle.  The model math is bit-exact per lane; the analytic ``np.sin``
sensors match ``math.sin`` on this platform, so the traces compare with
exact equality here — fall back to allclose only if a platform's libm
disagrees (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.control import BeamPhaseControlLoop, ControlLoopConfig
from repro.errors import ConfigurationError, FaultSpecError, HilError
from repro.faults.spec import FaultKind, FaultSpec
from repro.hil import CavityInTheLoop, HilConfig
from repro.hil.simulator import _VectorControlLoop
from repro.physics import KNOWN_IONS, SIS18

ION = KNOWN_IONS["14N7+"]
AMPS = (4.0, 8.0, 12.0)

#: (shape, sha256) of every array of ``test_driven_loop_digests``' run,
#: by control source (x86-64, NumPy 2.4).
DRIVEN_DIGESTS = {
    "bunch0": {
        "time": (
            (1067,),
            "a07d5188726f356b2b25f79b2c73c92b205f53466e4f6bb3ea519467e57932c7",
        ),
        "phase_deg": (
            (1067, 3),
            "582499bc1b07d824d97c13304b6aac2982199b369c290efbe40e222e69864ca5",
        ),
        "correction_deg": (
            (1067, 3),
            "34dc8b1e9d96d84f279755a830bf774f51508445d0a1e314cbc62729028e1e43",
        ),
        "jump_deg": (
            (1067, 3),
            "eb82b382736699f56ac5b449c82d87a4cd48907272a0c99ce3ff8baabb29c6c7",
        ),
        "delta_t": (
            (1067, 3),
            "5bb3e3ec8adcf083547bb9344aaab4ad8bd5469adb479c0ce605272ff9eabd8e",
        ),
        "delta_t_all": (
            (1067, 3, 2),
            "c197eaf7fdecf1c83dd5d62af6a638bee30ad89b633264d88c62bd6a475b7916",
        ),
        "gamma_ref": (
            (1067, 3),
            "9480ec7d80bfde48691c8cf7549a253e27ad027b1fe87ffccb2c89f19a90f78c",
        ),
    },
    "mean": {
        "time": (
            (1067,),
            "a07d5188726f356b2b25f79b2c73c92b205f53466e4f6bb3ea519467e57932c7",
        ),
        "phase_deg": (
            (1067, 3),
            "7a9667651267e3c7cc00b2ab9ee785bbdfac1b231dd59228d4ef799b72285309",
        ),
        "correction_deg": (
            (1067, 3),
            "514e4b3a8fc65c70ce84e55d01d7bfad4c0b8d124de658d34e9c844157ceac2c",
        ),
        "jump_deg": (
            (1067, 3),
            "eb82b382736699f56ac5b449c82d87a4cd48907272a0c99ce3ff8baabb29c6c7",
        ),
        "delta_t": (
            (1067, 3),
            "5dda44dd57efb191ef943e6ed3b1b16cce04c057de42cc1f76dbbf6c098b92bd",
        ),
        "delta_t_all": (
            (1067, 3, 2),
            "5595736efe6ff3f69ccc1d1c88fe0ce57f42e010a3b13a2d6b4cc67b6bf29a5a",
        ),
        "gamma_ref": (
            (1067, 3),
            "9480ec7d80bfde48691c8cf7549a253e27ad027b1fe87ffccb2c89f19a90f78c",
        ),
    },
}


def _batch_config(**overrides):
    defaults = dict(
        ring=SIS18,
        ion=ION,
        jump_deg=AMPS,
        jump_start_time=0.002,
        record_every=4,
    )
    defaults.update(overrides)
    return HilConfig(**defaults)


def _scalar_config(jump_deg, **overrides):
    defaults = dict(
        ring=SIS18,
        ion=ION,
        jump_deg=jump_deg,
        jump_start_time=0.002,
        record_every=4,
        engine="cgra",
    )
    defaults.update(overrides)
    return HilConfig(**defaults)


def _assert_lanes_match_loops(duration=0.02, **overrides):
    """Run ``AMPS`` as lanes, then each amplitude as one loop with the
    same ``overrides``; every lane must match its loop bit for bit."""
    batched = CavityInTheLoop(_batch_config(**overrides)).run(duration)
    assert (batched.engine, batched.batch) == ("batched", len(AMPS))
    for lane, amp in enumerate(AMPS):
        scalar = CavityInTheLoop(_scalar_config(amp, **overrides)).run(duration)
        assert (scalar.batch, scalar.n_turns) == (1, batched.n_turns)
        assert np.array_equal(batched.time, scalar.time)
        for name in ("phase_deg", "correction_deg", "jump_deg",
                     "delta_t", "gamma_ref"):
            got = getattr(batched, name)[:, lane]
            want = getattr(scalar, name)
            assert np.array_equal(got, want), f"{name} lane {lane} diverged"
        assert np.array_equal(batched.delta_t_all[:, lane, :],
                              scalar.delta_t_all)


class TestBatchedHil:
    def test_lanes_match_scalar_runs(self):
        """Against the interpreter, the bit-exactness oracle."""
        _assert_lanes_match_loops()

    @pytest.mark.parametrize("overrides", [
        dict(dual_harmonic_ratio=0.25),
        dict(n_bunches=2, initial_delta_t=(4e-9, -7e-9), control_source="mean"),
    ], ids=["dual_harmonic", "two_bunches_mean"])
    def test_lanes_match_python_engine_runs(self, overrides):
        """The fields the lanes share with one loop mean the same in
        both: the dual-harmonic gap, per-bunch offsets and the mean
        detector.  ``engine="python"`` is pinned to the interpreter by
        ``test_generated_step_matches_interpreter``."""
        _assert_lanes_match_loops(engine="python", **overrides)

    @pytest.mark.parametrize("control_source", ["bunch0", "mean"])
    def test_driven_loop_digests(self, control_source):
        """Two bunches, every third turn recorded: the sha256 of every
        result array, and the end state.  The digests were recorded when
        a per-turn reference loop still existed and matched this run bit
        for bit; ``"mean"`` takes the other branch of the control update
        and of the phase record."""
        bench = CavityInTheLoop(
            _batch_config(n_bunches=2, record_every=3, control_source=control_source)
        )
        result = bench.run(0.004)
        for name, expected in DRIVEN_DIGESTS[control_source].items():
            array = getattr(result, name)
            digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
            assert (array.shape, digest) == expected, name
        assert bench._turn == 3200
        assert bench._time == 0.003999999999999891
        assert bench.control.saturation_count == 0

    def test_control_damps_every_lane(self):
        cfg = _batch_config(jump_deg=(6.0, 10.0), jump_start_time=0.001)
        res = CavityInTheLoop(cfg).run(0.04)
        # After the jump, the loop steers the measured phase toward the
        # commanded shift in every lane (settled |phase - jump| small
        # relative to the jump itself).
        tail = slice(-len(res.time) // 4, None)
        for lane in range(res.batch):
            err = np.abs(res.phase_deg[tail, lane] - res.jump_deg[tail, lane])
            assert err.mean() < 0.4 * cfg.jump_deg[lane]

    def test_initial_delta_t_per_lane(self):
        """``initial_delta_t`` holds one offset per bunch, and every lane
        starts from the same offsets."""
        initial = (1e-8, -1e-8, 0.0)
        cfg = _batch_config(
            jump_deg=(0.0, 0.0),  # no drive: only the injection errors act
            n_bunches=3,
            control=ControlLoopConfig(sample_rate=800e3, enabled=False),
            initial_delta_t=initial,
        )
        bench = CavityInTheLoop(cfg)
        for i, offset in enumerate(initial):
            assert np.array_equal(bench._executor.register_of(f"dt[{i}]"),
                                  np.full(2, np.float32(offset)))
        res = bench.run(0.01)
        assert np.array_equal(res.delta_t_all[0], [initial, initial])
        assert np.array_equal(res.delta_t_all[:, 0], res.delta_t_all[:, 1])
        # Undriven bunch stays put; offset bunches oscillate.
        assert np.ptp(res.delta_t_all[:, 0, 0]) > np.ptp(res.delta_t_all[:, 0, 2])

    def test_multibunch_lockstep(self):
        cfg = _batch_config(jump_deg=(5.0, 9.0), n_bunches=2)
        res = CavityInTheLoop(cfg).run(0.005)
        assert res.delta_t_all.shape == (len(res.time), 2, 2)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            _batch_config(jump_deg=())
        with pytest.raises(ConfigurationError, match="initial_delta_t needs 1 entries"):
            _batch_config(initial_delta_t=(1e-8, 1e-8))  # bunch count mismatch
        with pytest.raises(ConfigurationError, match="engine='cgra' needs a float jump_deg"):
            _batch_config(engine="cgra")
        with pytest.raises(ConfigurationError):
            _batch_config(control_source="median")
        with pytest.raises(ConfigurationError):
            _batch_config(record_every=0)
        with pytest.raises(ConfigurationError):
            CavityInTheLoop(
                _batch_config(control=ControlLoopConfig(sample_rate=1e6))
            )
        bench = CavityInTheLoop(_batch_config())
        for duration in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(HilError, match="duration must be"):
                bench.run(duration)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["revolution_frequency", "synchrotron_frequency",
                                       "jump_toggle_period", "jump_start_time",
                                       "jump_deg", "initial_delta_t"])
    def test_non_finite_values_rejected(self, field, value):
        if field == "jump_deg":
            overrides = {field: (0.0, value, 0.0)}  # lane 1 of three
            match = "jump_deg of lane 1 must be finite"
        elif field == "initial_delta_t":
            overrides = dict(n_bunches=3, initial_delta_t=(0.0, value, 0.0))
            match = "initial_delta_t of bunch 1 must be finite"
        else:
            overrides = {field: value}
            match = f"{field} must be finite"
        with pytest.raises(ConfigurationError, match=match):
            _batch_config(quantize_adc=False, **overrides)

    def test_precision_names(self):
        with pytest.raises(ConfigurationError,
                           match="precision must be 'single' or 'double'"):
            _batch_config(precision="half")

    @pytest.mark.parametrize("kind, target", [
        (FaultKind.CAVITY_FAILURE, 2),
        (FaultKind.ADC_STUCK_BIT, 5),
    ])
    def test_fault_lane_checked_at_construction(self, kind, target):
        """A two-lane config refuses a loop fault aimed past its lanes
        with the bench's own message."""
        spec = FaultSpec(kind=kind, magnitude=3.0 if kind is FaultKind.ADC_STUCK_BIT else 0.5,
                         onset_time=0.001, target=target)
        with pytest.raises(FaultSpecError,
                           match=f"{kind.value} targets lane {target}, batch has 2 lanes"):
            _batch_config(jump_deg=(8.0, 8.0), faults=(spec,))

    def test_context_fault_needs_no_lane(self):
        """Context corruption never touches the loop, so any target is
        accepted, as FaultProgram accepts it."""
        spec = FaultSpec(kind=FaultKind.CGRA_CONTEXT_CORRUPTION, magnitude=3.0,
                         onset_time=0.0, target=7)
        assert _batch_config(jump_deg=(8.0, 8.0), faults=(spec,)).faults == (spec,)

    def test_batch_property(self):
        assert _batch_config().batch == len(AMPS)


class TestSensorHandlerContract:
    """The compiled step checks no read for finiteness (docs/PERFORMANCE.md,
    *Guard-free batched step*), so a bus handler must return finite values
    for finite inputs.  The bench's reference and gap handlers keep that
    contract for addresses from 0 up to ±1e300, faulted or not, under the
    engine's own errstate."""

    #: Every fault channel of the gap handler, one lane each: gain,
    #: phase, clip and stuck bit (the sign bit of the 14-bit word).
    FAULTS = (
        FaultSpec(kind=FaultKind.CAVITY_FAILURE, magnitude=0.5, onset_time=0.0, target=0),
        FaultSpec(kind=FaultKind.DDS_PHASE_GLITCH, magnitude=3.0, onset_time=0.0, target=1),
        FaultSpec(kind=FaultKind.AMPLIFIER_SATURATION, magnitude=0.1, onset_time=0.0, target=2),
        FaultSpec(kind=FaultKind.ADC_STUCK_BIT, magnitude=13, onset_time=0.0, target=0),
    )

    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("quantize_adc", [True, False])
    def test_finite_addresses_give_finite_reads(self, quantize_adc, faulted):
        bench = CavityInTheLoop(
            _batch_config(quantize_adc=quantize_adc, faults=self.FAULTS if faulted else ())
        )
        if faulted:
            bench._faults.update(0.0)
            assert bench._faults.active and bench._faults.stuck_any
        magnitudes = (0.0, 1.0, 12345.678, 1e9, 1e15, 1e100, 1e200, 1e300)
        addresses = [sign * m for m in magnitudes for sign in (1.0, -1.0)]
        handlers = (bench._signals.ref_adc_voltage, bench._signals.gap_adc_voltage)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for addr in addresses:
                lanes = np.array([addr, -addr, addr / 3.0])
                for handler in handlers:
                    for samples in (np.float64(addr), lanes):
                        read = handler(samples)
                        assert np.all(np.isfinite(read)), (handler.__name__, samples, read)


class TestVectorControlLoop:
    """The batched filter against B scalar loops fed the same lanes."""

    #: Per-lane measurement scale: lanes 0-1 stay below a 0.5 deg limit,
    #: lanes 2-4 go above it, lane 5 reads NaN from step 10 on.
    SCALES = (0.01, 0.1, 10.0, 100.0, 1000.0, 1.0)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"enabled": False}],
        ids=["every_turn", "disabled"],
    )
    def test_bit_equal_to_scalar_loops(self, overrides):
        config = ControlLoopConfig(sample_rate=800e3, saturation_deg=0.5, **overrides)
        lanes = len(self.SCALES)
        vector = _VectorControlLoop(config, lanes)
        scalars = [BeamPhaseControlLoop(config) for _ in range(lanes)]
        rng = np.random.default_rng(1801)
        x = np.empty(lanes)  # one buffer, rewritten every step
        for step in range(60):
            x[:] = rng.standard_normal(lanes) * self.SCALES
            if step >= 10:
                x[-1] = np.nan
            got = vector.update(x)
            want = np.array([loop.update(v) for loop, v in zip(scalars, x)])
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), step
            assert np.array_equal(vector.last_output_deg, want, equal_nan=True)
        assert vector.saturation_count == sum(loop.saturation_count for loop in scalars)
        if config.enabled:
            assert vector.saturation_count > 0
            assert not np.isnan(got[:-1]).any() and np.isnan(got[-1])

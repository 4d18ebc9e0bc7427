"""Injector tests: channel math, validation, bit-identity, parity.

The load-bearing invariants of the tentpole:

* armed-but-never-active runs are **bit-identical** to unfaulted runs
  (the handlers take their original branches outside the fault window);
* in a batch, a fault touches **only its target lane** — co-resident
  lanes carry neutral channel elements, which are bitwise no-ops;
* faults act in the sensor handlers shared by every engine, so the
  python and CGRA engines stay bit-exact *under fault*;
* context corruption never reaches execution — the PR-2 static
  verifier is the detector.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import FaultSpecError
from repro.experiments import mde
from repro.faults.inject import (
    LOOP_KINDS,
    MICROPHONIC_LINES,
    FaultProgram,
    _Microphonics,
    corrupt_context_images,
)
from repro.faults.spec import MAGNITUDE_WINDOWS, FaultKind, FaultSpec
from repro.hil.simulator import CavityInTheLoop, HilConfig
from repro.signal.adc import ADC


def _spec(kind=FaultKind.CAVITY_FAILURE, magnitude=0.5, onset=0.001, **kw):
    return FaultSpec(kind=kind, magnitude=magnitude, onset_time=onset, **kw)


def _batch_config(batch, faults=(), duration_unused=None, **overrides):
    base = mde.bench_config()
    kwargs = dict(
        ring=base.ring,
        ion=base.ion,
        harmonic=base.harmonic,
        revolution_frequency=base.revolution_frequency,
        synchrotron_frequency=base.synchrotron_frequency,
        jump_deg=(8.0,) * batch,
        jump_toggle_period=base.jump_toggle_period,
        control=base.control,
        record_every=8,
        faults=tuple(faults),
    )
    kwargs.update(overrides)
    return HilConfig(**kwargs)


class TestFaultProgramChannels:
    def test_disarmed_defaults_are_neutral(self):
        p = FaultProgram(())
        assert not p.active
        assert p.gap_gain == 1.0 and p.gap_phase == 0.0
        assert math.isinf(p.gap_clip) and p.stuck_mask == 0

    def test_cavity_failure_scales_gain(self):
        p = FaultProgram([_spec(magnitude=0.3)])
        p.update(0.002)
        assert p.active
        assert p.gap_gain == pytest.approx(0.7)
        p.update(0.0)  # before onset: neutral again
        assert not p.active and p.gap_gain == 1.0

    def test_detuning_transient_is_a_phase_ramp(self):
        s = _spec(kind=FaultKind.DETUNING_TRANSIENT, magnitude=10.0, onset=0.01)
        p = FaultProgram([s])
        p.update(0.01 + 0.005)
        assert p.gap_phase == pytest.approx(2.0 * math.pi * 10.0 * 0.005)

    def test_dds_glitch_kicks_gap_phase(self):
        s = _spec(kind=FaultKind.DDS_PHASE_GLITCH, magnitude=0.25, onset=0.0)
        p = FaultProgram([s])
        p.update(0.001)
        assert p.gap_phase == pytest.approx(0.25)

    def test_clip_channels_take_the_minimum(self):
        specs = [
            _spec(kind=FaultKind.AMPLIFIER_SATURATION, magnitude=0.4),
            _spec(kind=FaultKind.DAC_CLIPPING, magnitude=0.25),  # x 1.0 V
        ]
        p = FaultProgram(specs, dac_full_scale=1.0)
        p.update(0.002)
        assert p.gap_clip == pytest.approx(0.25)

    def test_stuck_bits_accumulate_or_masks(self):
        specs = [
            _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=2.0),
            _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=5.0),
        ]
        p = FaultProgram(specs)
        p.update(0.002)
        assert p.stuck_any and p.stuck_mask == (1 << 2) | (1 << 5)

    def test_batched_channels_touch_only_the_target_lane(self):
        specs = [
            _spec(magnitude=0.5, target=2),
            _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=3.0, target=1),
        ]
        p = FaultProgram(specs, batch=4)
        p.update(0.002)
        np.testing.assert_array_equal(p.gap_gain, [1.0, 1.0, 0.5, 1.0])
        np.testing.assert_array_equal(p.stuck_mask, [0, 1 << 3, 0, 0])

    def test_window_end_is_exclusive(self):
        p = FaultProgram([_spec(magnitude=0.5, onset=0.01, duration=0.01)])
        p.update(0.015)
        assert p.active
        p.update(0.02)  # onset + duration: cleared
        assert not p.active and p.gap_gain == 1.0

    def test_label_joins_specs(self):
        specs = [_spec(label="c1"), _spec(kind=FaultKind.DAC_CLIPPING, magnitude=0.5)]
        assert FaultProgram(specs).label == "c1,dac_clipping"


def _assert_neutral(p: FaultProgram) -> None:
    assert not p.active and not p.stuck_any
    np.testing.assert_array_equal(p.gap_gain, np.ones(p.batch))
    np.testing.assert_array_equal(p.gap_phase, np.zeros(p.batch))
    np.testing.assert_array_equal(p.gap_clip, np.full(p.batch, math.inf))
    np.testing.assert_array_equal(p.stuck_mask, np.zeros(p.batch, dtype=np.int64))


class TestAfterLastWindow:
    """Past every window's end the program is neutral, whatever ran last."""

    def _windows(self):
        # Overlapping windows on two lanes: [0.01, 0.02) and [0.015, 0.03).
        return [
            _spec(magnitude=0.5, onset=0.01, duration=0.01, target=0),
            _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=3.0, onset=0.015,
                  duration=0.015, target=2),
        ]

    def test_neutral_past_the_last_window(self):
        p = FaultProgram(self._windows(), batch=4)
        p.update(0.016)
        assert p.active and p.stuck_any
        for t in (0.03, 0.031, 1.0):  # the end is exclusive
            p.update(t)
            _assert_neutral(p)

    def test_later_fault_holds_between_the_two_ends(self):
        p = FaultProgram(self._windows(), batch=4)
        p.update(0.016)
        np.testing.assert_array_equal(p.gap_gain, [0.5, 1.0, 1.0, 1.0])
        p.update(0.025)  # first window closed, second still open
        assert p.active and p.stuck_any
        np.testing.assert_array_equal(p.gap_gain, np.ones(4))
        np.testing.assert_array_equal(p.stuck_mask, [0, 0, 1 << 3, 0])
        p.update(0.0299)
        np.testing.assert_array_equal(p.stuck_mask, [0, 0, 1 << 3, 0])

    def test_open_ended_spec_never_closes(self):
        specs = [*self._windows(), _spec(kind=FaultKind.DDS_PHASE_GLITCH,
                                         magnitude=0.25, onset=0.005, target=1)]
        p = FaultProgram(specs, batch=4)
        for t in (0.03, 1.0, 1e3):
            p.update(t)
            assert p.active and not p.stuck_any
            np.testing.assert_array_equal(p.gap_phase, [0.0, 0.25, 0.0, 0.0])
            np.testing.assert_array_equal(p.stuck_mask, np.zeros(4, dtype=np.int64))


def _oracle_fold(program: FaultProgram, t: float) -> dict:
    """The channels at ``t``, folded from scratch: every loop spec's
    ``active_at(t)`` in spec order, each transfer written out here."""
    scalar = program.batch is None
    gain = np.ones(program.batch or 1)
    phase = np.zeros(program.batch or 1)
    clip = np.full(program.batch or 1, math.inf)
    mask = np.zeros(program.batch or 1, dtype=np.int64)
    active = stuck = False
    for s in program.loop_specs:
        if not s.active_at(t):
            continue
        active = True
        lane = s.target
        if s.kind is FaultKind.CAVITY_FAILURE:
            gain[lane] *= 1.0 - s.magnitude
        elif s.kind is FaultKind.MICROPHONIC_DETUNING:
            m = _Microphonics(s)
            tau = t - s.onset_time
            arg = 2.0 * math.pi * m.freqs * tau + m.thetas
            phase[lane] += float(np.dot(m.amp_over_f, np.sin(arg) - np.sin(m.thetas)))
        elif s.kind is FaultKind.DETUNING_TRANSIENT:
            phase[lane] += 2.0 * math.pi * s.magnitude * (t - s.onset_time)
        elif s.kind is FaultKind.DDS_PHASE_GLITCH:
            phase[lane] += s.magnitude
        elif s.kind is FaultKind.AMPLIFIER_SATURATION:
            clip[lane] = min(clip[lane], s.magnitude)
        elif s.kind is FaultKind.DAC_CLIPPING:
            clip[lane] = min(clip[lane], s.magnitude * program.dac_full_scale)
        elif s.kind is FaultKind.ADC_STUCK_BIT:
            mask[lane] |= 1 << int(s.magnitude)
            stuck = True
    if scalar:
        return dict(active=active, stuck_any=stuck, gap_gain=float(gain[0]),
                    gap_phase=float(phase[0]), gap_clip=float(clip[0]),
                    stuck_mask=int(mask[0]))
    return dict(active=active, stuck_any=stuck, gap_gain=gain, gap_phase=phase,
                gap_clip=clip, stuck_mask=mask)


def _random_spec(rng, kind, target):
    low, high, integral = MAGNITUDE_WINDOWS[kind]
    if integral:
        magnitude = float(rng.integers(int(low), int(min(high, 13.0)) + 1))
    else:
        magnitude = float(rng.uniform(max(low, -40.0), min(high, 40.0)))
    duration = None if rng.random() < 0.3 else float(rng.uniform(1e-4, 0.01))
    return FaultSpec(kind=kind, magnitude=magnitude,
                     onset_time=float(rng.uniform(0.0, 0.02)), duration=duration,
                     target=target, seed=int(rng.integers(0, 1000)))


def _oracle_programs():
    rng = np.random.default_rng(20)
    kinds = sorted(LOOP_KINDS, key=lambda k: k.value)
    programs = []
    for batch in (None, 4):
        for _ in range(12):
            n = int(rng.integers(1, 5))
            specs = [
                _random_spec(rng, kinds[int(rng.integers(len(kinds)))],
                             0 if batch is None else int(rng.integers(batch)))
                for _ in range(n)
            ]
            programs.append(FaultProgram(specs, batch=batch, dac_full_scale=0.8))
    # One lane carrying a glitch, a microphonic and a transient together
    # (pins the order of the phase sum), and two stuck bits on one lane.
    shared = [
        _spec(kind=FaultKind.DETUNING_TRANSIENT, magnitude=17.0, onset=0.004,
              duration=0.01, target=1),
        _spec(kind=FaultKind.DDS_PHASE_GLITCH, magnitude=0.3, onset=0.002,
              target=1),
        _spec(kind=FaultKind.MICROPHONIC_DETUNING, magnitude=25.0, onset=0.006,
              duration=0.005, target=1, seed=11),
        _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=4.0, onset=0.003,
              duration=0.004, target=3),
        _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=9.0, onset=0.005,
              target=3),
        _spec(kind=FaultKind.CAVITY_FAILURE, magnitude=0.25, onset=0.005,
              duration=0.002, target=1),
    ]
    for batch in (None, 4):
        specs = shared if batch else [dataclasses.replace(s, target=0) for s in shared]
        programs.append(FaultProgram(specs, batch=batch, dac_full_scale=0.8))
    return programs


def _oracle_times(program: FaultProgram, rng) -> list[float]:
    edges = set()
    for s in program.loop_specs:
        edges.add(s.onset_time)
        if s.duration is not None:
            edges.add(s.onset_time + s.duration)
    times = [0.0, 1.0]
    for e in sorted(edges):
        times += [e, float(np.nextafter(e, -math.inf)), float(np.nextafter(e, math.inf))]
    times += [float(x) for x in rng.uniform(0.0, 0.035, 40)]
    return sorted(times)


def _assert_same_channels(program: FaultProgram, want: dict, t: float) -> None:
    for name, expected in want.items():
        got = getattr(program, name)
        assert type(got) is type(expected), (name, t)
        if isinstance(expected, np.ndarray):
            assert got.dtype == expected.dtype and got.shape == expected.shape, (name, t)
            assert got.tobytes() == expected.tobytes(), (name, t, got, expected)
        elif isinstance(expected, float):
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (
                name, t, got, expected)
        else:
            assert got == expected, (name, t)


class TestFoldOracle:
    """After every ``update(t)`` the channels equal a from-scratch fold of
    every spec's window at ``t``, bit for bit and type for type, however
    the times are visited."""

    @pytest.mark.parametrize("order", ["increasing", "shuffled"])
    def test_channels_match_reference_fold(self, order):
        rng = np.random.default_rng(7 if order == "shuffled" else 3)
        for program in _oracle_programs():
            times = _oracle_times(program, rng)
            if order == "shuffled":
                rng.shuffle(times)
            for t in times:
                program.update(t)
                _assert_same_channels(program, _oracle_fold(program, t), t)


class TestValidation:
    def test_rejects_non_spec(self):
        with pytest.raises(FaultSpecError, match="FaultSpec"):
            FaultProgram([{"kind": "cavity_failure"}])

    def test_scalar_bench_rejects_nonzero_target(self):
        with pytest.raises(FaultSpecError, match="lane 1"):
            FaultProgram([_spec(target=1)])

    def test_batched_rejects_out_of_range_target(self):
        with pytest.raises(FaultSpecError, match="lane 4"):
            FaultProgram([_spec(target=4)], batch=4)

    def test_stuck_bit_validated_against_adc_bits(self):
        # Satellite: bit 13 passes the spec window but a 12-bit ADC
        # must reject it at injection time.
        spec = _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=13.0)
        FaultProgram([spec], adc_bits=14)  # fine for the bench ADC
        with pytest.raises(FaultSpecError, match="12-bit"):
            FaultProgram([spec], adc_bits=12)


class TestMicrophonics:
    def test_seeded_realisation_is_deterministic(self):
        s = _spec(kind=FaultKind.MICROPHONIC_DETUNING, magnitude=20.0, seed=7)
        a, b = _Microphonics(s), _Microphonics(s)
        np.testing.assert_array_equal(a.freqs, b.freqs)
        assert a.phase_rad(0.013) == b.phase_rad(0.013)

    def test_distinct_seeds_give_distinct_spectra(self):
        s1 = _spec(kind=FaultKind.MICROPHONIC_DETUNING, magnitude=20.0, seed=1)
        s2 = dataclasses.replace(s1, seed=2)
        assert not np.array_equal(_Microphonics(s1).freqs, _Microphonics(s2).freqs)

    def test_band_and_line_count(self):
        s = _spec(kind=FaultKind.MICROPHONIC_DETUNING, magnitude=20.0, seed=3)
        m = _Microphonics(s)
        assert m.freqs.shape == (MICROPHONIC_LINES,)
        assert np.all((m.freqs >= 10.0) & (m.freqs <= 300.0))

    def test_phase_zero_at_onset(self):
        s = _spec(kind=FaultKind.MICROPHONIC_DETUNING, magnitude=20.0,
                  onset=0.004, seed=5)
        assert _Microphonics(s).phase_rad(0.004) == 0.0


class TestStuckBitMath:
    def test_mask_zero_is_identity(self):
        adc = ADC()
        codes = np.array([-8192, -1, 0, 1, 8191], dtype=np.int64)
        np.testing.assert_array_equal(adc.apply_stuck_mask(codes, 0), codes)
        assert adc.apply_stuck_mask_scalar(-123, 0) == -123

    def test_stuck_msb_flips_positive_codes_negative(self):
        adc = ADC()
        out = adc.apply_stuck_mask(np.array([1, 100], dtype=np.int64), 1 << 13)
        assert np.all(out < 0)

    def test_scalar_matches_vector(self):
        adc = ADC()
        codes = np.arange(-8192, 8192, 17, dtype=np.int64)
        mask = (1 << 3) | (1 << 9)
        vec = adc.apply_stuck_mask(codes, mask)
        assert all(
            adc.apply_stuck_mask_scalar(int(c), mask) == int(v)
            for c, v in zip(codes, vec)
        )


class TestBitIdentity:
    """Zero-impact contracts: disarmed and armed-inactive runs."""

    DURATION = 0.004

    def test_armed_inactive_scalar_run_is_bit_identical(self):
        clean = CavityInTheLoop(mde.bench_config()).run(self.DURATION)
        late = tuple(
            _spec(kind=k, magnitude=1.0 if k is not FaultKind.CAVITY_FAILURE else 0.5,
                  onset=10.0)
            for k in (FaultKind.CAVITY_FAILURE, FaultKind.ADC_STUCK_BIT)
        )
        armed = CavityInTheLoop(mde.bench_config(faults=late)).run(self.DURATION)
        np.testing.assert_array_equal(
            np.asarray(armed.phase_deg), np.asarray(clean.phase_deg)
        )

    def test_batched_fault_isolated_to_target_lane(self):
        clean = CavityInTheLoop(_batch_config(4)).run(self.DURATION)
        specs = (
            _spec(magnitude=0.5, onset=0.001, target=2),
            _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=8.0, onset=0.001,
                  target=2),
        )
        faulted = CavityInTheLoop(_batch_config(4, faults=specs)).run(
            self.DURATION
        )
        for lane in (0, 1, 3):
            np.testing.assert_array_equal(
                faulted.phase_deg[:, lane], clean.phase_deg[:, lane]
            )
        assert not np.array_equal(faulted.phase_deg[:, 2], clean.phase_deg[:, 2])

    def test_fault_actually_perturbs_scalar_run(self):
        clean = CavityInTheLoop(mde.bench_config()).run(self.DURATION)
        spec = _spec(kind=FaultKind.DDS_PHASE_GLITCH, magnitude=0.3, onset=0.001)
        faulted = CavityInTheLoop(mde.bench_config(faults=(spec,))).run(
            self.DURATION
        )
        assert not np.array_equal(
            np.asarray(faulted.phase_deg), np.asarray(clean.phase_deg)
        )


class TestEngineParityUnderFault:
    def test_cgra_tiers_bit_exact_with_faults(self):
        """Faults act in the sensor handlers every engine shares, so the
        compiled engine (a one-lane batched bench) stays bit-exact with
        the interpreter (the scalar CGRA bench) under injection."""
        specs = (
            _spec(magnitude=0.4, onset=0.0005, duration=0.001),
            _spec(kind=FaultKind.ADC_STUCK_BIT, magnitude=6.0, onset=0.001),
        )
        scalar = CavityInTheLoop(
            mde.bench_config(engine="cgra", precision="single", record_every=1,
                             faults=specs)
        ).run(0.003)
        batched = CavityInTheLoop(
            _batch_config(1, faults=specs, record_every=1)
        ).run(0.003)
        assert len(scalar.time) == 2401
        for name in ("time", "phase_deg", "correction_deg", "jump_deg",
                     "delta_t", "delta_t_all", "gamma_ref"):
            want = np.asarray(getattr(scalar, name))
            got = getattr(batched, name)
            np.testing.assert_array_equal(got if name == "time" else got[:, 0], want)

    def test_python_and_cgra_close_with_faults(self):
        """python vs cgra keep their usual 1e-9 parity under a smooth
        (non-quantising) fault; the stuck-bit OR is excluded because its
        code thresholds amplify ulp-level engine differences."""
        specs = (_spec(magnitude=0.4, onset=0.0005, duration=0.001),)
        runs = {
            engine: CavityInTheLoop(
                mde.bench_config(engine=engine, faults=specs)
            ).run(0.003)
            for engine in ("python", "cgra")
        }
        np.testing.assert_allclose(
            np.asarray(runs["cgra"].phase_deg),
            np.asarray(runs["python"].phase_deg),
            atol=1e-9,
        )


class TestContextCorruption:
    def test_corruption_is_detected_by_the_verifier(self):
        from repro.cgra import verify_context_images
        from repro.cgra.models import compile_beam_model

        model = compile_beam_model()
        assert verify_context_images(
            model.images, model.graph, model.schedule.fabric
        ).ok
        corrupted, (pe, index) = corrupt_context_images(model.images, 5)
        report = verify_context_images(
            corrupted, model.graph, model.schedule.fabric
        )
        assert not report.ok
        # Input untouched; exactly one entry differs in the copy.
        assert corrupted[pe].entries[index] != model.images[pe].entries[index]
        diffs = sum(
            a != b
            for p in model.images
            for a, b in zip(model.images[p].entries, corrupted[p].entries)
        )
        assert diffs == 1

    def test_slot_wraps_modulo_entry_count(self):
        from repro.cgra.models import compile_beam_model

        images = compile_beam_model().images
        n = sum(len(img.entries) for img in images.values())
        _, hit_0 = corrupt_context_images(images, 0)
        _, hit_n = corrupt_context_images(images, n)
        assert hit_0 == hit_n

    def test_empty_images_raise(self):
        with pytest.raises(FaultSpecError, match="empty"):
            corrupt_context_images({}, 0)

    def test_context_kind_never_reaches_loop_channels(self):
        spec = FaultSpec(
            kind=FaultKind.CGRA_CONTEXT_CORRUPTION, magnitude=3.0,
            onset_time=0.0,
        )
        p = FaultProgram([spec])
        p.update(1.0)
        assert not p.active
        assert spec.kind not in LOOP_KINDS

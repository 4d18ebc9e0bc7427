"""The complete cavity-in-the-loop bench (paper Fig. 4).

:class:`CavityInTheLoop` assembles the whole experiment: synchronised
DDS signals (reference at f_R, gap at h·f_R), the AWG phase-jump drive,
the beam model compiled onto the CGRA, the DSP phase detector and the
beam-phase control loop closing the loop on the gap phase.

It is one bench with two host maths.  ``HilConfig.jump_deg`` picks
which: a float runs one closed loop, a tuple runs one lockstep lane per
entry.  Every other field means the same in both, and the RF
calibration, ADC and fault wiring, model compile, deadline monitor, bus
wiring, executor parameters, records and telemetry are written once.
Only the per-revolution host work differs:

* **one loop** — Python floats, ``math.sin`` and
  :class:`~repro.control.BeamPhaseControlLoop` on a
  :class:`~repro.cgra.sensor.SensorBus`, driving either engine:

  - ``engine="python"`` — the step the compiled engine generates from
    the schedule (:class:`~repro.cgra.engine.BatchedCgraExecutor` on a
    scalar bus): Python floats at ``"double"``, float32 NumPy scalars at
    ``"single"``; used for second-scale Fig.-5 runs.  A property test
    pins it to the interpreter bit for bit at both precisions.
  - ``engine="cgra"`` — the cycle-accurate interpreter
    (:class:`~repro.cgra.executor.CgraExecutor`, the bit-exactness
    oracle), at interpreter speed.

* **lanes** — ``[B]`` arrays, ``np.sin`` and an array mirror of the
  control filter on a :class:`~repro.cgra.sensor.BatchSensorBus`,
  driving the generated step: one compiled iteration advances every
  lane, so sweeps and the fault campaign pay one engine iteration per
  revolution instead of ``B``.  Lane-uniform reads (the period and the
  reference buffer) stay scalars, so the reference particle's share of
  the model runs as NumPy-scalar arithmetic.  Each lane matches a
  one-loop run with its jump amplitude bit for bit wherever ``np.sin``
  and ``math.sin`` round alike (see docs/PERFORMANCE.md).

Both maths stay because a one-lane batch costs about five times a
host-float revolution.

The model exists once, as the C source of
:func:`~repro.cgra.models.beam_model_source`; every engine executes its
schedule, one iteration per revolution, against the same analytic
(optionally ADC-quantised) sensor handlers, at ``HilConfig.precision``.

Real-time accounting: the CGRA model is compiled either way, and the
:class:`~repro.hil.realtime.DeadlineMonitor` checks its schedule length
against the revolution period on every revolution, recording the slack.
Wall-clock Python time is *not* the real-time claim — see DESIGN.md §5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cgra.engine import BatchedCgraExecutor
from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig
from repro.cgra.models import CompiledModel, compile_beam_model
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
    BatchSensorBus,
    SensorBus,
)
from repro.constants import TWO_PI, deg_to_rad
from repro.control import BeamPhaseControlLoop, ControlLoopConfig
from repro.errors import ConfigurationError, HilError
from repro.faults.spec import FaultSpec
from repro.hil.realtime import DeadlineMonitor, JitterStats
from repro.hil.scenario import BENCH_ADC_BITS, check_scenario
from repro.obs import get_registry, get_tracer, record_hil_run
from repro.obs._state import STATE as _OBS
from repro.physics.ion import IonSpecies
from repro.physics.rf import RFSystem, voltage_for_synchrotron_frequency
from repro.physics.ring import SynchrotronRing
from repro.signal.adc import ADC
from repro.signal.awg import PhaseJumpPattern
from repro.signal.filters import moving_average
from repro.signal.fir import PhaseControlFilter

__all__ = ["HilConfig", "HilRunResult", "CavityInTheLoop"]

#: Shared with the framework path (get-or-create by name).
_HIL_ITERATIONS = get_registry().counter(
    "hil_iterations_total", "HIL model iterations run"
)
_LANE_ITERATIONS = get_registry().counter(
    "hil_lane_iterations_total", "batched HIL lane-iterations run (iterations x lanes)"
)


@dataclass(frozen=True)
class HilConfig:
    """Configuration of a cavity-in-the-loop run.

    Defaults reproduce the paper's evaluation scenario: SIS18 parameters
    are supplied by the caller (see :mod:`repro.experiments.mde` for the
    exact MDE configuration: ¹⁴N⁷⁺, f_ref = 800 kHz, h = 4, f_s ≈
    1.28 kHz, 8° jumps every 0.05 s).
    """

    ring: SynchrotronRing
    ion: IonSpecies
    harmonic: int = 4
    revolution_frequency: float = 800e3
    #: Target small-amplitude synchrotron frequency; the gap-voltage
    #: amplitude is derived from it ("the input voltage amplitude was
    #: adjusted to achieve a similar synchrotron frequency of 1.28 kHz").
    synchrotron_frequency: float = 1.28e3
    #: Phase jump amplitude in degrees (8° bench / 10° machine).  A tuple
    #: runs one lockstep lane per entry; its length is the batch size.
    jump_deg: float | tuple[float, ...] = 8.0
    #: Jump toggle period in seconds ("every twentieth of a second").
    jump_toggle_period: float = 0.05
    #: First toggle instant.
    jump_start_time: float = 0.005
    control: ControlLoopConfig | None = None
    n_bunches: int = 1
    #: ``"python"``: the step generated from the compiled schedule;
    #: ``"cgra"``: the cycle-accurate interpreter, one loop only.  At one
    #: precision the two are bit-identical.  Lanes always run the
    #: generated step.
    engine: str = "python"
    #: Arithmetic of every model op: ``"single"`` rounds each to binary32
    #: like the overlay's FP cores, ``"double"`` computes in binary64.
    precision: str = "single"
    pipelined: bool = True
    cgra_config: CgraConfig = field(default_factory=CgraConfig)
    #: Model the 14-bit ADC quantisation of the sensed voltages.
    quantize_adc: bool = True
    #: DDS amplitude at the ADC input, volts (2 Vpp limit ⇒ ≤ 1.0).
    adc_amplitude: float = 0.9
    #: Record every N-th revolution.
    record_every: int = 1
    #: Dual-harmonic amplitude ratio r = V̂₂/V̂₁ (counter-phase second
    #: harmonic at 2h·f_R, paper ref. [9]'s cavity system).  0 = single
    #: harmonic.  Must stay below 0.5 so the bucket keeps a defined
    #: small-amplitude synchrotron frequency to calibrate against; the
    #: fundamental amplitude is raised by 1/(1−2r) to keep f_s on target.
    dual_harmonic_ratio: float = 0.0
    #: Per-bunch initial arrival offsets in seconds (injection errors),
    #: the same in every lane; None = all bunches start on their zero
    #: crossings.  Length must equal ``n_bunches``.
    initial_delta_t: tuple[float, ...] | None = None
    #: What the DSP feeds the control loop when several bunches are
    #: simulated: the first bunch ("bunch0") or the average dipole phase
    #: across all bunches ("mean") — the multi-bunch LLRF behaviour.
    control_source: str = "bunch0"
    #: Faults to arm for this run (see :mod:`repro.faults.inject`); each
    #: loop fault's ``target`` selects its lane: 0 on one loop, below the
    #: batch size on lanes.  The empty default arms nothing, and the
    #: bench then carries no injection state at all.
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.engine not in ("python", "cgra"):
            raise ConfigurationError(f"engine must be 'python' or 'cgra', got {self.engine!r}")
        if isinstance(self.jump_deg, tuple):
            if not self.jump_deg:
                raise ConfigurationError("jump_deg needs at least one lane")
            if self.engine == "cgra":
                raise ConfigurationError(
                    "lanes run the generated step; engine='cgra' needs a float jump_deg"
                )
        check_scenario(self)
        if not 0.0 <= self.dual_harmonic_ratio < 0.5:
            raise ConfigurationError(
                "dual_harmonic_ratio must be in [0, 0.5); the flat bucket "
                "(0.5) has no small-amplitude f_s to calibrate against"
            )
        if self.initial_delta_t is not None and len(self.initial_delta_t) != self.n_bunches:
            raise ConfigurationError(
                f"initial_delta_t needs {self.n_bunches} entries, "
                f"got {len(self.initial_delta_t)}"
            )

    @property
    def batch(self) -> int | None:
        """Number of lanes, or None for one closed loop."""
        return len(self.jump_deg) if isinstance(self.jump_deg, tuple) else None


@dataclass
class HilRunResult:
    """Recorded traces of one bench run (decimated by ``record_every``).

    A lane run's arrays carry the lane axis after the record axis.
    ``time``, ``correction_deg``, ``delta_t_all`` and ``gamma_ref`` are
    written per record; ``delta_t`` (a view of ``delta_t_all``'s bunch
    0), ``phase_deg`` and ``jump_deg`` are derived from them after the
    run, each one elementwise op that matches the per-turn expression
    bit for bit.
    """

    #: Machine time of each record, seconds — shape (n_records,).
    time: np.ndarray
    #: DSP phase difference beam-vs-reference, degrees at h·f_R.
    phase_deg: np.ndarray
    #: Control-loop correction applied to the gap phase, degrees.
    correction_deg: np.ndarray
    #: Commanded jump drive at each record, degrees.
    jump_deg: np.ndarray
    #: Arrival-time offset of bunch 0, seconds.
    delta_t: np.ndarray
    #: Arrival-time offsets of every bunch: (n_records, n_bunches), or
    #: (n_records, B, n_bunches) on lanes.
    delta_t_all: np.ndarray
    #: Reference Lorentz factor trace.
    gamma_ref: np.ndarray
    #: Real-time slack statistics of the run.
    deadline: JitterStats
    #: Schedule length of the compiled model, CGRA ticks.
    schedule_length: int
    #: Engine that produced the run: ``"python"``, ``"cgra"`` or
    #: ``"batched"`` (lanes).
    engine: str
    #: Lanes the run advanced (1 for one loop).
    batch: int
    #: Revolutions the run stepped (the records also hold the initial
    #: state, so ``len(time)`` is ``n_turns // record_every + 1``).
    n_turns: int

    def phase_deg_smoothed(self, width: int = 5) -> np.ndarray:
        """Fig. 5a's display filter: width-5 moving average of a one-loop
        trace (smooth a lane run one ``phase_deg[:, lane]`` at a time)."""
        return moving_average(self.phase_deg, width)

    def phase_deg_bunch(self, bunch: int, harmonic: int, f_rev: float) -> np.ndarray:
        """DSP phase trace of one specific bunch (degrees at h·f_R)."""
        return -360.0 * harmonic * f_rev * self.delta_t_all[..., bunch]


class _SignalChain:
    """The bench's DDS reference and gap signals as the 14-bit ADC
    digitises them, in host floats: the addressed sensor handlers of one
    closed loop.

    Kept apart from the bench so the sensor bus holds no reference back
    to it: a bench → executor → bus → bench cycle would keep every
    finished bench, and its per-revolution deadline record, alive until
    the cyclic garbage collector ran.
    """

    def __init__(self, config: HilConfig, f_rev: float, adc: ADC, faults) -> None:
        self.quantize_adc = config.quantize_adc
        self.adc_amplitude = config.adc_amplitude
        self.dh_ratio = config.dual_harmonic_ratio
        self.dh_headroom = 1.0 + self.dh_ratio
        # Angular frequencies of the reference and gap DDS signals.
        self.w_ref = TWO_PI * f_rev
        self.w_gap = TWO_PI * config.harmonic * f_rev
        self.adc = adc
        self.faults = faults
        #: Commanded gap phase of the current revolution, radians.
        self.gap_phase_rad = 0.0

    def _maybe_quantize(self, adc_volts: float) -> float:
        if not self.quantize_adc:
            return adc_volts
        return self.adc.quantize_scalar(adc_volts)

    def ref_adc_voltage(self, addr_samples: float) -> float:
        """Reference-buffer read: undisturbed sine at f_R, ADC volts.

        Deliberately fault-free: the reference leg doubles as the
        synchronous-energy bookkeeping (``gamma_r += q/mc² · v_r``), so
        all signal-chain faults act on the gap leg (see
        :mod:`repro.faults.inject`).
        """
        t = addr_samples / 250e6
        v = self.adc_amplitude * math.sin(self.w_ref * t)
        return self._maybe_quantize(v)

    def gap_adc_voltage(self, addr_samples: float) -> float:
        """Gap-buffer read: (dual-)harmonic signal with the commanded phase."""
        t = addr_samples / 250e6
        base = self.w_gap * t + self.gap_phase_rad
        f = self.faults
        if f is not None and f.active:
            return self._faulted_gap_voltage(base, f)
        if self.dh_ratio:
            v = (self.adc_amplitude / self.dh_headroom) * (
                math.sin(base) - self.dh_ratio * math.sin(2.0 * base)
            )
        else:
            v = self.adc_amplitude * math.sin(base)
        return self._maybe_quantize(v)

    def _faulted_gap_voltage(self, base: float, f) -> float:
        """Gap transfer with the active fault channels folded in.

        Same physics as the clean branch plus phase offset, gradient
        loss, clip level and stuck ADC bits; a stuck bit acts on output
        *codes*, so it forces the conversion even with ``quantize_adc``
        off (the fault is defined in the code domain).
        """
        base += f.gap_phase
        if self.dh_ratio:
            v = (self.adc_amplitude / self.dh_headroom) * (
                math.sin(base) - self.dh_ratio * math.sin(2.0 * base)
            )
        else:
            v = self.adc_amplitude * math.sin(base)
        v *= f.gap_gain
        clip = f.gap_clip
        if v > clip:
            v = clip
        elif v < -clip:
            v = -clip
        if f.stuck_any:
            code = self.adc.apply_stuck_mask_scalar(self.adc.convert_scalar(v), f.stuck_mask)
            return code * self.adc.lsb
        return self._maybe_quantize(v)


class _LaneSignalChain(_SignalChain):
    """:class:`_SignalChain` for lockstep lanes: the gap read is a
    ``[B]`` array through ``np.sin``, with per-lane fault channels; the
    reference read of a lane-uniform address stays a scalar.
    """

    def __init__(self, config: HilConfig, f_rev: float, adc: ADC, faults, lanes: int) -> None:
        super().__init__(config, f_rev, adc, faults)
        self.gap_phase_rad = np.zeros(lanes)
        # Per-run scalars that meet a lane array every turn, as [B]
        # arrays: at B = 8 an array-array ufunc is ~40 % cheaper than the
        # same op with a Python-float operand.  Each array holds the
        # float the scalar expression evaluates to, so every product
        # stays bit-identical.
        self._gap_omega = np.full(lanes, self.w_gap)
        self._sample_rate = np.full(lanes, 250e6)
        self._amplitude = np.full(lanes, self.adc_amplitude)

    def _maybe_quantize(self, adc_volts):
        if not self.quantize_adc:
            return adc_volts
        if adc_volts.ndim == 0:
            return self.adc.quantize_scalar(adc_volts)
        return self.adc.quantize(adc_volts)

    def ref_adc_voltage(self, addr_samples):
        """Reference-buffer read, as :meth:`_SignalChain.ref_adc_voltage`:
        the reference particle is shared by every lane, so the address —
        and the reading — is a lane-uniform scalar."""
        t = addr_samples / 250e6
        v = self.adc_amplitude * np.sin(self.w_ref * t)
        return self._maybe_quantize(v)

    def gap_adc_voltage(self, addr_samples) -> np.ndarray:
        """Gap-buffer read, one value per lane.

        Returns a fresh array: at ``precision="double"`` the engine keeps
        a float64 read as is (``np.float64(arr) is arr``), so a buffer
        owned here would alias into the register file.
        """
        base = self._gap_omega * (addr_samples / self._sample_rate) + self.gap_phase_rad
        f = self.faults
        if f is not None and f.active:
            # Per-lane fault channels; unfaulted lanes carry neutral
            # elements (+0.0, x1.0, clip at inf, mask 0), which are
            # bitwise no-ops, so co-resident lanes are undisturbed.
            v = self._wave(base + f.gap_phase) * f.gap_gain
            v = np.minimum(np.maximum(v, -f.gap_clip), f.gap_clip)
            if f.stuck_any:
                codes = self.adc.apply_stuck_mask(self.adc.convert(v), f.stuck_mask)
                return self.adc.codes_to_volts(codes)
            return self._maybe_quantize(v)
        return self._maybe_quantize(self._wave(base))

    def _wave(self, base: np.ndarray) -> np.ndarray:
        """The one-loop chain's (dual-)harmonic gap formula, per lane."""
        if self.dh_ratio:
            return (self.adc_amplitude / self.dh_headroom) * (
                np.sin(base) - self.dh_ratio * np.sin(2.0 * base)
            )
        return self._amplitude * np.sin(base)


class _VectorControlLoop:
    """Array-valued mirror of :class:`repro.control.BeamPhaseControlLoop`.

    Runs B independent control filters in lockstep: identical recurrence,
    decimation, enable and saturation semantics, with ``saturation_count``
    totalled across lanes.
    """

    def __init__(self, config: ControlLoopConfig, batch: int) -> None:
        self.config = config
        # Reuse the scalar filter's normalisation math (r, g·C), held as
        # [B] arrays like the bench's per-run constants.
        template = PhaseControlFilter(
            f_pass=config.f_pass,
            gain=config.gain * config.gain_scale,
            recursion_factor=config.recursion_factor,
            sample_rate=config.sample_rate / config.update_divider,
        )
        self._r = np.full(batch, template.recursion_factor)
        self._gc = np.full(batch, template.gain * template._c)
        limit = config.saturation_deg
        self._limit = None if limit is None else np.full(batch, limit)
        self._neg_limit = None if limit is None else np.full(batch, -limit)
        self._x_prev = np.zeros(batch)
        self._y_prev = np.zeros(batch)
        self._tick = 0
        self._last_output = np.zeros(batch)
        self.saturation_count = 0

    @property
    def last_output_deg(self) -> np.ndarray:
        """Most recent per-lane correction, degrees — shape (B,)."""
        return self._last_output

    def update(self, measured_phase_deg: np.ndarray) -> np.ndarray:
        """Feed one phase measurement per lane; returns the corrections."""
        if not self.config.enabled:
            self._last_output = np.zeros_like(self._last_output)
            return self._last_output
        run_now = (self._tick % self.config.update_divider) == 0
        self._tick += 1
        if not run_now:
            return self._last_output
        # The scalar filter's r*y_prev + g·C*(x - x_prev), op for op.
        x = measured_phase_deg
        u = self._r * self._y_prev + self._gc * (x - self._x_prev)
        self._x_prev[...] = x
        # y_prev feeds back the *unclipped* output, matching the scalar loop.
        self._y_prev[...] = u
        limit = self._limit
        if limit is not None:
            saturated = int(np.count_nonzero(np.abs(u) > limit))
            if saturated:
                self.saturation_count += saturated
                # np.clip's transfer (NaN passes) without its wrapper.
                u = np.minimum(np.maximum(u, self._neg_limit), limit)
        self._last_output = u
        return u


class CavityInTheLoop:
    """The closed-loop HIL bench: one loop, or B lockstep lanes.

    Build it from a :class:`HilConfig`, then :meth:`run` a time span.
    The gap-voltage amplitude, the per-revolution model parameters and
    the control loop are derived exactly as in the evaluation section of
    the paper.  The DSP phase detector reads bunch 0, or the average
    dipole phase of all bunches (``control_source="mean"``), in degrees
    at h·f_R.  Polarity: a +x° gap phase jump settles at a +x° reading
    (the Fig. 5 convention) — see :mod:`repro.control.beam_phase_loop`
    for the sign derivation.
    """

    def __init__(self, config: HilConfig) -> None:
        self.config = config
        lanes = config.batch
        #: Lanes advanced per revolution (1 for one loop).
        self.batch = lanes or 1
        ring, ion = config.ring, config.ion
        self.f_rev = config.revolution_frequency
        self.gamma0 = ring.gamma_from_revolution_frequency(self.f_rev)
        probe = RFSystem(harmonic=config.harmonic, voltage=1.0)
        single_equivalent = voltage_for_synchrotron_frequency(
            ring, ion, probe, self.gamma0, config.synchrotron_frequency
        )
        # Dual-harmonic: the effective centre slope is (1 - 2r)·V̂₁ω, so
        # the fundamental is raised to keep the calibrated f_s.
        dh_ratio = config.dual_harmonic_ratio
        self.gap_voltage_amplitude = single_equivalent / (1.0 - 2.0 * dh_ratio)
        self.rf = probe.with_voltage(self.gap_voltage_amplitude)
        control_cfg = config.control or ControlLoopConfig(sample_rate=self.f_rev)
        control_cfg.check_revolution_frequency(self.f_rev)

        #: ADC volts ↔ gap volts calibration (the bench scales kV-scale
        #: gap voltages into the 2 Vpp ADC range).  The dual-harmonic sum
        #: peaks at up to (1 + r)·V̂₁, so the ADC-side signal is shrunk by
        #: (1 + r) to stay inside the rails and the scale grows to match.
        self.gap_scale = (
            self.gap_voltage_amplitude * (1.0 + dh_ratio) / config.adc_amplitude
        )
        self.ref_scale = config.harmonic * self.gap_voltage_amplitude * (
            1.0 - 2.0 * dh_ratio
        ) / config.adc_amplitude
        self._adc = ADC(bits=BENCH_ADC_BITS, vpp=2.0, sample_rate=250e6)

        # Fault injection: unfaulted benches keep self._faults is None,
        # so the hot path pays exactly one None check per revolution.
        if config.faults:
            from repro.faults.inject import FaultProgram
            from repro.signal.dac import DAC

            self._faults = FaultProgram(
                config.faults,
                batch=lanes,
                adc_bits=self._adc.bits,
                dac_full_scale=DAC(bits=16, vpp=2.0).full_scale,
            )
        else:
            self._faults = None

        #: Phase-detector scale: degrees at h·f_R per second of Δt.
        deg_per_s = -360.0 * config.harmonic * self.f_rev
        if lanes is None:
            self.jump = PhaseJumpPattern(
                jump_deg=config.jump_deg,
                toggle_period=config.jump_toggle_period,
                start_time=config.jump_start_time,
            )
            self.control = BeamPhaseControlLoop(control_cfg)
            self._signals = _SignalChain(config, self.f_rev, self._adc, self._faults)
            self._deg_per_s = deg_per_s
        else:
            # One unit drive, scaled per lane.
            self.jump = PhaseJumpPattern(
                jump_deg=1.0,
                toggle_period=config.jump_toggle_period,
                start_time=config.jump_start_time,
            )
            self._jump_amps = np.asarray(config.jump_deg, dtype=float)
            self.control = _VectorControlLoop(control_cfg, lanes)
            self._signals = _LaneSignalChain(config, self.f_rev, self._adc, self._faults, lanes)
            self._deg_per_s = np.full(lanes, deg_per_s)

        self.model: CompiledModel = compile_beam_model(
            n_bunches=config.n_bunches,
            pipelined=config.pipelined,
            config=config.cgra_config,
        )
        self.deadline = DeadlineMonitor(
            self.model.schedule_length,
            cgra_clock_hz=config.cgra_config.clock_mhz * 1e6,
        )

        self._t_rev = 1.0 / self.f_rev

        # Mutable run state:
        self._time = 0.0
        self._turn = 0
        self._delta_t = np.zeros(
            (config.n_bunches,) if lanes is None else (lanes, config.n_bunches)
        )
        self._executor = self._build_executor()
        for i, value in enumerate(config.initial_delta_t or ()):
            self._executor.set_register(f"dt[{i}]", value)
            self._delta_t[..., i] = value

    # -- engine plumbing -------------------------------------------------

    def _build_executor(self) -> CgraExecutor | BatchedCgraExecutor:
        lanes = self.config.batch
        if lanes is None:
            bus = SensorBus()
            t_rev = self._t_rev
        else:
            bus = BatchSensorBus(lanes)
            # Lane-uniform: ring, ion and f_R are config-level, so the
            # period (and the reference particle computed from it) stays
            # scalar.
            t_rev = np.float64(self._t_rev)
        bus.register_reader(SENSOR_PERIOD, lambda: t_rev)
        bus.register_addr_reader(SENSOR_REF_BUFFER, self._signals.ref_adc_voltage)
        bus.register_addr_reader(SENSOR_GAP_BUFFER, self._signals.gap_adc_voltage)
        for i in range(self.config.n_bunches):
            def writer(value, column: np.ndarray = self._delta_t[..., i]) -> None:
                column[...] = value
            bus.register_writer(ACTUATOR_DELTA_T + i, writer)
        params = self.model.default_params(
            gamma_r0=self.gamma0,
            q_over_mc2=self.config.ion.gamma_gain_per_volt(),
            orbit_length=self.config.ring.circumference,
            alpha_c=self.config.ring.alpha_c,
            v_scale=self.gap_scale,
            v_scale_ref=self.ref_scale,
            f_sample=250e6,
            harmonic=self.config.harmonic,
        )
        engine = CgraExecutor if self.config.engine == "cgra" else BatchedCgraExecutor
        return engine(self.model.schedule, bus, params, precision=self.config.precision)

    # -- the loop ---------------------------------------------------------

    def _loop_turn(self, record, rec_every: int):
        """``pre``/``post`` of one closed loop, in host floats."""
        check_revolution = self.deadline.check_revolution
        t_rev = self._t_rev
        signals, control, faults, jump = self._signals, self.control, self._faults, self.jump
        delta_t, deg_per_s = self._delta_t, self._deg_per_s
        mean = self.config.control_source == "mean"

        def pre(i: int) -> None:
            check_revolution(t_rev)
            if faults is not None:
                faults.update(self._time)
            # Gap phase for this revolution: AWG drive + control correction.
            jump_rad = float(jump.phase_rad_at(self._time))
            signals.gap_phase_rad = jump_rad + deg_to_rad(control.last_output_deg)

        def post(i: int) -> None:
            dt = float(delta_t.mean()) if mean else float(delta_t[0])
            control.update(deg_per_s * dt)
            self._turn += 1
            self._time += t_rev
            if (i + 1) % rec_every == 0:
                record()

        return pre, post

    def _lane_turn(self, record, rec_every: int):
        """``pre``/``post`` of lockstep lanes, on ``[B]`` arrays."""
        check_revolution = self.deadline.check_revolution
        t_rev = self._t_rev
        signals, control, faults, jump = self._signals, self.control, self._faults, self.jump
        amps, m = self._jump_amps, self._deg_per_s
        d2r = np.full(self.batch, math.pi / 180.0)
        # A persistent view: the actuator handlers write delta_t in place.
        delta_t = self._delta_t
        dt0 = delta_t[:, 0]
        mean = self.config.control_source == "mean"

        def pre(i: int) -> None:
            check_revolution(t_rev)
            if faults is not None:
                faults.update(self._time)
            signals.gap_phase_rad = (amps * jump.phase_rad_at(self._time)
                                     + control.last_output_deg * d2r)

        def post(i: int) -> None:
            control.update(m * delta_t.mean(axis=1) if mean else dt0 * m)
            self._turn += 1
            self._time += t_rev
            if (i + 1) % rec_every == 0:
                record()

        return pre, post

    def run(self, duration: float) -> HilRunResult:
        """Run the bench for ``duration`` seconds of machine time.

        Per revolution, ``pre`` checks the deadline and sets the gap
        phase, the beam model iterates once (emitting this revolution's
        Δt), and ``post`` runs the DSP measurement and control update and
        records.  The generated step runs them inside the compiled
        engine's callback loop (:meth:`BatchedCgraExecutor.run_driven`),
        under one errstate envelope; the interpreter is stepped one
        iteration at a time.  A record stores the time, the jump drive,
        the correction, every bunch's Δt and γ_R.
        """
        if not (math.isfinite(duration) and duration > 0):
            raise HilError(f"duration must be finite and positive, got {duration!r}")
        lanes = self.config.batch
        n_turns = int(round(duration * self.f_rev))
        rec_every = self.config.record_every
        n_rec = n_turns // rec_every + 1
        lane_axis = self._delta_t.shape[:-1]
        time = np.empty(n_rec)
        drive = np.empty(n_rec)
        corr = np.empty((n_rec, *lane_axis))
        dts_all = np.empty((n_rec, *self._delta_t.shape))
        gam = np.empty((n_rec, *lane_axis))
        idx = 0
        executor = self._executor
        interpreted = isinstance(executor, CgraExecutor)
        gamma_r = executor.register_of if interpreted else executor.register_view
        jump, control = self.jump, self.control

        def record() -> None:
            nonlocal idx
            time[idx] = self._time
            drive[idx] = jump.phase_deg_at(self._time)
            corr[idx] = control.last_output_deg
            dts_all[idx] = self._delta_t
            gam[idx] = gamma_r("gamma_r")
            idx += 1

        turn = self._loop_turn if lanes is None else self._lane_turn
        pre, post = turn(record, rec_every)
        # The labels stay per mode: goldens, docs and CI name them.
        if lanes is None:
            engine, span_name, owner = self.config.engine, "hil.run", "cavity_in_the_loop"
            span_attrs = dict(engine=engine)
        else:
            engine, span_name, owner = "batched", "hil.run_batched", "batched_cavity_in_the_loop"
            span_attrs = dict(batch=lanes)
        span_attrs.update(duration_s=duration, n_turns=n_turns)
        if self._faults is not None:
            span_attrs["fault"] = self._faults.label
        record()
        with get_tracer().span(span_name, **span_attrs):
            if interpreted:
                for i in range(n_turns):
                    pre(i)
                    executor.run_iteration()
                    post(i)
            else:
                executor.run_driven(n_turns, pre=pre, post=post)
        # The run's per-revolution telemetry, once (no-ops while disabled).
        self.deadline.publish()
        self._adc.publish()
        if lanes is None:
            self.control.publish()
        if interpreted:
            executor.publish()
        # allow_empty guards the degenerate sub-revolution duration
        # (n_turns == 0): well-defined empty stats, not a crash.
        stats = self.deadline.stats(allow_empty=True)
        if _OBS.enabled:
            _HIL_ITERATIONS.inc(n_turns, engine=engine)
            extras = dict(duration_s=duration, f_rev_hz=self.f_rev)
            if lanes is not None:
                _LANE_ITERATIONS.inc(n_turns * lanes)
                extras["batch"] = lanes
            extras["control_saturations"] = self.control.saturation_count
            if self._faults is not None:
                extras["fault"] = self._faults.label
            record_hil_run(
                name=owner,
                stats=stats,
                schedule_length=self.model.schedule_length,
                engine=engine,
                **extras,
            )
        dts_all = dts_all[:idx]
        delta_t = dts_all[..., 0]
        mean = self.config.control_source == "mean"
        return HilRunResult(
            time=time[:idx],
            phase_deg=(dts_all.mean(axis=-1) if mean else delta_t) * self._deg_per_s,
            correction_deg=corr[:idx],
            jump_deg=drive[:idx] if lanes is None else drive[:idx, None] * self._jump_amps,
            delta_t=delta_t,
            delta_t_all=dts_all,
            gamma_ref=gam[:idx],
            deadline=stats,
            schedule_length=self.model.schedule_length,
            engine=engine,
            batch=self.batch,
            n_turns=n_turns,
        )

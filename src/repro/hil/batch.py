"""Batched closed-loop bench: B independent scenarios in lockstep.

One compiled CGRA program advances ``B`` independent closed-loop
scenarios simultaneously (:class:`repro.cgra.BatchedCgraExecutor` with
NumPy ``[B]`` array registers).  Every lane is a full Fig. 4 loop —
analytic DDS sensors, optional ADC quantisation, DSP phase detector and
the beam-phase control filter — but sensor reads, actuator writes and
the control update happen once per revolution for the whole batch, so
experiment sweeps (jump-amplitude scans, ablations, Monte-Carlo jitter
studies) pay one engine iteration per revolution instead of ``B``.

Per-lane semantics match :class:`repro.hil.simulator.CavityInTheLoop`
with ``engine="cgra"``, which runs the cycle-accurate interpreter: the
model math is bit-exact with it (the batch register file applies the
same per-op float32/float64 rounding elementwise), while the analytic
sensor handlers use NumPy transcendentals (``np.sin``) whose results may
differ from ``math.sin`` by the platform libm's ULP — lane traces
therefore agree with scalar runs to floating-point noise, not
necessarily bit-for-bit (see docs/PERFORMANCE.md).  A one-lane batch is
the compiled counterpart of a scalar CGRA bench.

The per-lane sweep variable is the phase-jump amplitude; ring, ion and
RF calibration are lane-uniform.  So are the period and reference-buffer
reads, which the sensor handlers answer with scalars: the reference
particle's share of the beam model then runs as NumPy-scalar arithmetic,
and only the per-lane bunch math pays for ``[B]`` arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cgra.engine import BatchedCgraExecutor
from repro.cgra.fabric import CgraConfig
from repro.cgra.models import CompiledModel, compile_beam_model
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
    BatchSensorBus,
)
from repro.constants import TWO_PI
from repro.control import ControlLoopConfig
from repro.errors import ConfigurationError, HilError
from repro.faults.spec import FaultSpec
from repro.hil.realtime import DeadlineMonitor, JitterStats
from repro.obs import get_registry, get_tracer, record_hil_run
from repro.obs._state import STATE as _OBS
from repro.physics.ion import IonSpecies
from repro.physics.rf import RFSystem, voltage_for_synchrotron_frequency
from repro.physics.ring import SynchrotronRing
from repro.signal.adc import ADC
from repro.signal.awg import PhaseJumpPattern
from repro.signal.fir import PhaseControlFilter

__all__ = ["BatchHilConfig", "BatchHilRunResult", "BatchedCavityInTheLoop"]

_HIL_ITERATIONS = get_registry().counter(
    "hil_iterations_total", "HIL model iterations run"
)
_LANE_ITERATIONS = get_registry().counter(
    "hil_lane_iterations_total", "batched HIL lane-iterations run (iterations x lanes)"
)


@dataclass(frozen=True)
class BatchHilConfig:
    """Configuration of a batched cavity-in-the-loop run.

    ``jump_deg`` holds one phase-jump amplitude per lane; its length is
    the batch size B.
    """

    ring: SynchrotronRing
    ion: IonSpecies
    #: Per-lane phase-jump amplitudes in degrees; length = batch size.
    jump_deg: tuple[float, ...]
    harmonic: int = 4
    revolution_frequency: float = 800e3
    synchrotron_frequency: float = 1.28e3
    jump_toggle_period: float = 0.05
    jump_start_time: float = 0.005
    control: ControlLoopConfig | None = None
    n_bunches: int = 1
    precision: str = "single"
    pipelined: bool = True
    cgra_config: CgraConfig = field(default_factory=CgraConfig)
    quantize_adc: bool = True
    adc_amplitude: float = 0.9
    record_every: int = 1
    #: Per-lane initial arrival offset (seconds), applied to every bunch
    #: of that lane; None = all lanes start on their zero crossings.
    initial_delta_t: tuple[float, ...] | None = None
    control_source: str = "bunch0"
    #: Faults to arm; each spec's ``target`` selects the lane it acts
    #: on (see :mod:`repro.faults.inject`).  The empty default also
    #: consults the session faults armed by the runner's ``--faults``
    #: flag.
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if len(self.jump_deg) < 1:
            raise ConfigurationError("jump_deg needs at least one lane")
        # NaN passes every sign check below, so finiteness comes first.
        for name in ("revolution_frequency", "synchrotron_frequency",
                     "jump_toggle_period", "jump_start_time"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("jump_deg", "initial_delta_t"):
            for lane, value in enumerate(getattr(self, name) or ()):
                if not math.isfinite(value):
                    raise ConfigurationError(
                        f"{name} of lane {lane} must be finite, got {value!r}"
                    )
        if self.harmonic < 1:
            raise ConfigurationError("harmonic must be >= 1")
        if self.n_bunches < 1 or self.n_bunches > self.harmonic:
            raise ConfigurationError("n_bunches must be in [1, harmonic]")
        if self.revolution_frequency <= 0:
            raise ConfigurationError("revolution_frequency must be positive")
        if self.synchrotron_frequency <= 0:
            raise ConfigurationError("synchrotron_frequency must be positive")
        if not 0 < self.adc_amplitude <= 1.0:
            raise ConfigurationError("adc_amplitude must be in (0, 1] volts")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if self.jump_toggle_period <= 0:
            raise ConfigurationError("jump_toggle_period must be positive")
        if self.initial_delta_t is not None and len(self.initial_delta_t) != len(self.jump_deg):
            raise ConfigurationError(
                f"initial_delta_t needs {len(self.jump_deg)} entries, "
                f"got {len(self.initial_delta_t)}"
            )
        if self.control_source not in ("bunch0", "mean"):
            raise ConfigurationError(
                f"control_source must be 'bunch0' or 'mean', got {self.control_source!r}"
            )
        for s in self.faults:
            if not isinstance(s, FaultSpec):
                raise ConfigurationError(
                    f"faults must be FaultSpec instances, got {type(s).__name__}"
                )

    @property
    def batch(self) -> int:
        """Number of lanes."""
        return len(self.jump_deg)


@dataclass
class BatchHilRunResult:
    """Recorded traces of one batched run (decimated by ``record_every``).

    Per-record arrays carry one column per lane.  ``time``,
    ``correction_deg``, ``delta_t_all`` and ``gamma_ref`` are written per
    record; ``delta_t``, ``phase_deg`` and ``jump_deg`` are derived from
    them after the run (see :meth:`BatchedCavityInTheLoop.run`).
    """

    #: Machine time of each record, seconds — shape (n_records,).
    time: np.ndarray
    #: DSP phase difference per lane, degrees at h·f_R — (n_records, B).
    phase_deg: np.ndarray
    #: Control correction per lane, degrees — (n_records, B).
    correction_deg: np.ndarray
    #: Commanded jump drive per lane, degrees — (n_records, B).
    jump_deg: np.ndarray
    #: Arrival-time offset of bunch 0 per lane, seconds — (n_records, B);
    #: a view of ``delta_t_all[..., 0]``.
    delta_t: np.ndarray
    #: All bunches — (n_records, B, n_bunches).
    delta_t_all: np.ndarray
    #: Reference Lorentz factor per lane — (n_records, B).
    gamma_ref: np.ndarray
    #: Real-time slack statistics of the run.
    deadline: JitterStats
    schedule_length: int
    batch: int
    #: Revolutions the run stepped (the records also hold the initial
    #: state, so ``len(time)`` is ``n_turns // record_every + 1``).
    n_turns: int


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


class BatchedCavityInTheLoop:
    """The Fig. 4 closed loop, B lanes per revolution."""

    def __init__(self, config: BatchHilConfig) -> None:
        self.config = config
        self.batch = config.batch
        ring, ion = config.ring, config.ion
        self.f_rev = config.revolution_frequency
        self.gamma0 = ring.gamma_from_revolution_frequency(self.f_rev)
        probe = RFSystem(harmonic=config.harmonic, voltage=1.0)
        self.gap_voltage_amplitude = voltage_for_synchrotron_frequency(
            ring, ion, probe, self.gamma0, config.synchrotron_frequency
        )
        self.rf = probe.with_voltage(self.gap_voltage_amplitude)
        self._jump_unit = PhaseJumpPattern(
            jump_deg=1.0,
            toggle_period=config.jump_toggle_period,
            start_time=config.jump_start_time,
        )
        self._jump_amps = np.asarray(config.jump_deg, dtype=float)
        control_cfg = config.control or ControlLoopConfig(sample_rate=self.f_rev)
        control_cfg.check_revolution_frequency(self.f_rev)
        self.control = _VectorControlLoop(control_cfg, self.batch)

        self.gap_scale = self.gap_voltage_amplitude / config.adc_amplitude
        self.ref_scale = config.harmonic * self.gap_voltage_amplitude / config.adc_amplitude
        self._adc = ADC(bits=14, vpp=2.0, sample_rate=250e6)

        # Per-run scalars that meet a lane array every turn, as [B]
        # arrays: at B = 8 an array-array ufunc is ~40 % cheaper than the
        # same op with a Python-float operand.  Each array holds the
        # float the scalar expression evaluates to (left to right, as
        # written), so every product stays bit-identical.
        lanes = self.batch
        self._phase_scale = np.full(lanes, -360.0 * config.harmonic * self.f_rev)
        self._deg_to_rad = np.full(lanes, math.pi / 180.0)
        self._sample_rate = np.full(lanes, 250e6)
        self._gap_omega = np.full(lanes, TWO_PI * config.harmonic * self.f_rev)
        self._adc_amplitude = np.full(lanes, config.adc_amplitude)

        # Fault injection (same contract as the scalar bench): per-lane
        # faults via each spec's target index, None when disarmed.
        faults = config.faults
        if not faults:
            from repro.faults.session import session_faults

            faults = session_faults()
        if faults:
            from repro.faults.inject import FaultProgram
            from repro.signal.dac import DAC

            self._faults = FaultProgram(
                faults,
                batch=self.batch,
                adc_bits=self._adc.bits,
                dac_full_scale=DAC(bits=16, vpp=2.0).full_scale,
            )
        else:
            self._faults = None

        self.model: CompiledModel = compile_beam_model(
            n_bunches=config.n_bunches,
            pipelined=config.pipelined,
            config=config.cgra_config,
        )
        self.deadline = DeadlineMonitor(
            self.model.schedule_length,
            cgra_clock_hz=config.cgra_config.clock_mhz * 1e6,
        )

        self._gap_phase_rad = np.zeros(self.batch)
        self._time = 0.0
        self._turn = 0
        self._delta_t = np.zeros((self.batch, config.n_bunches))
        self._executor = self._build_executor()
        if config.initial_delta_t is not None:
            initial = np.asarray(config.initial_delta_t, dtype=float)
            for i in range(config.n_bunches):
                self._executor.set_register(f"dt[{i}]", initial)
            self._delta_t[:] = initial[:, None]

    # -- engine plumbing -------------------------------------------------

    def _maybe_quantize(self, adc_volts):
        if not self.config.quantize_adc:
            return adc_volts
        if adc_volts.ndim == 0:
            return self._adc.quantize_scalar(adc_volts)
        return self._adc.quantize(adc_volts)

    def _ref_adc_voltage(self, addr_samples):
        """Reference-buffer read: undisturbed sine at f_R, ADC volts.

        Deliberately fault-free: the reference leg doubles as the
        synchronous-energy bookkeeping, so all signal-chain faults act
        on the gap leg (see :mod:`repro.faults.inject`).  The reference
        particle is shared by every lane, so the address — and the
        reading — is a lane-uniform scalar.
        """
        t = addr_samples / 250e6
        v = self.config.adc_amplitude * np.sin(TWO_PI * self.f_rev * t)
        return self._maybe_quantize(v)

    def _gap_adc_voltage(self, addr_samples) -> np.ndarray:
        """Gap-buffer read: harmonic signal with the commanded phase.

        Returns a fresh array: at ``precision="double"`` the engine keeps
        a float64 read as is (``np.float64(arr) is arr``), so a buffer
        owned here would alias into the register file.
        """
        base = self._gap_omega * (addr_samples / self._sample_rate) + self._gap_phase_rad
        f = self._faults
        if f is not None and f.active:
            # Per-lane fault channels; unfaulted lanes carry neutral
            # elements (+0.0, x1.0, clip at inf, mask 0), which are
            # bitwise no-ops, so co-resident lanes are undisturbed.
            v = self._adc_amplitude * np.sin(base + f.gap_phase) * f.gap_gain
            v = np.minimum(np.maximum(v, -f.gap_clip), f.gap_clip)
            if f.stuck_any:
                codes = self._adc.apply_stuck_mask(self._adc.convert(v), f.stuck_mask)
                return self._adc.codes_to_volts(codes)
            return self._maybe_quantize(v)
        return self._maybe_quantize(self._adc_amplitude * np.sin(base))

    def _build_executor(self) -> BatchedCgraExecutor:
        bus = BatchSensorBus(self.batch)
        # Lane-uniform: ring, ion and f_R are config-level, so the period
        # (and the reference particle computed from it) stays scalar.
        t_rev = np.float64(1.0 / self.f_rev)
        bus.register_reader(SENSOR_PERIOD, lambda: t_rev)
        bus.register_addr_reader(SENSOR_REF_BUFFER, self._ref_adc_voltage)
        bus.register_addr_reader(SENSOR_GAP_BUFFER, self._gap_adc_voltage)
        for i in range(self.config.n_bunches):
            def writer(value: np.ndarray, column: np.ndarray = self._delta_t[:, i]) -> None:
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
        return BatchedCgraExecutor(
            self.model.schedule, bus, params, precision=self.config.precision
        )

    # -- the loop ---------------------------------------------------------

    def measured_phase_deg(self) -> np.ndarray:
        """DSP phase detector reading per lane (degrees at h·f_R)."""
        if self.config.control_source == "mean":
            dt = self._delta_t.mean(axis=1)
        else:
            dt = self._delta_t[:, 0]
        return self._phase_scale * dt

    def run(self, duration: float) -> BatchHilRunResult:
        """Run all lanes for ``duration`` seconds of machine time.

        The revolutions run inside the batched engine's callback loop
        (:meth:`BatchedCgraExecutor.run_driven`): per turn, ``pre`` does
        the deadline check and the gap-phase update, the engine steps
        once, and ``post`` runs the control update, advances time and
        records.  One errstate/telemetry envelope covers the whole run.
        A record stores the time, the scalar jump drive, the correction,
        every bunch's Δt and γ_R; ``delta_t`` (a view of ``delta_t_all``'s
        bunch 0), ``phase_deg`` and ``jump_deg`` are derived from them
        after the run, each one elementwise op that matches the per-turn
        expression bit for bit.
        """
        if not (math.isfinite(duration) and duration > 0):
            raise HilError(f"duration must be finite and positive, got {duration!r}")
        n_turns = int(round(duration * self.f_rev))
        rec_every = self.config.record_every
        n_rec = n_turns // rec_every + 1
        B = self.batch
        time = np.empty(n_rec)
        drive = np.empty(n_rec)
        corr = np.empty((n_rec, B))
        dts_all = np.empty((n_rec, B, self.config.n_bunches))
        gam = np.empty((n_rec, B))
        idx = 0

        # Hot-loop constants.  ``dt0`` is a persistent view (the delta_t
        # buffer is written in place by the actuator handlers, never
        # rebound).
        m = self._phase_scale
        dt0 = self._delta_t[:, 0]
        use_bunch0 = self.config.control_source == "bunch0"
        amps = self._jump_amps
        ctrl = self.control
        jump_unit = self._jump_unit
        deadline = self.deadline
        faults = self._faults
        d2r = self._deg_to_rad
        t_rev = 1.0 / self.f_rev

        def record() -> None:
            nonlocal idx
            time[idx] = self._time
            drive[idx] = jump_unit.phase_deg_at(self._time)
            corr[idx] = ctrl.last_output_deg
            dts_all[idx] = self._delta_t
            gam[idx] = self._executor.register_view("gamma_r")
            idx += 1

        def pre(i: int) -> None:
            deadline.check_revolution(t_rev)
            if faults is not None:
                faults.update(self._time)
            self._gap_phase_rad = (amps * jump_unit.phase_rad_at(self._time)
                                   + ctrl.last_output_deg * d2r)

        def post(i: int) -> None:
            ctrl.update(dt0 * m if use_bunch0 else self.measured_phase_deg())
            self._turn += 1
            self._time += t_rev
            if (i + 1) % rec_every == 0:
                record()

        record()
        span_attrs = dict(batch=B, duration_s=duration, n_turns=n_turns)
        if faults is not None:
            span_attrs["fault"] = faults.label
        with get_tracer().span("hil.run_batched", **span_attrs):
            self._executor.run_driven(n_turns, pre=pre, post=post)
        # The run's per-revolution telemetry, once (no-ops while disabled).
        self.deadline.publish()
        self._adc.publish()
        stats = self.deadline.stats(allow_empty=True)
        if _OBS.enabled:
            _HIL_ITERATIONS.inc(n_turns, engine="batched")
            _LANE_ITERATIONS.inc(n_turns * B)
            extras = {}
            if self._faults is not None:
                extras["fault"] = self._faults.label
            record_hil_run(
                name="batched_cavity_in_the_loop",
                stats=stats,
                schedule_length=self.model.schedule_length,
                engine="batched",
                duration_s=duration,
                f_rev_hz=self.f_rev,
                batch=B,
                control_saturations=self.control.saturation_count,
                **extras,
            )
        dts_all = dts_all[:idx]
        delta_t = dts_all[..., 0]
        return BatchHilRunResult(
            time=time[:idx],
            phase_deg=(delta_t if use_bunch0 else dts_all.mean(axis=2)) * m,
            correction_deg=corr[:idx],
            jump_deg=drive[:idx, None] * amps,
            delta_t=delta_t,
            delta_t_all=dts_all,
            gamma_ref=gam[:idx],
            deadline=stats,
            schedule_length=self.model.schedule_length,
            batch=B,
            n_turns=n_turns,
        )

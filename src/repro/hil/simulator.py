"""The complete cavity-in-the-loop bench (paper Fig. 4).

:class:`CavityInTheLoop` assembles the whole experiment: synchronised
DDS signals (reference at f_R, gap at h·f_R), the AWG phase-jump drive,
the beam simulator (CGRA model or its bit-identical Python fast path),
the DSP phase detector and the beam-phase control loop closing the loop
on the gap phase.

Two engines share identical physics and calibration:

* ``engine="cgra"`` — every revolution runs one iteration of the
  compiled CGRA contexts on the cycle-accurate interpreter
  (:class:`~repro.cgra.executor.CgraExecutor`, the bit-exactness oracle)
  against analytic (optionally ADC-quantised) sensor handlers.  This is
  the reference implementation and validates the real hardware path, at
  interpreter speed; the compiled engine runs it through
  :class:`~repro.hil.batch.BatchedCavityInTheLoop`.
* ``engine="python"`` — the same model equations inlined in Python
  floats, ~100× faster; used for second-scale Fig.-5 runs.  A dedicated
  test pins both engines against each other turn by turn.

Real-time accounting: the CGRA model is compiled either way, its
schedule length is checked against the revolution period once per run
(the budget is time-invariant for a fixed f_R), and the per-revolution
:class:`~repro.hil.realtime.DeadlineMonitor` records slack.  Wall-clock
Python time is *not* the real-time claim — see DESIGN.md §5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cgra.executor import CgraExecutor
from repro.cgra.fabric import CgraConfig
from repro.cgra.models import CompiledModel, compile_beam_model
from repro.cgra.sensor import (
    ACTUATOR_DELTA_T,
    SENSOR_GAP_BUFFER,
    SENSOR_PERIOD,
    SENSOR_REF_BUFFER,
    SensorBus,
)
from repro.constants import SPEED_OF_LIGHT, TWO_PI, deg_to_rad
from repro.control import BeamPhaseControlLoop, ControlLoopConfig
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
from repro.signal.filters import moving_average

__all__ = ["HilConfig", "HilRunResult", "CavityInTheLoop"]

#: Shared with the framework path (get-or-create by name).
_HIL_ITERATIONS = get_registry().counter(
    "hil_iterations_total", "HIL model iterations run"
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
    #: Phase jump amplitude in degrees (8° bench / 10° machine).
    jump_deg: float = 8.0
    #: Jump toggle period in seconds ("every twentieth of a second").
    jump_toggle_period: float = 0.05
    #: First toggle instant.
    jump_start_time: float = 0.005
    control: ControlLoopConfig | None = None
    n_bunches: int = 1
    engine: str = "python"
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
    #: Per-bunch initial arrival offsets in seconds (injection errors);
    #: None = all bunches start on their zero crossings.  Length must
    #: equal ``n_bunches``.
    initial_delta_t: tuple[float, ...] | None = None
    #: What the DSP feeds the control loop when several bunches are
    #: simulated: the first bunch ("bunch0") or the average dipole phase
    #: across all bunches ("mean") — the multi-bunch LLRF behaviour.
    control_source: str = "bunch0"
    #: Faults to arm for this run (see :mod:`repro.faults.inject`).  The
    #: empty default also consults the session faults armed by the
    #: runner's ``--faults`` flag; benches with no faults armed carry no
    #: injection state at all.
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.engine not in ("python", "cgra"):
            raise ConfigurationError(f"engine must be 'python' or 'cgra', got {self.engine!r}")
        # NaN passes every sign check below, so finiteness comes first.
        for name in ("revolution_frequency", "synchrotron_frequency", "jump_deg",
                     "jump_toggle_period", "jump_start_time"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        for bunch, value in enumerate(self.initial_delta_t or ()):
            if not math.isfinite(value):
                raise ConfigurationError(
                    f"initial_delta_t of bunch {bunch} must be finite, got {value!r}"
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
        if self.control_source not in ("bunch0", "mean"):
            raise ConfigurationError(
                f"control_source must be 'bunch0' or 'mean', got {self.control_source!r}"
            )
        for s in self.faults:
            if not isinstance(s, FaultSpec):
                raise ConfigurationError(
                    f"faults must be FaultSpec instances, got {type(s).__name__}"
                )


@dataclass
class HilRunResult:
    """Recorded traces of one bench run (decimated by ``record_every``)."""

    #: Machine time of each record, seconds.
    time: np.ndarray
    #: DSP phase difference beam-vs-reference, degrees at h·f_R.
    phase_deg: np.ndarray
    #: Control-loop correction applied to the gap phase, degrees.
    correction_deg: np.ndarray
    #: Commanded jump drive at each record, degrees.
    jump_deg: np.ndarray
    #: Arrival-time offset of bunch 0, seconds.
    delta_t: np.ndarray
    #: Arrival-time offsets of every bunch, shape (n_records, n_bunches).
    delta_t_all: np.ndarray
    #: Reference Lorentz factor trace.
    gamma_ref: np.ndarray
    #: Real-time slack statistics of the run.
    deadline: JitterStats
    #: Schedule length of the compiled model, CGRA ticks.
    schedule_length: int
    #: Engine that produced the run.
    engine: str

    def phase_deg_smoothed(self, width: int = 5) -> np.ndarray:
        """Fig. 5a's display filter: width-5 moving average."""
        return moving_average(self.phase_deg, width)

    def phase_deg_bunch(self, bunch: int, harmonic: int, f_rev: float) -> np.ndarray:
        """DSP phase trace of one specific bunch (degrees at h·f_R)."""
        return -360.0 * harmonic * f_rev * self.delta_t_all[:, bunch]


class CavityInTheLoop:
    """The closed-loop HIL bench.

    Build it from a :class:`HilConfig`, then :meth:`run` a time span.
    The gap-voltage amplitude, the per-revolution model parameters and
    the control loop are derived exactly as in the evaluation section of
    the paper.
    """

    def __init__(self, config: HilConfig) -> None:
        self.config = config
        ring, ion = config.ring, config.ion
        self.f_rev = config.revolution_frequency
        self.gamma0 = ring.gamma_from_revolution_frequency(self.f_rev)
        probe = RFSystem(harmonic=config.harmonic, voltage=1.0)
        single_equivalent = voltage_for_synchrotron_frequency(
            ring, ion, probe, self.gamma0, config.synchrotron_frequency
        )
        # Dual-harmonic: the effective centre slope is (1 - 2r)·V̂₁ω, so
        # the fundamental is raised to keep the calibrated f_s.
        self._dh_ratio = config.dual_harmonic_ratio
        self.gap_voltage_amplitude = single_equivalent / (1.0 - 2.0 * self._dh_ratio)
        self.rf = probe.with_voltage(self.gap_voltage_amplitude)
        self.jump = PhaseJumpPattern(
            jump_deg=config.jump_deg,
            toggle_period=config.jump_toggle_period,
            start_time=config.jump_start_time,
        )
        control_cfg = config.control or ControlLoopConfig(sample_rate=self.f_rev)
        control_cfg.check_revolution_frequency(self.f_rev)
        self.control = BeamPhaseControlLoop(control_cfg)

        #: ADC volts ↔ gap volts calibration (the bench scales kV-scale
        #: gap voltages into the 2 Vpp ADC range).  The dual-harmonic sum
        #: peaks at up to (1 + r)·V̂₁, so the ADC-side signal is shrunk by
        #: (1 + r) to stay inside the rails and the scale grows to match.
        self._dh_headroom = 1.0 + self._dh_ratio
        self.gap_scale = (
            self.gap_voltage_amplitude * self._dh_headroom / config.adc_amplitude
        )
        self.ref_scale = config.harmonic * self.gap_voltage_amplitude * (
            1.0 - 2.0 * self._dh_ratio
        ) / config.adc_amplitude
        self._adc = ADC(bits=14, vpp=2.0, sample_rate=250e6)

        # Fault injection: explicit config faults win; an empty config
        # consults the session faults armed by the runner's --faults
        # flag.  Unfaulted benches keep self._faults is None, so the hot
        # path pays exactly one None check per revolution.
        faults = config.faults
        if not faults:
            from repro.faults.session import session_faults

            faults = session_faults()
        if faults:
            from repro.faults.inject import FaultProgram
            from repro.signal.dac import DAC

            self._faults = FaultProgram(
                faults,
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

        # Run constants of the per-revolution model equations.
        self._t_rev = 1.0 / self.f_rev
        self._spacing = self._t_rev / config.harmonic
        self._qmc2 = ion.gamma_gain_per_volt()
        self._circumference = ring.circumference
        self._alpha_c = ring.alpha_c
        #: Phase-detector scale: degrees at h·f_R per second of Δt.
        self._deg_per_s = -360.0 * config.harmonic * self.f_rev
        # Angular frequencies of the reference and gap DDS signals.
        self._w_ref = TWO_PI * self.f_rev
        self._w_gap = TWO_PI * config.harmonic * self.f_rev

        # Mutable run state:
        self._gap_phase_rad = 0.0
        self._time = 0.0
        self._turn = 0
        self._delta_t = np.zeros(config.n_bunches)
        self._executor: CgraExecutor | None = None
        initial = (
            np.asarray(config.initial_delta_t, dtype=float)
            if config.initial_delta_t is not None
            else np.zeros(config.n_bunches)
        )
        if config.engine == "cgra":
            self._executor = self._build_executor()
            for i, value in enumerate(initial):
                if value != 0.0:
                    self._executor.set_register(f"dt[{i}]", float(value))
        else:
            # Per-bunch state in Python floats: every operation below is
            # the same IEEE-754 double operation NumPy scalars would do.
            self._py_gamma_r = self.gamma0
            self._py_dgamma = [0.0] * config.n_bunches
            self._py_dt = initial.tolist()
            # Pipelined semantics: stage 2 consumes the voltages sensed in
            # the *previous* iteration (the pipeline_barrier() registers).
            self._py_prev_v_r = 0.0
            self._py_prev_v_a = [0.0] * config.n_bunches
        self._delta_t[:] = initial

    # -- engine plumbing -------------------------------------------------

    def _maybe_quantize(self, adc_volts: float) -> float:
        if not self.config.quantize_adc:
            return adc_volts
        return self._adc.quantize_scalar(adc_volts)

    def _ref_adc_voltage(self, addr_samples: float) -> float:
        """Reference-buffer read: undisturbed sine at f_R, ADC volts.

        Deliberately fault-free: the reference leg doubles as the
        synchronous-energy bookkeeping (``gamma_r += q/mc² · v_r``), so
        all signal-chain faults act on the gap leg (see
        :mod:`repro.faults.inject`).
        """
        t = addr_samples / 250e6
        v = self.config.adc_amplitude * math.sin(self._w_ref * t)
        return self._maybe_quantize(v)

    def _gap_adc_voltage(self, addr_samples: float) -> float:
        """Gap-buffer read: (dual-)harmonic signal with the commanded phase."""
        t = addr_samples / 250e6
        base = self._w_gap * t + self._gap_phase_rad
        f = self._faults
        if f is not None and f.active:
            return self._faulted_gap_voltage(base, f)
        if self._dh_ratio:
            v = (self.config.adc_amplitude / self._dh_headroom) * (
                math.sin(base) - self._dh_ratio * math.sin(2.0 * base)
            )
        else:
            v = self.config.adc_amplitude * math.sin(base)
        return self._maybe_quantize(v)

    def _faulted_gap_voltage(self, base: float, f) -> float:
        """Gap transfer with the active fault channels folded in.

        Same physics as the clean branch plus phase offset, gradient
        loss, clip level and stuck ADC bits; a stuck bit acts on output
        *codes*, so it forces the conversion even with ``quantize_adc``
        off (the fault is defined in the code domain).
        """
        base += f.gap_phase
        if self._dh_ratio:
            v = (self.config.adc_amplitude / self._dh_headroom) * (
                math.sin(base) - self._dh_ratio * math.sin(2.0 * base)
            )
        else:
            v = self.config.adc_amplitude * math.sin(base)
        v *= f.gap_gain
        clip = f.gap_clip
        if v > clip:
            v = clip
        elif v < -clip:
            v = -clip
        if f.stuck_any:
            code = self._adc.apply_stuck_mask_scalar(
                self._adc.convert_scalar(v), f.stuck_mask
            )
            return code * self._adc.lsb
        return self._maybe_quantize(v)

    def _build_executor(self) -> CgraExecutor:
        bus = SensorBus()
        t_rev = self._t_rev
        bus.register_reader(SENSOR_PERIOD, lambda: t_rev)
        bus.register_addr_reader(SENSOR_REF_BUFFER, self._ref_adc_voltage)
        bus.register_addr_reader(SENSOR_GAP_BUFFER, self._gap_adc_voltage)
        for i in range(self.config.n_bunches):
            def writer(value: float, i: int = i) -> None:
                self._delta_t[i] = value
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
        return CgraExecutor(
            self.model.schedule,
            bus,
            params,
            precision=self.config.precision,
        )

    def _python_step(self) -> None:
        """One revolution of the model equations, mirroring the C model.

        The Δt outputs are latched *before* the update (stage-1 IO), so
        the visible output matches the CGRA's by construction.
        """
        dt = self._py_dt
        n = len(dt)
        self._delta_t[:] = dt
        gamma_r = self._py_gamma_r
        inv_g2 = 1.0 / (gamma_r * gamma_r)
        beta_r = math.sqrt(1.0 - inv_g2)
        t_ref = self._circumference / (beta_r * SPEED_OF_LIGHT)
        d_t = t_ref - self._t_rev
        v_r = self._ref_adc_voltage(d_t * 250e6) * self.ref_scale
        spacing, gap_scale = self._spacing, self.gap_scale
        v_a = [
            self._gap_adc_voltage((d_t + spacing * i + dt[i]) * 250e6) * gap_scale
            for i in range(n)
        ]
        if self.config.pipelined:
            # Swap in the previous iteration's voltages (pipeline registers).
            v_r, self._py_prev_v_r = self._py_prev_v_r, v_r
            v_a, self._py_prev_v_a = self._py_prev_v_a, v_a
        qmc2 = self._qmc2
        gamma_r = gamma_r + qmc2 * v_r
        inv_g2n = 1.0 / (gamma_r * gamma_r)
        eta = self._alpha_c - inv_g2n
        beta_r2 = 1.0 - inv_g2n
        k_dt = self._circumference * eta / (beta_r2 * SPEED_OF_LIGHT * gamma_r)
        dgamma = self._py_dgamma
        for i in range(n):
            dg = dgamma[i] + qmc2 * (v_a[i] - v_r)
            dgamma[i] = dg
            gamma_a = gamma_r + dg
            beta_a = math.sqrt(1.0 - 1.0 / (gamma_a * gamma_a))
            dt[i] += k_dt * dg / beta_a
        self._py_gamma_r = gamma_r

    # -- the loop ---------------------------------------------------------

    def measured_phase_deg(self) -> float:
        """DSP phase detector reading (degrees at h·f_R).

        ``control_source`` selects bunch 0 or the average dipole phase of
        all simulated bunches.  Polarity: a +x° gap phase jump settles at
        a +x° reading (the Fig. 5 convention) — see
        :mod:`repro.control.beam_phase_loop` for the sign derivation.
        """
        if self.config.control_source == "mean":
            dt = float(self._delta_t.mean())
        else:
            dt = float(self._delta_t[0])
        return self._deg_per_s * dt

    def step_revolution(self) -> None:
        """Advance the closed loop by one revolution."""
        f = self._faults
        if f is not None:
            f.update(self._time)
        # 1. gap phase for this revolution: AWG drive + control correction.
        jump_rad = float(self.jump.phase_rad_at(self._time))
        self._gap_phase_rad = jump_rad + deg_to_rad(self.control.last_output_deg)
        # 2. beam model iteration (emits Δt of this revolution).
        if self._executor is not None:
            self._executor.run_iteration()
        else:
            self._python_step()
        # 3. DSP measurement + control update.
        self.control.update(self.measured_phase_deg())
        self._turn += 1
        self._time += self._t_rev

    def run(self, duration: float) -> HilRunResult:
        """Run the bench for ``duration`` seconds of machine time."""
        if duration <= 0:
            raise HilError("duration must be positive")
        n_turns = int(round(duration * self.f_rev))
        # The revolution period is constant in this scenario: check the
        # real-time budget once per revolution via the monitor (cheap).
        rec_every = self.config.record_every
        n_rec = n_turns // rec_every + 1
        time = np.empty(n_rec)
        phase = np.empty(n_rec)
        corr = np.empty(n_rec)
        jump = np.empty(n_rec)
        dts = np.empty(n_rec)
        dts_all = np.empty((n_rec, self.config.n_bunches))
        gam = np.empty(n_rec)
        idx = 0

        def record() -> None:
            nonlocal idx
            time[idx] = self._time
            phase[idx] = self.measured_phase_deg()
            corr[idx] = self.control.last_output_deg
            jump[idx] = float(self.jump.phase_deg_at(self._time))
            dts[idx] = float(self._delta_t[0])
            dts_all[idx] = self._delta_t
            gam[idx] = (
                self._executor.register_of("gamma_r")
                if self._executor is not None
                else self._py_gamma_r
            )
            idx += 1

        record()
        t_rev = self._t_rev
        span_attrs = dict(
            engine=self.config.engine, duration_s=duration, n_turns=n_turns
        )
        if self._faults is not None:
            span_attrs["fault"] = self._faults.label
        with get_tracer().span("hil.run", **span_attrs):
            for n in range(n_turns):
                self.deadline.check_revolution(t_rev)
                self.step_revolution()
                if (n + 1) % rec_every == 0:
                    record()
        # The run's per-revolution telemetry, once (no-ops while disabled).
        self.deadline.publish()
        self._adc.publish()
        self.control.publish()
        # allow_empty guards the degenerate sub-revolution duration
        # (n_turns == 0): well-defined empty stats, not a crash.
        stats = self.deadline.stats(allow_empty=True)
        if _OBS.enabled:
            _HIL_ITERATIONS.inc(n_turns, engine=self.config.engine)
            extras = {}
            if self._faults is not None:
                extras["fault"] = self._faults.label
            record_hil_run(
                name="cavity_in_the_loop",
                stats=stats,
                schedule_length=self.model.schedule_length,
                engine=self.config.engine,
                duration_s=duration,
                f_rev_hz=self.f_rev,
                control_saturations=self.control.saturation_count,
                **extras,
            )
        return HilRunResult(
            time=time[:idx],
            phase_deg=phase[:idx],
            correction_deg=corr[:idx],
            jump_deg=jump[:idx],
            delta_t=dts[:idx],
            delta_t_all=dts_all[:idx],
            gamma_ref=gam[:idx],
            deadline=stats,
            schedule_length=self.model.schedule_length,
            engine=self.config.engine,
        )

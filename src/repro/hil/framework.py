"""Sample-accurate FPGA framework top level (paper Fig. 3).

Wires together, at the 250 MHz sample clock, exactly the blocks of the
block diagram: two ADC channels into two 8192-deep ring buffers, the
zero-crossing + period-length detectors on the reference channel, the
CGRA running one model iteration per reference period through the
SensorAccess bus, the Gauss-pulse generator triggered by the model's Δt
outputs, and the DAC producing the beam (and monitor) output.

Initialisation follows Section IV-B: the model is not started until the
period-length detector has seen **four full sine periods**; γ_R,0 is then
derived from the measured revolution time (Eq. 1), and Δγ₀ = Δt₀ = 0.

Ring-buffer addressing: the model sends addresses in (fractional) samples
relative to a positive zero crossing of the reference.  Because bunch
positions extend up to one full revolution *ahead* of the most recent
crossing — samples that have not been captured yet — the framework
resolves addresses against the crossing **one period earlier**, i.e.
within the last fully captured period.  This is exactly why the paper's
buffers "need to hold at least two full cycles of the reference voltage".

A :class:`~repro.hil.softcore.ParameterInterface` exposes the runtime
knobs (output scaling, monitor-source select, recording), and every
iteration is checked against the revolution deadline by a
:class:`~repro.hil.realtime.DeadlineMonitor`.  Neither a block nor an
iteration writes to the telemetry registry: the framework's own counts,
the monitor's slack record, the ADCs', DACs' and CGRA executor's counts
reach it when whoever drives the framework calls
:meth:`FpgaFramework.publish` at the end of its run
(:class:`~repro.hil.closed_loop.SampleAccurateBench` does).
"""

from __future__ import annotations

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
from repro.errors import ConfigurationError, HilError
from repro.hil.realtime import DeadlineMonitor
from repro.hil.softcore import DramRecorder, ParameterInterface
from repro.obs import get_registry, get_tracer
from repro.physics.ion import IonSpecies
from repro.physics.ring import SynchrotronRing
from repro.signal.adc import ADC
from repro.signal.dac import DAC
from repro.signal.gauss_pulse import GaussPulseGenerator
from repro.signal.ringbuffer import RingBuffer
from repro.signal.waveform import Waveform
from repro.signal.zerocrossing import PeriodLengthDetector

__all__ = ["FrameworkConfig", "FpgaFramework"]

#: Beam pickup pulse: sigma in seconds and peak amplitude in volts.
PULSE_SIGMA_S = 25e-9
PULSE_AMPLITUDE = 0.8

_REV_PERIOD = get_registry().gauge(
    "hil_revolution_period_seconds", "most recent measured revolution period"
)
_RB_FILL = get_registry().gauge(
    "signal_ringbuffer_fill", "ring-buffer fill fraction [0, 1]"
)
_FRAMEWORK_ITERATIONS = get_registry().counter(
    "hil_iterations_total", "HIL model iterations run"
)
_SAMPLES_FED = get_registry().counter(
    "hil_samples_fed_total", "ADC sample pairs fed through the framework"
)


@dataclass(frozen=True)
class FrameworkConfig:
    """Static configuration of the FPGA framework instance.

    The scaling fields are the bench's calibration: the DDS amplitudes at
    the ADC inputs are volts-scale stand-ins for kV-scale gap voltages,
    "scaled down on the beam side of the setup to fit within the
    acceptable ADC and DAC voltage ranges".
    """

    ring: SynchrotronRing
    ion: IonSpecies
    harmonic: int
    #: ADC volts → real gap volts for the gap channel.
    gap_volts_per_adc_volt: float
    #: ADC volts → effective gap volts for the reference channel (carries
    #: the harmonic factor, see :mod:`repro.cgra.models`).
    ref_volts_per_adc_volt: float
    sample_rate: float = 250e6
    ring_buffer_capacity: int = 8192
    n_bunches: int = 1
    pipelined: bool = True
    precision: str = "single"
    cgra_config: CgraConfig = field(default_factory=CgraConfig)

    def __post_init__(self) -> None:
        if self.harmonic < 1:
            raise ConfigurationError("harmonic must be >= 1")
        if self.n_bunches < 1 or self.n_bunches > self.harmonic:
            raise ConfigurationError(
                f"n_bunches must be in [1, harmonic={self.harmonic}], got {self.n_bunches}"
            )
        if self.gap_volts_per_adc_volt <= 0 or self.ref_volts_per_adc_volt <= 0:
            raise ConfigurationError("voltage scales must be positive")


class FpgaFramework:
    """The Fig. 3 design, processing ADC sample blocks."""

    def __init__(self, config: FrameworkConfig) -> None:
        self.config = config
        self.adc_ref = ADC(bits=14, vpp=2.0, sample_rate=config.sample_rate)
        self.adc_gap = ADC(bits=14, vpp=2.0, sample_rate=config.sample_rate)
        self.dac_beam = DAC(bits=16, vpp=2.0, sample_rate=config.sample_rate)
        self.dac_monitor = DAC(bits=16, vpp=2.0, sample_rate=config.sample_rate)
        self.buffer_ref = RingBuffer(config.ring_buffer_capacity)
        self.buffer_gap = RingBuffer(config.ring_buffer_capacity)
        self.period_detector = PeriodLengthDetector(config.sample_rate, average_over=4)
        self.pulse_generator = GaussPulseGenerator(
            sigma=PULSE_SIGMA_S,
            sample_rate=config.sample_rate,
            amplitude=PULSE_AMPLITUDE,
        )
        self.model: CompiledModel = compile_beam_model(
            n_bunches=config.n_bunches,
            pipelined=config.pipelined,
            config=config.cgra_config,
        )
        self.deadline = DeadlineMonitor(
            self.model.schedule_length,
            cgra_clock_hz=config.cgra_config.clock_mhz * 1e6,
        )
        # Parameter interface (SpartanMC): runtime-adjustable knobs.
        self.params = ParameterInterface()
        self.params.define("beam_output_scale", scale=1.0 / 4096, initial=1.0)
        self.params.define("monitor_select", scale=1.0, initial=0.0)  # 0=Δt, 1=mirror
        self.params.define("record_enable", scale=1.0, initial=1.0)
        #: Per-revolution record: [iteration, period_s, delta_t_0.., ]
        self.recorder = DramRecorder(n_columns=2 + config.n_bunches)

        self._bus = SensorBus()
        self._bus.register_reader(SENSOR_PERIOD, self._sensor_period)
        self._bus.register_addr_reader(SENSOR_REF_BUFFER, self._fetch_ref)
        self._bus.register_addr_reader(SENSOR_GAP_BUFFER, self._fetch_gap)
        for i in range(config.n_bunches):
            self._bus.register_writer(ACTUATOR_DELTA_T + i, self._make_delta_t_writer(i))

        self._executor: CgraExecutor | None = None
        self._last_iteration_crossing: float | None = None
        self._current_delta_t = np.zeros(config.n_bunches)
        self._samples_fed = 0
        # Sample pairs fed and iterations run since the last publish(),
        # and the period of the latest iteration.
        self._pending_fed = 0
        self._pending_iterations = 0
        self._last_period_s = 0.0
        #: Most recent measured period (samples) cached per iteration.
        self._iteration_period_s: float | None = None
        self._iteration_base_index: float | None = None

    # -- sensor handlers -----------------------------------------------

    def _sensor_period(self) -> float:
        return self.period_detector.period_seconds()

    def _resolve_address(self, addr: float) -> float:
        """Model-relative address → absolute fractional buffer index.

        Resolved against the zero crossing one period before the latest
        one, so every reachable bunch position lies in captured data.
        """
        if self._iteration_base_index is None:
            raise HilError("buffer fetch outside a model iteration")
        return self._iteration_base_index + addr

    def _fetch_ref(self, addr: float) -> float:
        return self.buffer_ref.fetch_interpolated(self._resolve_address(addr))

    def _fetch_gap(self, addr: float) -> float:
        return self.buffer_gap.fetch_interpolated(self._resolve_address(addr))

    def _make_delta_t_writer(self, bunch: int):
        def write(value: float) -> None:
            self._current_delta_t[bunch] = value
            # Trigger time: next passage of bunch `bunch` at the gap —
            # one period after the latest crossing plus the bunch spacing
            # plus the model's Δt.
            period = self._iteration_period_s
            crossing_t = self.period_detector.last_crossing_time
            spacing = period / self.config.harmonic
            trigger = crossing_t + period + spacing * bunch + value
            self.pulse_generator.schedule(trigger)

        return write

    # -- public interface ------------------------------------------------

    @property
    def initialised(self) -> bool:
        """True once four periods were measured and the model started."""
        return self._executor is not None

    @property
    def executor(self) -> CgraExecutor:
        """The running CGRA executor (after initialisation)."""
        if self._executor is None:
            raise HilError("model not initialised yet (waiting for four sine periods)")
        return self._executor

    @property
    def delta_t(self) -> np.ndarray:
        """Most recent Δt per bunch (seconds)."""
        return self._current_delta_t.copy()

    def _initialise_executor(self) -> None:
        cfg = self.config
        f_rev = self.period_detector.frequency()
        gamma0 = cfg.ring.gamma_from_revolution_frequency(f_rev)
        params = self.model.default_params(
            gamma_r0=gamma0,
            q_over_mc2=cfg.ion.gamma_gain_per_volt(),
            orbit_length=cfg.ring.circumference,
            alpha_c=cfg.ring.alpha_c,
            v_scale=cfg.gap_volts_per_adc_volt,
            v_scale_ref=cfg.ref_volts_per_adc_volt,
            f_sample=cfg.sample_rate,
            harmonic=cfg.harmonic,
        )
        self._executor = CgraExecutor(
            self.model.schedule, self._bus, params, precision=cfg.precision
        )

    def feed(self, ref_samples: np.ndarray, gap_samples: np.ndarray) -> tuple[Waveform, Waveform]:
        """Process one block of analogue input; returns (beam, monitor) output.

        Blocks are consumed contiguously; one model iteration runs for
        every *new* positive zero crossing of the reference once the
        four-period initialisation is complete.
        """
        ref_samples = np.asarray(ref_samples, dtype=float)
        gap_samples = np.asarray(gap_samples, dtype=float)
        if ref_samples.shape != gap_samples.shape or ref_samples.ndim != 1:
            raise HilError("ref and gap blocks must be equal-length 1-D arrays")
        t0 = self._samples_fed / self.config.sample_rate
        n = ref_samples.size

        ref_q = self.adc_ref.quantize(ref_samples)
        gap_q = self.adc_gap.quantize(gap_samples)
        self.buffer_ref.write(ref_q)
        self.buffer_gap.write(gap_q)
        self.period_detector.feed(ref_q)
        self._samples_fed += n
        self._pending_fed += n

        if self.period_detector.ready:
            if self._executor is None:
                self._initialise_executor()
            latest = self.period_detector.last_crossing_index
            if self._last_iteration_crossing is None or latest > self._last_iteration_crossing:
                self._run_iteration()
                self._last_iteration_crossing = latest

        beam = self.pulse_generator.render(t0, n)
        scale = self.params.read("beam_output_scale")
        beam_out = self.dac_beam.render_waveform(beam.samples * scale, t0)
        monitor_out = self._monitor_block(beam_out)
        return beam_out, monitor_out

    def _run_iteration(self) -> None:
        period_s = self.period_detector.period_seconds()
        period_samples = self.period_detector.period_samples()
        self._iteration_period_s = period_s
        self._iteration_base_index = (
            self.period_detector.last_crossing_index - period_samples
        )
        with get_tracer().span(
            "hil.iteration", iteration=self.executor.iterations, period_s=period_s
        ):
            self.deadline.check_revolution(period_s)
            self.executor.run_iteration()
        self._pending_iterations += 1
        self._last_period_s = period_s
        self._iteration_base_index = None
        if self.params.read("record_enable") >= 1.0:
            self.recorder.record(
                float(self.executor.iterations), period_s, *self._current_delta_t
            )

    def publish(self) -> None:
        """Hand the telemetry counted since the last call to the registry
        (no-ops while observability is disabled); publishing again adds
        nothing.

        Covers the framework's sample, fill, period and iteration
        instruments plus its deadline monitor, ADCs, DACs and CGRA
        executor."""
        if self._pending_fed:
            _SAMPLES_FED.inc(self._pending_fed)
            _RB_FILL.set(self.buffer_ref.fill_fraction)
            self._pending_fed = 0
        if self._pending_iterations:
            _REV_PERIOD.set(self._last_period_s)
            _FRAMEWORK_ITERATIONS.inc(self._pending_iterations, engine="framework")
            self._pending_iterations = 0
        self.deadline.publish()
        for converter in (self.adc_ref, self.adc_gap, self.dac_beam, self.dac_monitor):
            converter.publish()
        if self._executor is not None:
            self._executor.publish()

    def _monitor_block(self, beam_out: Waveform) -> Waveform:
        """Second DAC channel (paper: "either show the phase difference
        calculated in the model or mirror the generated signal").

        ``monitor_select`` = 0: the model's phase difference of bunch 0
        as a DC level, 90° per volt; = 1: mirror of the beam output.
        """
        if self.params.read("monitor_select") >= 1.0:
            return Waveform(beam_out.samples.copy(), beam_out.sample_rate, beam_out.t0)
        phase_deg = (
            -360.0
            * self.config.harmonic
            * (1.0 / self._iteration_period_s if self._iteration_period_s else 0.0)
            * float(self._current_delta_t[0])
        )
        level = phase_deg / 90.0  # 90 degrees per volt
        return self.dac_monitor.render_waveform(
            np.full(len(beam_out), level), beam_out.t0
        )

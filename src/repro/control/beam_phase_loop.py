"""The beam-phase control loop.

Wiring (sign conventions, fixed here once for the whole repository):

* the DSP phase detector reports the bunch position as
  ``φ_meas = −360°·h·f_R·Δt`` — with this polarity an applied gap phase
  jump of +8° moves the *equilibrium* reading to +8°, which is how
  Fig. 5 plots it;
* the filter output ``u`` (degrees) is *added* to the gap phase.  The
  filter's first-difference stage leads the synchrotron oscillation by
  ≈ +90°, so with the paper's negative gain the loop feeds back
  ``−dφ/dt`` — velocity feedback, i.e. damping.

The loop may saturate its correction (hardware phase shifters have
limited range); saturation events are counted.

Telemetry: :meth:`BeamPhaseControlLoop.update` writes nothing to the
registry.  The loop counts its updates and saturations and keeps its
last input and output; the run owner hands them to the ``control_*``
metrics once per run through :meth:`BeamPhaseControlLoop.publish`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import get_registry, get_tracer
from repro.obs._state import STATE as _OBS
from repro.signal.fir import PhaseControlFilter

__all__ = ["ControlLoopConfig", "BeamPhaseControlLoop"]

_PHASE_ERROR = get_registry().gauge(
    "control_phase_error_deg", "most recent measured phase error fed to the loop"
)
_CORRECTION = get_registry().gauge(
    "control_correction_deg", "most recent correction applied to the gap phase"
)
_SATURATION = get_registry().counter(
    "control_saturation_total", "updates clipped at the saturation limit"
)
_UPDATES = get_registry().counter(
    "control_updates_total", "control-loop filter updates executed"
)


@dataclass(frozen=True)
class ControlLoopConfig:
    """Parameters of the beam-phase control loop.

    Defaults are the paper's: "f_pass = 1.4 kHz, gain = −5 and recursion
    factor = 0.99, which are the optimal parameters according to [8]".
    """

    f_pass: float = 1.4e3
    gain: float = -5.0
    recursion_factor: float = 0.99
    #: Calibration of the paper's dimensionless DSP gain register onto the
    #: unity-normalised :class:`~repro.signal.fir.PhaseControlFilter`: the
    #: effective filter gain is ``gain · gain_scale``.  0.02 is chosen so
    #: the closed-loop transient matches Fig. 5 — the first post-jump peak
    #: reaches ≈ 2× the jump amplitude and the oscillation settles well
    #: within the 50 ms inter-jump window (see EXPERIMENTS.md, E5).
    gain_scale: float = 0.02
    #: Control updates per second: the loop runs once per revolution,
    #: so this is the revolution frequency, and the filter is clocked
    #: at it.
    sample_rate: float = 800e3
    #: Correction saturation in degrees (|u| clip); None disables.
    saturation_deg: float | None = 60.0
    #: Master enable — disabled loops output 0 (open-loop studies).
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.gain_scale <= 0.0:
            raise ConfigurationError("gain_scale must be positive")
        if self.saturation_deg is not None and self.saturation_deg <= 0.0:
            raise ConfigurationError("saturation_deg must be positive or None")

    def check_revolution_frequency(self, f_rev: float) -> None:
        """Raise :class:`ConfigurationError` unless ``sample_rate`` is ``f_rev``.

        The loop updates once per revolution and its filter is normalised
        to ``sample_rate``; a loop clocked at any other revolution
        frequency would run the wrong filter.
        """
        if abs(self.sample_rate - f_rev) > 1e-6 * f_rev:
            raise ConfigurationError(
                "control sample_rate must equal the revolution frequency "
                f"({f_rev}), got {self.sample_rate}"
            )


class BeamPhaseControlLoop:
    """Stateful controller: measured phase (deg) in → gap correction (deg) out."""

    def __init__(self, config: ControlLoopConfig) -> None:
        self.config = config
        self._filter = PhaseControlFilter(
            f_pass=config.f_pass,
            gain=config.gain * config.gain_scale,
            recursion_factor=config.recursion_factor,
            sample_rate=config.sample_rate,
        )
        self._last_output = 0.0
        self._last_input = 0.0
        #: Number of updates that hit the saturation limit.
        self.saturation_count = 0
        # Executed updates and saturations not yet published.
        self._updates = 0
        self._saturations = 0

    @property
    def last_output_deg(self) -> float:
        """Most recent correction, in degrees."""
        return self._last_output

    def update(self, measured_phase_deg: float) -> float:
        """Feed one phase measurement; returns the current correction.

        A disabled loop (``enabled=False``) returns 0.  Registry
        telemetry waits for :meth:`publish`; only a saturation emits its
        ``control.saturated`` trace event here, while tracing is on.
        """
        if not self.config.enabled:
            self._last_output = 0.0
            return 0.0
        u = self._filter.step(float(measured_phase_deg))
        self._updates += 1
        limit = self.config.saturation_deg
        if limit is not None and abs(u) > limit:
            u = limit if u > 0 else -limit
            self.saturation_count += 1
            self._saturations += 1
            if _OBS.trace:
                get_tracer().event(
                    "control.saturated", phase_deg=measured_phase_deg, output_deg=u
                )
        self._last_input = measured_phase_deg
        self._last_output = u
        return u

    def publish(self) -> None:
        """Hand the updates executed since the last call to the registry:
        the last input and output to the ``control_phase_error_deg`` and
        ``control_correction_deg`` gauges, the update and saturation
        counts to their counters (no-ops while observability is
        disabled).  Publishing again without new updates changes
        nothing."""
        if not self._updates:
            return
        _PHASE_ERROR.set(self._last_input)
        _CORRECTION.set(self._last_output)
        _UPDATES.inc(self._updates)
        if self._saturations:
            _SATURATION.inc(self._saturations)
        self._updates = 0
        self._saturations = 0

"""Digital-to-analogue converter model (FMC151 DAC channel).

The FMC151's two-channel **16-bit** DAC runs at **250 MHz** with output
amplitudes limited to **2 V peak-to-peak**.  The model converts code
streams to voltages with clipping; an output scaling mirrors the
SpartanMC parameter interface's ability to "adjust the scaling of output
voltages".

Telemetry: a conversion writes nothing to the registry.  Sample and clip
counts accumulate on the DAC, as the ADC's do, and whoever drives it
hands them over once per run through :meth:`DAC.publish`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.obs import get_registry
from repro.obs._state import STATE as _OBS
from repro.signal.waveform import Waveform

__all__ = ["DAC"]

_CLIPS = get_registry().counter(
    "signal_dac_clips_total", "DAC codes clipped at the output rails"
)
_SAMPLES = get_registry().counter(
    "signal_dac_samples_total", "samples converted by the DAC models"
)


class DAC:
    """Bit-accurate DAC channel.

    Parameters
    ----------
    bits:
        Resolution (16 for the FMC151 DAC).
    vpp:
        Full-scale peak-to-peak output range in volts (2.0 in the bench).
    sample_rate:
        Sample clock in Hz (250 MHz in the bench).
    """

    def __init__(
        self,
        bits: int = 16,
        vpp: float = 2.0,
        sample_rate: float = 250e6,
    ) -> None:
        if bits < 1 or bits > 32:
            raise SignalError(f"bits must be in [1, 32], got {bits}")
        if vpp <= 0.0:
            raise SignalError("vpp must be positive")
        if sample_rate <= 0.0:
            raise SignalError("sample_rate must be positive")
        self.bits = int(bits)
        self.vpp = float(vpp)
        self.sample_rate = float(sample_rate)
        # Samples and clips not yet published (see publish()).
        self._pending_samples = 0
        self._pending_clips = 0

    @property
    def full_scale(self) -> float:
        """Positive output rail in volts (vpp/2)."""
        return 0.5 * self.vpp

    @property
    def lsb(self) -> float:
        """Voltage step of one code."""
        return self.vpp / (2**self.bits)

    @property
    def code_min(self) -> int:
        """Most negative accepted code."""
        return -(2 ** (self.bits - 1))

    @property
    def code_max(self) -> int:
        """Most positive accepted code."""
        return 2 ** (self.bits - 1) - 1

    def volts_to_codes(self, volts) -> np.ndarray:
        """Convert requested voltages to clipped codes."""
        v = np.asarray(volts, dtype=float)
        codes = np.round(v / self.lsb).astype(np.int64)
        if _OBS.enabled:
            self._pending_samples += codes.size
            self._pending_clips += int(
                np.count_nonzero((codes < self.code_min) | (codes > self.code_max))
            )
        return np.clip(codes, self.code_min, self.code_max)

    def convert(self, volts) -> np.ndarray:
        """Requested voltages → actual analogue output voltages."""
        return self.volts_to_codes(volts) * self.lsb

    def publish(self) -> None:
        """Add the samples and clips counted since the last call to
        ``signal_dac_samples_total`` / ``signal_dac_clips_total`` (no-ops
        while observability is disabled); publishing again adds nothing."""
        if self._pending_samples:
            _SAMPLES.inc(self._pending_samples)
            self._pending_samples = 0
        if self._pending_clips:
            _CLIPS.inc(self._pending_clips)
            self._pending_clips = 0

    def render_waveform(self, volts: np.ndarray, t0: float = 0.0) -> Waveform:
        """Produce the analogue output waveform for a code-rate sample block."""
        return Waveform(self.convert(volts), self.sample_rate, t0)

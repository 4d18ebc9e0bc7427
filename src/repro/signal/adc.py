"""Analogue-to-digital converter model (FMC151 ADC channel).

The paper's FMC151 daughter card provides a two-channel **14-bit** ADC
running at **250 MHz** with input amplitudes limited to **2 V peak-to-
peak**.  This model reproduces the conversion bit-exactly: mid-tread
uniform quantisation over ±1 V, hard clipping at the rails, and optional
additive noise plus aperture jitter for non-ideal studies.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SignalError
from repro.obs import get_registry
from repro.obs._state import STATE as _OBS
from repro.signal.waveform import Waveform

__all__ = ["ADC"]

_CLIPS = get_registry().counter(
    "signal_adc_clips_total", "ADC samples clipped at the input rails"
)
_SAMPLES = get_registry().counter(
    "signal_adc_samples_total", "samples converted by the ADC models"
)


class ADC:
    """Bit-accurate ADC channel.

    Parameters
    ----------
    bits:
        Resolution (14 for the FMC151 ADC).
    vpp:
        Full-scale peak-to-peak input range in volts (2.0 in the bench).
    sample_rate:
        Sample clock in Hz (250 MHz in the bench).
    noise_rms:
        RMS of additive Gaussian input-referred noise in volts (0 = ideal).
    aperture_jitter_rms:
        RMS sampling-instant jitter in seconds (0 = ideal).  Only used by
        :meth:`sample_function`, where the true signal can be re-evaluated
        at the jittered instants.
    rng:
        Random generator for the noise models; required when either noise
        parameter is non-zero.
    """

    def __init__(
        self,
        bits: int = 14,
        vpp: float = 2.0,
        sample_rate: float = 250e6,
        noise_rms: float = 0.0,
        aperture_jitter_rms: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if bits < 1 or bits > 32:
            raise SignalError(f"bits must be in [1, 32], got {bits}")
        if vpp <= 0.0:
            raise SignalError("vpp must be positive")
        if sample_rate <= 0.0:
            raise SignalError("sample_rate must be positive")
        if noise_rms < 0.0 or aperture_jitter_rms < 0.0:
            raise SignalError("noise parameters must be non-negative")
        if (noise_rms > 0.0 or aperture_jitter_rms > 0.0) and rng is None:
            raise SignalError("rng is required when noise or jitter is enabled")
        self.bits = int(bits)
        self.vpp = float(vpp)
        self.sample_rate = float(sample_rate)
        self.noise_rms = float(noise_rms)
        self.aperture_jitter_rms = float(aperture_jitter_rms)
        self._rng = rng
        # Cached conversion constants: convert() runs once per sensor
        # read on the HIL hot path, so the derived values are computed
        # once here instead of per call.
        self._lsb = self.vpp / (2**self.bits)
        self._code_min = -(2 ** (self.bits - 1))
        self._code_max = 2 ** (self.bits - 1) - 1
        # Scalar-path samples and clips not yet published (see publish()).
        self._scalar_samples = 0
        self._scalar_clips = 0

    @property
    def full_scale(self) -> float:
        """Positive rail in volts (vpp/2)."""
        return 0.5 * self.vpp

    @property
    def lsb(self) -> float:
        """Voltage step of one code."""
        return self._lsb

    @property
    def code_min(self) -> int:
        """Most negative output code (two's complement)."""
        return self._code_min

    @property
    def code_max(self) -> int:
        """Most positive output code."""
        return self._code_max

    def convert(self, volts) -> np.ndarray:
        """Convert voltages to integer codes (mid-tread, clipped at rails)."""
        v = np.asarray(volts, dtype=float)
        if self.noise_rms > 0.0:
            v = v + self._rng.normal(0.0, self.noise_rms, v.shape)
        # rint == round(decimals=0) bit-for-bit on floats (both are
        # round-half-even), without the decimals dispatch; the nested
        # minimum/maximum is np.clip minus its per-call broadcasting setup.
        codes = np.rint(v / self._lsb).astype(np.int64)
        if _OBS.enabled:
            _SAMPLES.inc(codes.size)
            clipped = int(
                np.count_nonzero((codes < self._code_min) | (codes > self._code_max))
            )
            if clipped:
                _CLIPS.inc(clipped)
        return np.minimum(np.maximum(codes, self._code_min), self._code_max)

    def codes_to_volts(self, codes) -> np.ndarray:
        """Reconstruct voltages from codes (the value the FPGA works with)."""
        return np.asarray(codes, dtype=float) * self._lsb

    def quantize(self, volts) -> np.ndarray:
        """Convert to codes and back: the quantised voltage seen inside
        the FPGA.  This is the transfer function applied at every model
        input of the HIL bench.

        ``convert`` returns int64 codes, so ``codes * lsb`` is
        :meth:`codes_to_volts` without its ``asarray`` round trip.  The
        int64 cast inside ``convert`` is also what turns a NaN input
        into an error under ``np.errstate(invalid="raise")``."""
        return self.convert(volts) * self._lsb

    def apply_stuck_bit(self, codes, bit: int) -> np.ndarray:
        """Force ``bit`` of the two's-complement output word to 1.

        The fault model of :mod:`repro.faults`: a defective output
        driver pins one bit of the converter word high.  Acts on the
        raw ``bits``-wide word, so sticking the top bit flips the sign
        of positive codes — exactly what the hardware fault does.
        """
        if not 0 <= bit < self.bits:
            raise SignalError(
                f"stuck bit {bit} out of range for a {self.bits}-bit ADC"
            )
        return self.apply_stuck_mask(codes, 1 << bit)

    def apply_stuck_mask(self, codes, or_mask) -> np.ndarray:
        """Vector form of :meth:`apply_stuck_bit` with per-element OR
        masks (mask 0 is an exact identity — unfaulted batch lanes pass
        through untouched)."""
        word_mask = (1 << self.bits) - 1
        word = (np.asarray(codes, dtype=np.int64) & word_mask) | or_mask
        return word - ((word >> (self.bits - 1)) & 1) * (1 << self.bits)

    def apply_stuck_mask_scalar(self, code: int, or_mask: int) -> int:
        """Scalar fast path of :meth:`apply_stuck_mask` (identical
        transfer)."""
        word = (code & ((1 << self.bits) - 1)) | or_mask
        return word - ((word >> (self.bits - 1)) & 1) * (1 << self.bits)

    def convert_scalar(self, volts: float) -> int:
        """Scalar fast path of :meth:`convert` — identical transfer
        function without the ndarray round-trip (Python ``round`` and
        ``np.round`` are both round-half-even).

        Telemetry: the sample and clip counts accumulate on this ADC;
        the run owner hands them to the registry once per run through
        :meth:`publish` (the array path :meth:`convert` still counts per
        call, one registry write per block).
        """
        v = float(volts)
        if self.noise_rms > 0.0:
            v += self._rng.normal(0.0, self.noise_rms)
        code = round(v / self._lsb)
        self._scalar_samples += 1
        if code < self._code_min:
            self._scalar_clips += 1
            return self._code_min
        if code > self._code_max:
            self._scalar_clips += 1
            return self._code_max
        return code

    def publish(self) -> None:
        """Add the scalar-path samples and clips counted since the last
        call to ``signal_adc_samples_total`` / ``signal_adc_clips_total``
        (no-ops while observability is disabled); publishing again adds
        nothing."""
        if self._scalar_samples:
            _SAMPLES.inc(self._scalar_samples)
            self._scalar_samples = 0
        if self._scalar_clips:
            _CLIPS.inc(self._scalar_clips)
            self._scalar_clips = 0

    def quantize_scalar(self, volts: float) -> float:
        """Scalar fast path of :meth:`quantize` (identical transfer)."""
        return self.convert_scalar(volts) * self._lsb

    def sample_waveform(self, waveform: Waveform) -> Waveform:
        """Quantise an already-sampled waveform at this ADC's resolution.

        The waveform must be at the ADC sample rate (the bench clocks the
        DDS outputs and the ADC from the same 250 MHz system clock).
        """
        if abs(waveform.sample_rate - self.sample_rate) > 1e-6 * self.sample_rate:
            raise SignalError(
                f"waveform rate {waveform.sample_rate} != ADC rate {self.sample_rate}"
            )
        return Waveform(self.quantize(waveform.samples), self.sample_rate, waveform.t0)

    def sample_function(self, fn: Callable[[np.ndarray], np.ndarray], t0: float, n_samples: int) -> Waveform:
        """Sample an analytic signal ``fn(t)``: aperture jitter applies here.

        Returns the quantised waveform on the nominal time grid (codes are
        taken at jittered instants, reproducing jitter-induced amplitude
        noise on fast signals).
        """
        if n_samples < 0:
            raise SignalError("n_samples must be non-negative")
        t = t0 + np.arange(n_samples) / self.sample_rate
        t_eff = t
        if self.aperture_jitter_rms > 0.0:
            t_eff = t + self._rng.normal(0.0, self.aperture_jitter_rms, n_samples)
        return Waveform(self.quantize(np.asarray(fn(t_eff), dtype=float)), self.sample_rate, t0)

"""Analogue-to-digital converter model (FMC151 ADC channel).

The paper's FMC151 daughter card provides a two-channel **14-bit** ADC
running at **250 MHz** with input amplitudes limited to **2 V peak-to-
peak**.  This model reproduces the conversion bit-exactly: mid-tread
uniform quantisation over ±1 V and hard clipping at the rails.  The
converter is ideal: no input noise, no aperture jitter.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.obs import get_registry
from repro.obs._state import STATE as _OBS

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
    """

    def __init__(
        self,
        bits: int = 14,
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
        # Cached conversion constants: convert() runs once per sensor
        # read on the HIL hot path, so the derived values are computed
        # once here instead of per call.
        self._lsb = self.vpp / (2**self.bits)
        self._code_min = -(2 ** (self.bits - 1))
        self._code_max = 2 ** (self.bits - 1) - 1
        # The same constants as 0-d arrays for the array path: a ufunc
        # with a 0-d array operand costs what an array-array op does,
        # whatever the input shape, and about half of the same op with a
        # Python scalar operand at [8].  Same values, dtypes and IEEE ops.
        self._lsb_0d = np.array(self._lsb)
        self._code_min_0d = np.array(self._code_min, dtype=np.int64)
        self._code_max_0d = np.array(self._code_max, dtype=np.int64)
        # Samples and clips not yet published (see publish()).
        self._pending_samples = 0
        self._pending_clips = 0

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
        """Convert voltages to integer codes (mid-tread, clipped at rails).

        Telemetry: while metrics are on, the sample and clip counts
        accumulate on this ADC, like :meth:`convert_scalar`'s; the run
        owner hands them to the registry through :meth:`publish`.
        """
        v = np.asarray(volts, dtype=float)
        # rint == round(decimals=0) bit-for-bit on floats (both are
        # round-half-even), without the decimals dispatch; the nested
        # minimum/maximum is np.clip minus its per-call broadcasting setup.
        codes = np.rint(v / self._lsb_0d).astype(np.int64)
        clamped = np.minimum(np.maximum(codes, self._code_min_0d), self._code_max_0d)
        if _OBS.enabled:
            self._pending_samples += codes.size
            self._pending_clips += int(np.count_nonzero(clamped != codes))
        return clamped

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
        return self.convert(volts) * self._lsb_0d

    def apply_stuck_mask(self, codes, or_mask) -> np.ndarray:
        """Force the bits of ``or_mask`` of the two's-complement output
        word to 1, per element.

        The fault model of :mod:`repro.faults`: a defective output
        driver pins bits of the converter word high.  Acts on the raw
        ``bits``-wide word, so sticking the top bit flips the sign of
        positive codes — exactly what the hardware fault does.  Mask 0
        is an exact identity: unfaulted batch lanes pass through
        untouched."""
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

        Telemetry: the sample and clip counts accumulate on this ADC,
        as the array path's do; the run owner hands them to the registry
        once per run through :meth:`publish`.
        """
        code = round(float(volts) / self._lsb)
        self._pending_samples += 1
        if code < self._code_min:
            self._pending_clips += 1
            return self._code_min
        if code > self._code_max:
            self._pending_clips += 1
            return self._code_max
        return code

    def publish(self) -> None:
        """Add the samples and clips counted since the last call, by
        either path, to ``signal_adc_samples_total`` /
        ``signal_adc_clips_total`` (no-ops while observability is
        disabled); publishing again adds nothing.

        Whoever drives the ADC calls this at the end of its run: the
        closed-loop benches do, and :class:`~repro.hil.closed_loop.
        SampleAccurateBench` does for its framework's two channels."""
        if self._pending_samples:
            _SAMPLES.inc(self._pending_samples)
            self._pending_samples = 0
        if self._pending_clips:
            _CLIPS.inc(self._pending_clips)
            self._pending_clips = 0

    def quantize_scalar(self, volts: float) -> float:
        """Scalar fast path of :meth:`quantize` (identical transfer)."""
        return self.convert_scalar(volts) * self._lsb

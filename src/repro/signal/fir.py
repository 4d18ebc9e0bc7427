"""The beam-phase control filter (the paper's FIR controller).

The closed-loop control system of the paper "uses a Finite Impulse
Response (FIR) filter.  The parameters of the closed-loop control were
set to f_pass = 1.4 kHz, gain = −5 and recursion factor = 0.99, which are
the optimal parameters according to [8]" (Klingbeil et al., *A Digital
Beam-Phase Control System for Heavy-Ion Synchrotrons*, IEEE TNS 2007).

:class:`PhaseControlFilter` implements that controller with exactly those
three parameters:

* a first-difference FIR stage ``x[n] − x[n−1]`` that blocks the constant
  phase offset (the dead-time offsets of Fig. 5 must not be amplified)
  and provides the ≈ +90° phase lead that converts phase feedback into
  velocity (damping) feedback at frequencies well below the control rate;
* a single-pole recursive extension with pole ``z = recursion_factor``
  that integrates the difference back down above the corner frequency —
  together they form a band-pass centred near
  ``f_c ≈ (1 − r)·f_ctrl / 2π`` (with r = 0.99 at the 800 kHz revolution
  rate this is ≈ 1.27 kHz, right at the synchrotron frequency, which is
  why 0.99 is the documented optimum);
* the loop gain (−5).

The filter is normalised to unit band-centre magnitude at ``f_pass``, so
``gain`` is the actual loop gain at the synchrotron frequency.
"""

from __future__ import annotations

import cmath

import numpy as np

from repro.constants import TWO_PI
from repro.errors import SignalError

__all__ = ["PhaseControlFilter"]


class PhaseControlFilter:
    """The beam-phase control loop filter (difference + leaky integrator).

    Transfer function::

        H(z) = gain * C * (1 - z^-1) / (1 - r z^-1)

    where ``r`` is the recursion factor and ``C`` normalises
    ``|H(exp(j2πf_pass/f_ctrl))| = |gain|``.

    Parameters
    ----------
    f_pass:
        Passband (normalisation) frequency in Hz — 1.4 kHz in the paper.
    gain:
        Loop gain at ``f_pass`` — −5 in the paper.  The sign convention is
        that the filter output is *added* to the gap phase, so a negative
        gain with a +90°-leading filter damps the oscillation.
    recursion_factor:
        Pole location r ∈ [0, 1) — 0.99 in the paper.
    sample_rate:
        Rate at which the phase-difference samples arrive (the control
        loop of the bench runs once per revolution).
    """

    def __init__(
        self,
        f_pass: float = 1.4e3,
        gain: float = -5.0,
        recursion_factor: float = 0.99,
        sample_rate: float = 800e3,
    ) -> None:
        if not 0.0 <= recursion_factor < 1.0:
            raise SignalError(f"recursion_factor must be in [0, 1), got {recursion_factor}")
        if sample_rate <= 0.0:
            raise SignalError("sample_rate must be positive")
        if not 0.0 < f_pass < 0.5 * sample_rate:
            raise SignalError(f"f_pass {f_pass} outside (0, Nyquist)")
        self.f_pass = float(f_pass)
        self.gain = float(gain)
        self.recursion_factor = float(recursion_factor)
        self.sample_rate = float(sample_rate)
        # Normalise so |H(f_pass)| == |gain|.
        w = TWO_PI * f_pass / sample_rate
        z = cmath.exp(1j * w)
        raw = abs((1.0 - 1.0 / z) / (1.0 - recursion_factor / z))
        if raw == 0.0:
            raise SignalError("degenerate normalisation at f_pass")
        self._c = 1.0 / raw
        self._x_prev = 0.0
        self._y_prev = 0.0

    def step(self, x: float) -> float:
        """Process one phase-difference sample; returns the correction."""
        y = self.recursion_factor * self._y_prev + self.gain * self._c * (x - self._x_prev)
        self._x_prev = x
        self._y_prev = y
        return y

    def frequency_response(self, freqs) -> np.ndarray:
        """Complex response H(f) including gain and normalisation."""
        f = np.atleast_1d(np.asarray(freqs, dtype=float))
        z = np.exp(1j * TWO_PI * f / self.sample_rate)
        return self.gain * self._c * (1.0 - 1.0 / z) / (1.0 - self.recursion_factor / z)

    def corner_frequency(self) -> float:
        """Approximate band centre (1 − r)·f_ctrl/(2π), in Hz."""
        return (1.0 - self.recursion_factor) * self.sample_rate / TWO_PI

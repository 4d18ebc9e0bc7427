"""Oscillation analysis of recorded traces.

The paper's evaluation characterises the longitudinal dipole oscillation
by (i) its frequency — the synchrotron frequency, 1.2 kHz in the MDE and
1.28 kHz in the simulator run — and (ii) how quickly the closed-loop
control damps it.  This module estimates both quantities from sampled
traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PhysicsError

__all__ = [
    "estimate_oscillation_frequency",
    "fit_damping_envelope",
    "DampingFit",
]


def estimate_oscillation_frequency(
    time: np.ndarray,
    trace: np.ndarray,
    detrend: bool = True,
) -> float:
    """Dominant oscillation frequency of a uniformly sampled trace, in Hz.

    Uses the FFT magnitude peak with three-point parabolic interpolation,
    which resolves frequencies well below the bin spacing — needed because
    a 50 ms inter-jump window contains only ~64 synchrotron periods.

    Raises :class:`~repro.errors.PhysicsError` for traces shorter than
    four samples or with non-uniform sampling.
    """
    time = np.asarray(time, dtype=float)
    trace = np.asarray(trace, dtype=float)
    if time.shape != trace.shape or time.ndim != 1:
        raise PhysicsError("time and trace must be equal-length 1-D arrays")
    if time.size < 4:
        raise PhysicsError("need at least 4 samples to estimate a frequency")
    dts = np.diff(time)
    dt = float(dts.mean())
    if dt <= 0.0 or np.any(np.abs(dts - dt) > 1e-6 * dt + 1e-15):
        raise PhysicsError("trace must be uniformly sampled in time")
    y = trace - trace.mean() if detrend else trace
    window = np.hanning(y.size)
    spec = np.abs(np.fft.rfft(y * window))
    if spec.size < 3:
        raise PhysicsError("trace too short for spectral estimation")
    spec[0] = 0.0
    k = int(np.argmax(spec))
    if k == 0 or k == spec.size - 1:
        return float(k / (dt * y.size))
    # Parabolic interpolation on log magnitude around the peak bin.
    with np.errstate(divide="ignore"):
        s = np.log(spec[k - 1 : k + 2] + 1e-300)
    denom = s[0] - 2.0 * s[1] + s[2]
    delta = 0.0 if denom == 0.0 else 0.5 * (s[0] - s[2]) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    return float((k + delta) / (dt * y.size))


@dataclass
class DampingFit:
    """Result of :func:`fit_damping_envelope`.

    ``rate`` is the exponential decay rate λ (1/s) of the oscillation
    envelope A(t) = A₀·exp(−λ t); ``time_constant`` is 1/λ; ``r_squared``
    is the goodness of the log-linear fit on the extracted peaks.
    """

    amplitude0: float
    rate: float
    r_squared: float

    @property
    def time_constant(self) -> float:
        """Envelope 1/e time in seconds (inf for undamped traces)."""
        return float("inf") if self.rate <= 0.0 else 1.0 / self.rate


def fit_damping_envelope(
    time: np.ndarray, trace: np.ndarray, peak_floor: float = 1e-3
) -> DampingFit:
    """Fit an exponential envelope to an oscillating, decaying trace.

    The trace is centred on its *median* (a decayed trace spends most of
    its time at the settled level, so the median is the baseline even
    with the constant dead-time offsets the paper notes in Fig. 5), its
    local |extrema| extracted, and a straight line fitted to log|peak|
    vs. time.  Peaks below ``peak_floor`` × the largest peak are
    discarded — they are baseline noise, not oscillation extrema.
    """
    time = np.asarray(time, dtype=float)
    trace = np.asarray(trace, dtype=float)
    if time.shape != trace.shape or time.ndim != 1:
        raise PhysicsError("time and trace must be equal-length 1-D arrays")
    y = trace - np.median(trace)
    # Local extrema: sign change of the discrete derivative.
    dy = np.diff(y)
    idx = np.nonzero(dy[:-1] * dy[1:] < 0.0)[0] + 1
    if idx.size:
        idx = idx[np.abs(y[idx]) > peak_floor * np.abs(y[idx]).max() + 1e-300]
    if idx.size < 3:
        raise PhysicsError("trace has too few oscillation peaks to fit an envelope")
    t_pk = time[idx]
    a_pk = np.abs(y[idx])
    logs = np.log(a_pk)
    coeffs, residuals, *_ = np.polyfit(t_pk, logs, 1, full=True)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    ss_res = float(residuals[0]) if residuals.size else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DampingFit(amplitude0=float(np.exp(intercept)), rate=-slope, r_squared=r2)

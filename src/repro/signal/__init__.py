"""Analogue/digital signal-chain substrate.

Re-implements, sample-accurately, every signal-path component of the
paper's test bench (Figs. 2–4): DDS signal generation, the AWG phase-jump
drive, ADC/DAC conversion, the FPGA framework's ring buffers,
zero-crossing and period-length detectors, Gaussian beam-pulse playback,
the control loop's filter and the DSP phase measurement.
"""

from repro.signal.waveform import Waveform
from repro.signal.dds import DDS, GroupDDS
from repro.signal.awg import PhaseJumpPattern, TransportDelay
from repro.signal.adc import ADC
from repro.signal.dac import DAC
from repro.signal.ringbuffer import RingBuffer
from repro.signal.zerocrossing import ZeroCrossingDetector, PeriodLengthDetector
from repro.signal.gauss_pulse import GaussPulseGenerator
from repro.signal.fir import PhaseControlFilter
from repro.signal.phase_detector import IQPhaseDetector
from repro.signal.filters import moving_average

__all__ = [
    "Waveform",
    "DDS",
    "GroupDDS",
    "PhaseJumpPattern",
    "TransportDelay",
    "ADC",
    "DAC",
    "RingBuffer",
    "ZeroCrossingDetector",
    "PeriodLengthDetector",
    "GaussPulseGenerator",
    "PhaseControlFilter",
    "IQPhaseDetector",
    "moving_average",
]

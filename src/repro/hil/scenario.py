"""Checks of the scenario fields the bench configurations share.

:class:`~repro.hil.simulator.HilConfig`,
:class:`~repro.hil.closed_loop.SampleAccurateBenchConfig` and
:class:`~repro.baselines.offline_tracker.MachineExperimentConfig` describe
one MDE scenario — revolution and synchrotron frequencies, harmonic, the
phase-jump drive, the ADC range, the model's precision — so each rejects
a bad value of it at construction, with the same
:class:`~repro.errors.ConfigurationError`, through :func:`check_scenario`.
A fault aimed at a lane the bench lacks, or at a bit outside its ADC
word, raises the :class:`~repro.errors.FaultSpecError` the bench itself
would (:func:`~repro.faults.inject.check_fault_bounds`).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.faults.inject import check_fault_bounds
from repro.faults.spec import FaultSpec

__all__ = ["BENCH_ADC_BITS", "check_scenario"]

#: Resolution of the revolution-level benches' ADC.
BENCH_ADC_BITS = 14

#: Fields that must be finite; a tuple field is checked entry by entry.
_FINITE = ("revolution_frequency", "synchrotron_frequency", "jump_deg",
           "jump_toggle_period", "jump_start_time", "initial_delta_t")
#: What the entries of a tuple field stand for, in either bench mode.
_ENTRY = {"jump_deg": "lane", "initial_delta_t": "bunch"}
_POSITIVE = ("revolution_frequency", "synchrotron_frequency", "jump_toggle_period")


def check_scenario(config) -> None:
    """Raise :class:`ConfigurationError` for the first shared field of
    ``config`` out of its range; a field ``config`` does not have is
    skipped.  Faults the bench cannot arm raise
    :class:`~repro.errors.FaultSpecError`.
    """
    # NaN passes every sign check below, so finiteness comes first.
    for name in _FINITE:
        value = getattr(config, name, None)
        if isinstance(value, tuple):
            for i, v in enumerate(value):
                if not math.isfinite(v):
                    raise ConfigurationError(
                        f"{name} of {_ENTRY[name]} {i} must be finite, got {v!r}"
                    )
        elif value is not None and not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if config.harmonic < 1:
        raise ConfigurationError("harmonic must be >= 1")
    if not 1 <= getattr(config, "n_bunches", 1) <= config.harmonic:
        raise ConfigurationError("n_bunches must be in [1, harmonic]")
    for name in _POSITIVE:
        if getattr(config, name) <= 0:
            raise ConfigurationError(f"{name} must be positive")
    # The ADC's 2 Vpp input range.
    if not 0 < getattr(config, "adc_amplitude", 1.0) <= 1.0:
        raise ConfigurationError("adc_amplitude must be in (0, 1] volts")
    if getattr(config, "record_every", 1) < 1:
        raise ConfigurationError("record_every must be >= 1")
    precision = getattr(config, "precision", "single")
    if precision not in ("single", "double"):
        raise ConfigurationError(
            f"precision must be 'single' or 'double', got {precision!r}"
        )
    control_source = getattr(config, "control_source", "bunch0")
    if control_source not in ("bunch0", "mean"):
        raise ConfigurationError(
            f"control_source must be 'bunch0' or 'mean', got {control_source!r}"
        )
    faults = getattr(config, "faults", ())
    for s in faults:
        if not isinstance(s, FaultSpec):
            raise ConfigurationError(
                f"faults must be FaultSpec instances, got {type(s).__name__}"
            )
    # A lane config has one lane per jump amplitude, one loop lane 0 only.
    check_fault_bounds(
        faults, batch=getattr(config, "batch", None), adc_bits=BENCH_ADC_BITS
    )

"""Clock domains and the real-time capacity derivation.

The paper's real-time argument: one model iteration must complete within
one revolution period.  "The CGRA uses its own clock running at 111 MHz
... we can simulate particles with revolution frequencies of up to 1 MHz
due to our loop pipelining instead of the ≈ 867 kHz without loop
pipelining. ... By simulating only four bunches, we shrink down the
length of our schedule to a total of 99 clock ticks.  And if only a
single bunch is simulated, the schedule length is even further reduced
to 93 clock ticks.  Doing so allows us to simulate particles with
revolution frequencies of ≈ 1.12 MHz or ... ≈ 1.19 MHz respectively."

That is simply ``f_rev_max = f_CGRA / schedule_length``; this module
computes it and models the two clock domains of the design (250 MHz
system / 111 MHz CGRA).  The per-revolution check of the same budget
during a run is :class:`repro.hil.realtime.DeadlineMonitor`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ClockDomain", "max_revolution_frequency"]


@dataclass(frozen=True)
class ClockDomain:
    """A clock with a name and frequency."""

    name: str
    frequency_hz: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0.0:
            raise ConfigurationError(f"clock {self.name!r} must have positive frequency")


#: The framework's 250 MHz system/sample clock.
SYSTEM_CLOCK = ClockDomain("system", 250e6)
#: The CGRA overlay clock (timing closure limited it to 111 MHz).
CGRA_CLOCK = ClockDomain("cgra", 111e6)


def max_revolution_frequency(schedule_length_ticks: int, cgra_clock: ClockDomain = CGRA_CLOCK) -> float:
    """Highest revolution frequency a schedule can serve in real time.

    One iteration (``schedule_length_ticks``) must fit into one
    revolution period: f_rev_max = f_CGRA / length.
    """
    if schedule_length_ticks <= 0:
        raise ConfigurationError("schedule length must be positive")
    return cgra_clock.frequency_hz / schedule_length_ticks

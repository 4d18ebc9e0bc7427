"""The machine development experiment (MDE) scenario of 2023-11-24.

All evaluation parameters from Section V in one place, so the bench run
(Fig. 5a) and the machine emulation (Fig. 5b) cannot drift apart:

* ¹⁴N⁷⁺ ions in SIS18,
* reference 800 kHz, gap 3200 kHz (harmonic number 4),
* synchrotron frequency: 1.2 kHz measured in the MDE; the bench's input
  amplitude tuned to 1.28 kHz,
* phase jumps toggled every 1/20 s: 10° in the machine, 8° in the bench,
* control loop: FIR f_pass = 1.4 kHz, gain = −5, recursion factor 0.99.
"""

from __future__ import annotations

from repro.baselines.offline_tracker import MachineExperimentConfig
from repro.control import ControlLoopConfig
from repro.hil.simulator import HilConfig
from repro.physics.ion import KNOWN_IONS, IonSpecies
from repro.physics.ring import SIS18, SynchrotronRing

__all__ = [
    "MDE_DATE",
    "MDE_ION",
    "MDE_RING",
    "MDE_REVOLUTION_FREQUENCY",
    "MDE_HARMONIC",
    "MDE_SYNCHROTRON_FREQUENCY_MACHINE",
    "MDE_SYNCHROTRON_FREQUENCY_BENCH",
    "MDE_JUMP_DEG_MACHINE",
    "MDE_JUMP_DEG_BENCH",
    "MDE_TOGGLE_PERIOD",
    "bench_config",
    "machine_config",
]

#: Date of the machine development experiment at SIS18.
MDE_DATE = "2023-11-24"
MDE_ION: IonSpecies = KNOWN_IONS["14N7+"]
MDE_RING: SynchrotronRing = SIS18
MDE_REVOLUTION_FREQUENCY = 800e3
MDE_HARMONIC = 4
#: Synchrotron frequency measured in the machine experiment.
MDE_SYNCHROTRON_FREQUENCY_MACHINE = 1.2e3
#: Synchrotron frequency the bench's amplitude was adjusted to.
MDE_SYNCHROTRON_FREQUENCY_BENCH = 1.28e3
MDE_JUMP_DEG_MACHINE = 10.0
MDE_JUMP_DEG_BENCH = 8.0
#: "The phase jump was toggled every twentieth of a second."
MDE_TOGGLE_PERIOD = 0.05


def control_config() -> ControlLoopConfig:
    """The paper's control-loop settings at the MDE revolution rate."""
    return ControlLoopConfig(
        f_pass=1.4e3,
        gain=-5.0,
        recursion_factor=0.99,
        sample_rate=MDE_REVOLUTION_FREQUENCY,
    )


def bench_config(
    engine: str = "python",
    record_every: int = 8,
    **overrides,
) -> HilConfig:
    """The Fig. 5a bench configuration (8° jumps, f_s = 1.28 kHz).

    It computes in binary64: Fig. 5a and its golden traces always have,
    and ablation A3 bounds the single-precision overlay's deviation from
    it at 0.0008°, far inside the figure's ±0.01° bands.
    """
    kwargs = dict(
        ring=MDE_RING,
        ion=MDE_ION,
        harmonic=MDE_HARMONIC,
        revolution_frequency=MDE_REVOLUTION_FREQUENCY,
        synchrotron_frequency=MDE_SYNCHROTRON_FREQUENCY_BENCH,
        jump_deg=MDE_JUMP_DEG_BENCH,
        jump_toggle_period=MDE_TOGGLE_PERIOD,
        control=control_config(),
        engine=engine,
        precision="double",
        record_every=record_every,
    )
    kwargs.update(overrides)
    return HilConfig(**kwargs)


def machine_config(
    n_particles: int = 5000,
    record_every: int = 8,
    **overrides,
) -> MachineExperimentConfig:
    """The Fig. 5b machine configuration (10° jumps, f_s = 1.2 kHz)."""
    kwargs = dict(
        ring=MDE_RING,
        ion=MDE_ION,
        harmonic=MDE_HARMONIC,
        revolution_frequency=MDE_REVOLUTION_FREQUENCY,
        synchrotron_frequency=MDE_SYNCHROTRON_FREQUENCY_MACHINE,
        jump_deg=MDE_JUMP_DEG_MACHINE,
        jump_toggle_period=MDE_TOGGLE_PERIOD,
        control=control_config(),
        n_particles=n_particles,
        record_every=record_every,
    )
    kwargs.update(overrides)
    return MachineExperimentConfig(**kwargs)

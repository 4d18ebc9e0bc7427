"""Ion species definitions.

The paper's evaluation simulates the acceleration of ¹⁴N⁷⁺ ions in the GSI
SIS18 (Fig. 5 caption).  :class:`IonSpecies` captures what the tracking
equations need: the rest energy m·c² and the charge state Q (paper Eq. 2
uses the ratio Q/(m c²) to convert gap voltage into a change of γ).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import ATOMIC_MASS_EV
from repro.errors import ConfigurationError

__all__ = ["IonSpecies", "KNOWN_IONS"]


@dataclass(frozen=True)
class IonSpecies:
    """A fully ionised or partially stripped ion.

    Parameters
    ----------
    name:
        Human-readable label, e.g. ``"14N7+"``.
    mass_number:
        Nucleon count A (used as the default mass in u).
    charge_state:
        Charge state Q in units of the elementary charge.
    mass_u:
        Ion mass in unified atomic mass units.  Defaults to the mass
        number; pass a precise isotopic mass when it matters.
    """

    name: str
    mass_number: int
    charge_state: int
    mass_u: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.mass_number <= 0:
            raise ConfigurationError(f"mass_number must be positive, got {self.mass_number}")
        if self.charge_state <= 0:
            raise ConfigurationError(f"charge_state must be positive, got {self.charge_state}")
        if self.charge_state > self.mass_number:
            raise ConfigurationError(
                f"charge_state {self.charge_state} exceeds mass_number {self.mass_number}"
            )
        if self.mass_u == 0.0:
            object.__setattr__(self, "mass_u", float(self.mass_number))
        if self.mass_u <= 0.0:
            raise ConfigurationError(f"mass_u must be positive, got {self.mass_u}")

    @property
    def rest_energy_ev(self) -> float:
        """Rest energy m·c² in eV."""
        return self.mass_u * ATOMIC_MASS_EV

    def gamma_gain_per_volt(self) -> float:
        """Δγ produced by one volt of effective gap voltage (Eq. 2 factor Q/mc²)."""
        return self.charge_state / self.rest_energy_ev


#: Species used in the paper and commonly at SIS18.
KNOWN_IONS: dict[str, IonSpecies] = {
    "14N7+": IonSpecies("14N7+", mass_number=14, charge_state=7, mass_u=14.003074),
    "40Ar18+": IonSpecies("40Ar18+", mass_number=40, charge_state=18, mass_u=39.9623831),
    "238U28+": IonSpecies("238U28+", mass_number=238, charge_state=28, mass_u=238.0507882),
    "1H1+": IonSpecies("1H1+", mass_number=1, charge_state=1, mass_u=1.007276466),
}

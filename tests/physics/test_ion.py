"""Tests for ion species definitions."""

import pytest

from repro.constants import ATOMIC_MASS_EV
from repro.errors import ConfigurationError
from repro.physics.ion import IonSpecies, KNOWN_IONS


class TestIonSpecies:
    def test_n14_properties(self):
        ion = KNOWN_IONS["14N7+"]
        assert ion.mass_number == 14
        assert ion.charge_state == 7
        # rest energy ~ 14 u ~ 13.04 GeV
        assert ion.rest_energy_ev == pytest.approx(14.003074 * ATOMIC_MASS_EV)
        assert 13.0e9 < ion.rest_energy_ev < 13.1e9

    def test_default_mass_is_mass_number(self):
        ion = IonSpecies("40Ca20+", mass_number=40, charge_state=20)
        assert ion.mass_u == 40.0

    def test_gamma_gain_per_volt(self):
        ion = KNOWN_IONS["14N7+"]
        # Eq. 2: dgamma = Q/(m c^2) * V; for 1 V it is Q / rest_energy
        assert ion.gamma_gain_per_volt() == pytest.approx(7.0 / ion.rest_energy_ev)

    def test_invalid_charge_state(self):
        with pytest.raises(ConfigurationError):
            IonSpecies("bad", mass_number=4, charge_state=5)
        with pytest.raises(ConfigurationError):
            IonSpecies("bad", mass_number=4, charge_state=0)

    def test_invalid_mass(self):
        with pytest.raises(ConfigurationError):
            IonSpecies("bad", mass_number=0, charge_state=1)
        with pytest.raises(ConfigurationError):
            IonSpecies("bad", mass_number=4, charge_state=2, mass_u=-1.0)

    def test_frozen(self):
        ion = KNOWN_IONS["14N7+"]
        with pytest.raises(AttributeError):
            ion.charge_state = 8

    def test_known_ions_consistent(self):
        for name, ion in KNOWN_IONS.items():
            assert ion.name == name
            assert ion.mass_u == pytest.approx(ion.mass_number, rel=0.01)

"""Physical constants used throughout the reproduction.

All values follow CODATA 2018 and are spelled out here, so the package's
numeric behaviour does not depend on any library's copy of them.

Unit conventions used across :mod:`repro`
-----------------------------------------
* time               — seconds
* length             — metres
* voltage            — volts (real gap voltage, i.e. several kV)
* energy             — electron-volts unless a name says ``_joule``
* mass               — unified atomic mass units (``u``) in user-facing API,
                       converted internally via :data:`ATOMIC_MASS_EV`
* charge             — elementary charges (``Q`` = charge *state*) in
                       user-facing API
* frequency          — hertz
* phase              — radians unless a name says ``_deg``

The tracking equations (paper Eqs. 2, 3 and 6) are evaluated in the
``(Δt, Δγ)`` longitudinal phase-space coordinates, exactly as in the paper.
"""

from __future__ import annotations

import math

#: Speed of light in vacuum [m/s] (exact).
SPEED_OF_LIGHT: float = 299_792_458.0

#: Elementary charge [C] (exact, SI 2019).
ELEMENTARY_CHARGE: float = 1.602_176_634e-19

#: Unified atomic mass unit [kg].
ATOMIC_MASS_KG: float = 1.660_539_066_60e-27

#: Rest energy of one atomic mass unit [eV]: u·c²/e.
ATOMIC_MASS_EV: float = ATOMIC_MASS_KG * SPEED_OF_LIGHT**2 / ELEMENTARY_CHARGE

#: Electron rest energy [eV].
ELECTRON_MASS_EV: float = 510_998.950_00

#: Proton rest energy [eV].
PROTON_MASS_EV: float = 938_272_088.16e-3 * 1e3  # 938.27208816 MeV

#: 2π, spelled once.
TWO_PI: float = 2.0 * math.pi


def deg_to_rad(angle_deg: float) -> float:
    """Convert degrees to radians (scalar or array-like passthrough)."""
    return angle_deg * (math.pi / 180.0)


def rad_to_deg(angle_rad: float) -> float:
    """Convert radians to degrees (scalar or array-like passthrough)."""
    return angle_rad * (180.0 / math.pi)

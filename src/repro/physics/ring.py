"""Synchrotron ring parameters and the momentum-compaction relations.

Implements paper Eqs. 4 and 5: the momentum compaction factor α_c relates
a momentum deviation to an orbit-length deviation, and the phase-slip
factor

.. math::

    \\eta_{R,n} = \\alpha_c - \\frac{1}{\\gamma_{R,n}^2}

relates it to the revolution-time deviation.  Below transition energy
(γ < γ_t = 1/√α_c) the phase-slip factor is negative: a higher-energy
particle arrives *earlier*, which is what makes the stationary bucket at
the rising zero crossing stable (paper Fig. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.constants import SPEED_OF_LIGHT
from repro.errors import ConfigurationError, PhysicsError
from repro.physics.relativity import beta_from_gamma

__all__ = ["SynchrotronRing", "SIS18"]


@dataclass(frozen=True)
class SynchrotronRing:
    """Static lattice parameters of a synchrotron.

    Parameters
    ----------
    name:
        Label for reports.
    circumference:
        Reference-orbit length l_R in metres (constant for the reference
        particle, paper Section IV-A).
    alpha_c:
        Momentum compaction factor α_c.  Positive "as in most cases"
        (paper, after Eq. 3); for SIS18 α_c = 1/γ_t² with γ_t ≈ 5.45.
    """

    name: str
    circumference: float
    alpha_c: float

    def __post_init__(self) -> None:
        if self.circumference <= 0.0:
            raise ConfigurationError("circumference must be positive")
        if self.alpha_c <= 0.0:
            raise ConfigurationError(
                "alpha_c must be positive for this model (paper assumes "
                f"a positive momentum compaction), got {self.alpha_c}"
            )

    def phase_slip(self, gamma):
        """Phase-slip factor η(γ) = α_c − 1/γ² (paper Eq. 5).

        Accepts scalars or arrays; negative below transition.
        """
        g = np.asarray(gamma, dtype=float)
        if np.any(g < 1.0):
            raise PhysicsError(f"gamma must be >= 1, got {gamma!r}")
        eta = self.alpha_c - 1.0 / (g * g)
        return float(eta) if np.isscalar(gamma) else eta

    def revolution_frequency(self, gamma) -> float:
        """Revolution frequency f_R = β c / l_R."""
        beta = beta_from_gamma(gamma)
        return beta * SPEED_OF_LIGHT / self.circumference

    def beta_from_revolution_frequency(self, f_rev: float) -> float:
        """Invert f_R = β c / l_R; used by the simulator's initialisation.

        The paper's CGRA program measures the reference period with the
        period-length detector and derives β_R,0 and γ_R,0 from it
        (Section IV-B); this is the same computation.
        """
        if f_rev <= 0.0:
            raise PhysicsError("revolution frequency must be positive")
        beta = f_rev * self.circumference / SPEED_OF_LIGHT
        if beta >= 1.0:
            raise PhysicsError(
                f"revolution frequency {f_rev} Hz implies beta={beta:.4f} >= 1 "
                f"for circumference {self.circumference} m"
            )
        return beta

    def gamma_from_revolution_frequency(self, f_rev: float) -> float:
        """γ of a particle circulating at revolution frequency ``f_rev``."""
        beta = self.beta_from_revolution_frequency(f_rev)
        return 1.0 / math.sqrt(1.0 - beta * beta)


#: The GSI heavy-ion synchrotron SIS18 (Darmstadt): 216.72 m circumference,
#: transition gamma ≈ 5.45.
SIS18 = SynchrotronRing(name="SIS18", circumference=216.72, alpha_c=1.0 / 5.45**2)

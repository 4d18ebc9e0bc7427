"""Relativistic kinematics (paper Eq. 1).

The paper works exclusively with the two Lorentz factors

.. math::

    \\beta_v = v / c, \\qquad \\gamma_v = 1 / \\sqrt{1 - \\beta_v^2},

noting that "these factors are interdependent, so knowing one of them is
sufficient for all further calculations".  The tracker carries γ, and
:func:`beta_from_gamma` recovers β from it.  It accepts scalars or NumPy
arrays and returns the matching type.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PhysicsError

__all__ = ["beta_from_gamma"]


def beta_from_gamma(gamma):
    """Velocity fraction β = v/c for a Lorentz factor γ ≥ 1.

    Raises :class:`~repro.errors.PhysicsError` for γ < 1, which has no
    physical meaning for a free particle.
    """
    gamma_arr = np.asarray(gamma, dtype=float)
    if np.any(gamma_arr < 1.0):
        raise PhysicsError(f"gamma must be >= 1, got {gamma!r}")
    beta = np.sqrt(1.0 - 1.0 / (gamma_arr * gamma_arr))
    return float(beta) if np.isscalar(gamma) else beta

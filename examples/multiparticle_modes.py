#!/usr/bin/env python3
"""Multi-macro-particle extension: Landau damping and the quadrupole mode.

Section VI of the paper plans to "replace the single macro particle with
a set of macro particles", enabling other oscillation modes (like the
quadrupole oscillation) and a parametric bunch profile.  This example
runs that extension:

1. a *dipole* kick (whole bunch displaced) with the control loop OFF —
   the coherent oscillation decays by filamentation/Landau damping alone;
2. the same kick with the loop ON — much faster damping (the paper's
   point that loop damping dominates);
3. a *quadrupole* excitation (bunch-length mismatch) — σ_Δt oscillates
   at ≈ 2·f_s, invisible to the single-particle bench.

Run:  python examples/multiparticle_modes.py
"""

import numpy as np

from repro import SIS18, KNOWN_IONS, MultiParticleTracker, RFSystem
from repro.physics.distributions import gaussian_bunch
from repro.physics.oscillation import estimate_oscillation_frequency
from repro.physics.rf import synchrotron_frequency, voltage_for_synchrotron_frequency
from repro.experiments import landau_damping_comparison


def quadrupole_demo() -> None:
    ring, ion = SIS18, KNOWN_IONS["14N7+"]
    f_rev = 800e3
    gamma = ring.gamma_from_revolution_frequency(f_rev)
    probe = RFSystem(harmonic=4, voltage=1.0)
    voltage = voltage_for_synchrotron_frequency(ring, ion, probe, gamma, 1.28e3)
    rf = probe.with_voltage(voltage)
    f_s = synchrotron_frequency(ring, ion, rf, gamma)

    rng = np.random.default_rng(42)
    delta_t, delta_gamma = gaussian_bunch(ring, ion, rf, gamma, 15e-9, 4000, rng)
    # Quadrupole excitation: squeeze the bunch to 60% length (mismatch).
    delta_t *= 0.6
    tracker = MultiParticleTracker(ring, ion, rf, delta_t, delta_gamma, gamma)
    record = tracker.track(24000, f_rev=f_rev, record_every=4)

    f_quad = estimate_oscillation_frequency(record.time, record.std_delta_t)
    print("quadrupole mode (bunch-length oscillation):")
    print(f"  sigma oscillates at {f_quad:.0f} Hz ~= 2 x f_s = {2 * f_s:.0f} Hz")
    print(f"  dipole moment stays quiet: |<dt>| < "
          f"{np.abs(record.mean_delta_t).max() * 1e9:.2f} ns\n")


def main() -> None:
    print("Landau damping / filamentation vs. control-loop damping")
    rows = landau_damping_comparison(n_particles=3000)
    for row in rows:
        label = "loop ON " if row.control_enabled else "loop OFF"
        print(f"  {label}: damping rate {row.damping_rate:8.1f} /s "
              f"(tau {row.time_constant * 1e3:6.1f} ms), "
              f"bunch length growth {row.bunch_length_growth * 100:5.1f}%, "
              f"residual {row.residual_amplitude_deg:.2f} deg")
    off, on = rows[0], rows[1]
    print(f"  -> loop damping is {on.damping_rate / max(off.damping_rate, 1e-9):.0f}x stronger "
          "(the paper's justification for neglecting Landau damping)\n")

    quadrupole_demo()


if __name__ == "__main__":
    main()

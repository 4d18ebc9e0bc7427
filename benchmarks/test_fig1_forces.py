"""E1 — Fig. 1: sample forces that influence a bunch.

Regenerates the gap-voltage curve and the per-particle energy kicks for
the paper's stationary-bucket illustration, and times the generator.
"""

from repro.experiments.fig1 import fig1_forces_data


def test_fig1_forces(benchmark, report):
    data = benchmark(fig1_forces_data)

    rows = [
        f"gap voltage over one RF period: {len(data.time)} points, "
        f"peak {data.voltage.max():.0f} V",
    ]
    labels = ["early (dt<0)", "reference", "late (dt>0)"]
    for label, dt, v, kick in zip(
        labels, data.particle_delta_t, data.particle_voltage,
        data.particle_delta_gamma_kick,
    ):
        rows.append(
            f"{label:>14}: dt={dt * 1e9:+7.2f} ns  V={v:+9.1f} V  "
            f"dGamma/turn={kick:+.3e}"
        )
    rows.append("paper shape: late particle accelerated, early decelerated — "
                + ("OK" if data.particle_delta_gamma_kick[2] > 0 >
                   data.particle_delta_gamma_kick[0] else "MISMATCH"))
    report(benchmark, "Fig. 1 — forces on a bunch", rows)

    assert data.particle_delta_gamma_kick[2] > 0 > data.particle_delta_gamma_kick[0]

"""E10 — Landau damping / filamentation vs. control-loop damping.

The multi-particle extension quantifying Section V's argument: the loop
damps the dipole oscillation much faster than Landau damping and
filamentation do, so the single-macro-particle bench may neglect them.
"""

from repro.experiments.landau import landau_damping_comparison


def test_landau_vs_loop_damping(benchmark, report):
    rows_data = benchmark.pedantic(
        landau_damping_comparison,
        kwargs={"n_particles": 3000},
        rounds=1,
        iterations=1,
    )

    rows = [
        "configuration   damping rate   1/e time    sigma growth   residual",
    ]
    for r in rows_data:
        label = "loop ON " if r.control_enabled else "loop OFF"
        rows.append(
            f"{label}        {r.damping_rate:8.1f} /s   "
            f"{r.time_constant * 1e3:7.2f} ms   {r.bunch_length_growth * 100:8.1f} %   "
            f"{r.residual_amplitude_deg:6.2f} deg"
        )
    off = next(r for r in rows_data if not r.control_enabled)
    on = next(r for r in rows_data if r.control_enabled)
    rows.append(
        f"loop damping is {on.damping_rate / off.damping_rate:.1f}x stronger than "
        "Landau damping/filamentation — the paper's justification for the "
        "single-macro-particle simplification."
    )
    report(benchmark, "E10 — Landau damping vs. control loop", rows)

    assert off.damping_rate > 0.0
    assert on.damping_rate > 3 * off.damping_rate
    assert off.bunch_length_growth > 0.0

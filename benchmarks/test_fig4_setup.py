"""E4 — Fig. 4: the experimental setup (closed-loop step cost).

Builds the full Fig. 4 bench — synchronised DDS group, AWG phase-jump
drive toggling every 1/20 s, beam model, DSP phase detection, control
loop — verifies the drive cadence, and measures the cost of one closed-
loop revolution on the fast path.
"""

from repro.experiments.mde import bench_config
from repro.hil.simulator import CavityInTheLoop


def test_fig4_closed_loop_step(benchmark, report):
    sim = CavityInTheLoop(bench_config())

    # The paper's drive cadence: toggles every twentieth of a second.
    toggles = sim.jump.toggle_times(1.0)
    assert len(toggles) == 20

    def steps():
        sim.run(1000 / sim.f_rev)

    benchmark.pedantic(steps, rounds=3, iterations=1)
    per_rev = benchmark.stats["mean"] / 1000

    rows = [
        f"bench: f_ref = 800 kHz, gap = 3200 kHz (h = 4), "
        f"V_gap tuned to {sim.gap_voltage_amplitude:.0f} V for f_s = 1.28 kHz",
        f"AWG drive: 8 deg jumps toggled every 0.05 s "
        f"({len(toggles)} toggles per second, as in the paper)",
        f"control loop: f_pass = 1.4 kHz, gain = -5, recursion = 0.99",
        f"fast-path cost per closed-loop revolution: {per_rev * 1e6:.1f} us "
        f"({per_rev / 1.25e-6:.1f}x the real revolution period)",
        f"CGRA schedule for the same model: {sim.model.schedule_length} ticks "
        f"= {sim.model.schedule_length / 111.0:.2f} us at 111 MHz (real time)",
    ]
    report(benchmark, "Fig. 4 — experimental setup, closed-loop step", rows)

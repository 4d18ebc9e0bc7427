"""E3 — Fig. 3: the FPGA framework, sample-accurate throughput.

Streams revolutions through the full Fig. 3 chain (ADC → ring buffers →
detectors → CGRA → Gauss generator → DAC) and measures the wall-clock
cost per simulated revolution.  This quantifies the repro band's caveat:
the *Python* simulation of the framework is orders of magnitude away
from the 1.25 µs real-time revolution period — the real-time claim lives
in the cycle domain (see E6), not in Python wall clock.
"""

from repro.hil.framework import FpgaFramework, FrameworkConfig
from repro.physics import SIS18, KNOWN_IONS
from repro.signal.dds import GroupDDS


def _stream(n_revolutions: int) -> FpgaFramework:
    gap_volts, adc_amp = 4862.0, 0.9
    fw = FpgaFramework(FrameworkConfig(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        harmonic=4,
        gap_volts_per_adc_volt=gap_volts / adc_amp,
        ref_volts_per_adc_volt=4 * gap_volts / adc_amp,
    ))
    group = GroupDDS(800e3, 4, adc_amp, 250e6)
    group.reset_phase()
    block = 312
    for _ in range(n_revolutions):
        ref, gap = group.generate(block)
        fw.feed(ref.samples, gap.samples)
    return fw


def test_fig3_framework_throughput(benchmark, report):
    n_rev = 120
    fw = benchmark.pedantic(_stream, args=(n_rev,), rounds=3, iterations=1)

    per_rev = benchmark.stats["mean"] / n_rev
    t_rev = 1.25e-6
    rows = [
        f"streamed {n_rev} revolutions through the full Fig. 3 chain "
        f"(14-bit ADC @ 250 MHz, 8192-deep buffers, CGRA, 16-bit DAC)",
        f"python wall clock per revolution: {per_rev * 1e3:.2f} ms "
        f"({per_rev / t_rev:.0f}x slower than the 1.25 us revolution)",
        f"cycle-domain budget (the real claim): "
        f"{fw.model.schedule_length} ticks used of "
        f"{111e6 / 800e3:.1f} available -> slack "
        f"{fw.deadline.stats().min_slack:.1f} ticks",
        f"model iterations completed: {fw.executor.iterations}, "
        f"deadline met: {fw.deadline.stats().met}",
    ]
    report(benchmark, "Fig. 3 — framework throughput (sample-accurate)", rows)
    assert fw.deadline.stats().met

"""Ablation A4 — ADC resolution.

The FMC151 provides 14 bits; this ablation sweeps the ADC resolution to
show how much headroom the design has (and where the emulation would
start to degrade), measured on the Fig. 5 phase observable.
"""

import numpy as np

from repro.experiments.mde import bench_config
from repro.hil.simulator import CavityInTheLoop
from repro.signal.adc import ADC


def _phase_error(bits: int) -> float:
    """Worst phase deviation vs. the unquantised run over 10 ms."""
    base_cfg = bench_config(record_every=1, jump_start_time=0.002,
                            quantize_adc=False)
    ref = CavityInTheLoop(base_cfg).run(0.01)

    cfg = bench_config(record_every=1, jump_start_time=0.002, quantize_adc=True)
    sim = CavityInTheLoop(cfg)
    # Swap the converter the bench's signal chain reads.
    sim._signals.adc = ADC(bits=bits, vpp=2.0)
    res = sim.run(0.01)
    return float(np.abs(res.phase_deg - ref.phase_deg).max())


def test_adc_resolution_sweep(benchmark, report):
    bits_list = [6, 8, 10, 14]

    def sweep():
        return {b: _phase_error(b) for b in bits_list}

    errors = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = ["ADC bits   worst phase deviation vs. ideal (deg)"]
    for b in bits_list:
        marker = "  <- FMC151" if b == 14 else ""
        rows.append(f"{b:8d}   {errors[b]:10.4f}{marker}")
    rows.append(
        "the 14-bit FMC151 leaves the emulated dynamics essentially "
        "unperturbed; degradation appears below ~8 bits."
    )
    report(benchmark, "A4 — ADC resolution", rows)

    assert errors[14] < 0.3
    assert errors[6] > errors[14]

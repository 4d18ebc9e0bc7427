"""Golden telemetry exports of every HIL run owner.

One short run of each owner — the Fig. 5a bench with tracing on, an
8-lane batched sweep, one fault-lane shard, the sample-accurate bench,
the ramp-up run and the Fig. 5b machine emulator — must leave exactly
the metric snapshot and run reports recorded here.  The expected values
were taken while every instrument was still written once per call, so
they pin that publishing the per-revolution metrics once per run moves
no number.  A missing publication fails here even when every other test
passes.  The wall-clock series (``cgra_iterations_per_second``,
``parallel_shard_seconds``) are left out, and so are instruments with no
series (which ones exist depends on what the test run imported).
Values were taken on x86-64 with NumPy 2.4 (see
``tests/hil/test_batch_golden.py`` for the platform caveat).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.faults.spec import FaultKind, FaultSpec
from repro.physics import KNOWN_IONS, SIS18

GOLDEN = Path(__file__).with_name("export_golden.json")

#: Series measured in wall-clock time, different on every run.
WALL_CLOCK = ("cgra_iterations_per_second", "parallel_shard_seconds")


def _fig5a():
    from repro.experiments.fig5 import fig5_run_bench

    fig5_run_bench(duration=0.01)


def _sweep():
    from repro.hil.batch import BatchedCavityInTheLoop, BatchHilConfig

    config = BatchHilConfig(
        ring=SIS18, ion=KNOWN_IONS["14N7+"],
        jump_deg=tuple(float(a) for a in np.linspace(2.0, 12.0, 8)),
    )
    BatchedCavityInTheLoop(config).run(0.005)


def _fault_shard():
    from repro.faults.engine import run_fault_lanes

    specs = (
        FaultSpec(kind=FaultKind.ADC_STUCK_BIT, magnitude=12.0, onset_time=0.002,
                  duration=0.004),
        FaultSpec(kind=FaultKind.AMPLIFIER_SATURATION, magnitude=0.1,
                  onset_time=0.002),
        FaultSpec(kind=FaultKind.DDS_PHASE_GLITCH, magnitude=math.pi / 4,
                  onset_time=0.003, duration=0.002),
        None,
    )
    run_fault_lanes(specs, 0.006)


def _sample_accurate():
    from repro.control import ControlLoopConfig
    from repro.hil.closed_loop import SampleAccurateBench, SampleAccurateBenchConfig

    SampleAccurateBench(SampleAccurateBenchConfig(
        ring=SIS18, ion=KNOWN_IONS["14N7+"], jump_start_time=0.0,
        control=ControlLoopConfig(sample_rate=800e3, gain_scale=0.1),
    )).run_revolutions(40)


def _rampup():
    from repro.experiments.rampup import RampUpScenario, rampup_run

    rampup_run(RampUpScenario(
        ring=SIS18, ion=KNOWN_IONS["14N7+"], f_start=700e3, f_end=710e3,
        duration=0.005,
    ), record_every=32)


def _machine():
    from repro.control import ControlLoopConfig
    from repro.experiments.fig5 import fig5_run_machine

    # A tight saturation limit so the saturation counter moves too.
    fig5_run_machine(duration=0.005, n_particles=200, seed=7, control=ControlLoopConfig(
        sample_rate=800e3, saturation_deg=0.05))


OWNERS = {
    "fig5a_traced": (_fig5a, True),
    "batched_sweep": (_sweep, False),
    "fault_shard": (_fault_shard, False),
    "sample_accurate": (_sample_accurate, False),
    "rampup": (_rampup, False),
    "machine_emulator": (_machine, False),
}


def export_payload(owner: str) -> dict:
    """Run one owner with telemetry on; its snapshot and run reports,
    as the JSON-ready dicts the exporters write."""
    run, trace = OWNERS[owner]
    run()  # warm compile caches: cache hit/miss counts stay run-independent
    obs.reset()
    obs.enable(trace=trace)
    try:
        run()
        snapshot = {
            name: {"kind": entry["kind"], "series": entry["series"]}
            for name, entry in obs.metrics().snapshot().items()
            if entry["series"] and name not in WALL_CLOCK
        }
        reports = [report.to_dict() for report in obs.run_reports()]
    finally:
        obs.disable()
        obs.reset()
    # The JSON round trip turns tuples into lists and keys into strings,
    # exactly as the exporters write them.
    return json.loads(json.dumps({"metrics": snapshot, "reports": reports}))


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_export_matches_golden(owner):
    expected = json.loads(GOLDEN.read_text())[owner]
    assert export_payload(owner) == expected

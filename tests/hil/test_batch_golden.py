"""Golden digests of the batched closed loop.

Pins the sha256 of every array of :class:`BatchHilRunResult` for two
fixed runs: an 8-lane jump-amplitude sweep and an 8-lane
``run_fault_lanes`` mix with every loop-fault kind at its most severe
rung (plus one unfaulted lane).  The digests were recorded with the
engine that broadcast every sensor read to ``[B]`` arrays, so they
prove that lane-uniform scalar reads and the guard-free batched step
leave the outputs bit-identical.  They were taken on x86-64 with
NumPy 2.4: a platform whose ``np.sin`` rounds differently will disagree
here before it disagrees anywhere else.  A deliberate model change needs
new digests and a line in CHANGES.md saying why.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.faults.campaign import MAGNITUDE_LADDER
from repro.faults.engine import run_fault_lanes
from repro.faults.inject import LOOP_KINDS
from repro.faults.spec import FaultKind, FaultSpec
from repro.hil.batch import BatchedCavityInTheLoop, BatchHilConfig
from repro.physics import KNOWN_IONS, SIS18

FIELDS = ("time", "phase_deg", "correction_deg", "jump_deg", "delta_t",
          "delta_t_all", "gamma_ref")

#: 0.02 s sweep, lanes at 2..12 deg, every revolution recorded.
SWEEP = {
    "time": (
        (16001,),
        "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
    ),
    "phase_deg": (
        (16001, 8),
        "bed52c747bf0eed132ee3242efcc5c744dc00969fc44dabfc99ab4df8dce2488",
    ),
    "correction_deg": (
        (16001, 8),
        "ad8525138be6b8c36a20f28ed96b181ad637a7b36290ce376d86d6375771db56",
    ),
    "jump_deg": (
        (16001, 8),
        "3137e3b179afd79841b22136cd123717508a95f44334a81458cff22831e90816",
    ),
    "delta_t": (
        (16001, 8),
        "99628caa452e1154474f6a41daa84160556ac53022f9fd4776e72ea57b83abb3",
    ),
    "delta_t_all": (
        (16001, 8, 1),
        "99628caa452e1154474f6a41daa84160556ac53022f9fd4776e72ea57b83abb3",
    ),
    "gamma_ref": (
        (16001, 8),
        "54c8e768a056559e8acda9b13c7e41a8ed9126be634b8d0c645837bf4c29ea3a",
    ),
}

#: 0.02 s fault mix, faults on from 5 ms to 15 ms, every 8th turn recorded.
FAULT_MIX = {
    "time": (
        (2001,),
        "f3d70b186a6d9e9d66494c969db6f12afbe1bd61d87d9a9c4b35e516f62725ce",
    ),
    "phase_deg": (
        (2001, 8),
        "a9dda34c50d0c149a2be31d7a7264e0c6ec3a841381fbe087da417bd34c41cd3",
    ),
    "correction_deg": (
        (2001, 8),
        "547abacb329764174f727262b7feaac3477853cb84a501757da9a80e11def4c5",
    ),
    "jump_deg": (
        (2001, 8),
        "0fbf10a024332007fb3fd551f5d9d9b1c24c2d44ab60e4be27b518e304b3c207",
    ),
    "delta_t": (
        (2001, 8),
        "9811d441c2d23470233784fe0a3a2784ddf1257962d34075923a30215415bca7",
    ),
    "delta_t_all": (
        (2001, 8, 1),
        "9811d441c2d23470233784fe0a3a2784ddf1257962d34075923a30215415bca7",
    ),
    "gamma_ref": (
        (2001, 8),
        "3a27f031b9929032c39812dc92b7dcc502c499c0f0ff2b0a0fcfec99962d0dc8",
    ),
}


def _assert_digests(result, expected: dict) -> None:
    for name in FIELDS:
        array = getattr(result, name)
        digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        assert (array.shape, digest) == expected[name], name


def test_sweep_digests():
    config = BatchHilConfig(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        jump_deg=tuple(float(a) for a in np.linspace(2.0, 12.0, 8)),
    )
    _assert_digests(BatchedCavityInTheLoop(config).run(0.02), SWEEP)


def test_fault_mix_digests(monkeypatch):
    kinds = [kind for kind in FaultKind if kind in LOOP_KINDS]
    assert len(kinds) == 7
    specs = [
        FaultSpec(kind=kind, magnitude=MAGNITUDE_LADDER[kind][-1], onset_time=0.005,
                  duration=0.01, seed=100 + i, label=kind.value)
        for i, kind in enumerate(kinds)
    ]
    # run_fault_lanes returns only time and phase; capture the full result.
    results = []
    run = BatchedCavityInTheLoop.run

    def capture(self, duration):
        results.append(run(self, duration))
        return results[-1]

    monkeypatch.setattr(BatchedCavityInTheLoop, "run", capture)
    run_fault_lanes((*specs, None), 0.02)
    (result,) = results
    _assert_digests(result, FAULT_MIX)
    # Every fault kind acted: each faulted lane leaves the clean lane 7.
    for lane in range(7):
        assert not np.array_equal(result.phase_deg[:, lane], result.phase_deg[:, 7])


"""Golden digests of the scalar Fig. 5a closed loop (Python engine).

Pins the sha256 of every array of :class:`HilRunResult` for seven short
runs of :class:`CavityInTheLoop`: the default Fig. 5a bench, two
averaged bunches with injection offsets, the unpipelined model, the
dual-harmonic cavity, the unquantised ADC, and one ADC stuck-bit and one
DDS-glitch fault.  Every revolution is recorded, so a changed rounding
anywhere in the per-turn model shows up here.  The digests were taken
on x86-64 with NumPy 2.4; a platform whose ``math.sin`` rounds
differently will disagree here first (as in ``test_batch_golden.py``).
A deliberate model change needs new digests and a line in CHANGES.md
saying why.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.experiments.mde import bench_config
from repro.faults.spec import FaultKind, FaultSpec
from repro.hil.simulator import CavityInTheLoop

FIELDS = ("time", "phase_deg", "correction_deg", "jump_deg", "delta_t",
          "delta_t_all", "gamma_ref")

#: Machine time of each run: the first 8-degree jump lands at 5 ms.
DURATION = 0.02

VARIANTS = {
    "default": {},
    "two_bunches_mean": dict(n_bunches=2, control_source="mean",
                             initial_delta_t=(4e-9, -7e-9)),
    "unpipelined": dict(pipelined=False),
    "dual_harmonic": dict(dual_harmonic_ratio=0.25),
    "unquantized": dict(quantize_adc=False),
    "adc_stuck_bit": dict(faults=(FaultSpec(
        kind=FaultKind.ADC_STUCK_BIT, magnitude=9.0, onset_time=0.006,
        duration=0.008),)),
    "dds_glitch": dict(faults=(FaultSpec(
        kind=FaultKind.DDS_PHASE_GLITCH, magnitude=math.pi / 8, onset_time=0.006,
        duration=0.008),)),
}

#: sha256 of each result array, recorded before the Python step moved
#: from NumPy element access to Python floats.
GOLDEN = {
    "adc_stuck_bit": {
        "time": (
            (16001,),
            "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
        ),
        "phase_deg": (
            (16001,),
            "75c8ac7bb4d9ac7f24eab036986215eb63b5561fc0f86895b4a87e9228b041d0",
        ),
        "correction_deg": (
            (16001,),
            "c72183951b68b34ae0d4ded0a152ac19619d4135c587f1d99e186ff7821d6c8d",
        ),
        "jump_deg": (
            (16001,),
            "9c7065266ad09964f3baee3d740757be1e9e972743c8bff95de7c83c79ad6dcf",
        ),
        "delta_t": (
            (16001,),
            "6f36ca71aa4f49e7eff09c8b67904e142ef873f879a995703b6d84ae5190f3d6",
        ),
        "delta_t_all": (
            (16001, 1),
            "6f36ca71aa4f49e7eff09c8b67904e142ef873f879a995703b6d84ae5190f3d6",
        ),
        "gamma_ref": (
            (16001,),
            "68becb1198a7153b40449c3be8f6f8b54b630d31b57fee68a949c911c8533e72",
        ),
    },
    "dds_glitch": {
        "time": (
            (16001,),
            "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
        ),
        "phase_deg": (
            (16001,),
            "b0ba71e9f5fd8b4d262979e3d240976ff083a8212411900395aac049f329e515",
        ),
        "correction_deg": (
            (16001,),
            "a210227194bf38bd7f3b8ae6092894ac5158b867c7e187c1cb50935587a06de7",
        ),
        "jump_deg": (
            (16001,),
            "9c7065266ad09964f3baee3d740757be1e9e972743c8bff95de7c83c79ad6dcf",
        ),
        "delta_t": (
            (16001,),
            "fdc87a97f3d80699edf09210f674e2975e3dc93d7bc297cc3335c507e1ff3a95",
        ),
        "delta_t_all": (
            (16001, 1),
            "fdc87a97f3d80699edf09210f674e2975e3dc93d7bc297cc3335c507e1ff3a95",
        ),
        "gamma_ref": (
            (16001,),
            "68becb1198a7153b40449c3be8f6f8b54b630d31b57fee68a949c911c8533e72",
        ),
    },
    "default": {
        "time": (
            (16001,),
            "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
        ),
        "phase_deg": (
            (16001,),
            "382eef8fd0f99317fe717d48084307dd600170b41480a6cab60a62d993ebbe86",
        ),
        "correction_deg": (
            (16001,),
            "b6e38f29bf900e298f5d72174144fae96e8f540454e9feaae2d6ab3376d92d75",
        ),
        "jump_deg": (
            (16001,),
            "9c7065266ad09964f3baee3d740757be1e9e972743c8bff95de7c83c79ad6dcf",
        ),
        "delta_t": (
            (16001,),
            "666c2e492ddb06c5ff3cad629f3dc9d7982c5a7c5fa22b7aa642469fc48b31b1",
        ),
        "delta_t_all": (
            (16001, 1),
            "666c2e492ddb06c5ff3cad629f3dc9d7982c5a7c5fa22b7aa642469fc48b31b1",
        ),
        "gamma_ref": (
            (16001,),
            "68becb1198a7153b40449c3be8f6f8b54b630d31b57fee68a949c911c8533e72",
        ),
    },
    "dual_harmonic": {
        "time": (
            (16001,),
            "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
        ),
        "phase_deg": (
            (16001,),
            "f92ccf4ee1dffd5505500cd7cc90b49cbcc09aedab98a4c32d1ddf177f1ccd92",
        ),
        "correction_deg": (
            (16001,),
            "549d5bd3207ae28839ddccd4a0154d6efecd76adb58b9cd763676315b36e8098",
        ),
        "jump_deg": (
            (16001,),
            "9c7065266ad09964f3baee3d740757be1e9e972743c8bff95de7c83c79ad6dcf",
        ),
        "delta_t": (
            (16001,),
            "969357eacbe750f42ac39f5614b124169f4c5fffcef6ee4652dc08840094c544",
        ),
        "delta_t_all": (
            (16001, 1),
            "969357eacbe750f42ac39f5614b124169f4c5fffcef6ee4652dc08840094c544",
        ),
        "gamma_ref": (
            (16001,),
            "68becb1198a7153b40449c3be8f6f8b54b630d31b57fee68a949c911c8533e72",
        ),
    },
    "two_bunches_mean": {
        "time": (
            (16001,),
            "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
        ),
        "phase_deg": (
            (16001,),
            "138d49735ecb96d909ea05fca5d33f4a6ea4f347ce986785b918fd590765d47c",
        ),
        "correction_deg": (
            (16001,),
            "095db7df6895772e8f685cbabfbaecf87f6f31cda1df91d1477cfa442ca18aac",
        ),
        "jump_deg": (
            (16001,),
            "9c7065266ad09964f3baee3d740757be1e9e972743c8bff95de7c83c79ad6dcf",
        ),
        "delta_t": (
            (16001,),
            "ef6578434ae7699ab8ebd9ccd4f3c31eaa0c18ba6b45ea5847130d1f42718e83",
        ),
        "delta_t_all": (
            (16001, 2),
            "025b65e3b80a60cc95cc75335ccdbb38af2bab854d10a7ecccc6676ebe96a866",
        ),
        "gamma_ref": (
            (16001,),
            "68becb1198a7153b40449c3be8f6f8b54b630d31b57fee68a949c911c8533e72",
        ),
    },
    "unpipelined": {
        "time": (
            (16001,),
            "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
        ),
        "phase_deg": (
            (16001,),
            "9f43699d165d798c8df507efa449dce21eb4fa1e3b01c49559caad556358d540",
        ),
        "correction_deg": (
            (16001,),
            "d09ef17d479027cce8136e2aed660b122bac0b413f6d26680f724f62b3abc8c5",
        ),
        "jump_deg": (
            (16001,),
            "9c7065266ad09964f3baee3d740757be1e9e972743c8bff95de7c83c79ad6dcf",
        ),
        "delta_t": (
            (16001,),
            "292278037bd016544ceb7fdd37ce18d44ce33690391a75e7c79c71dc80b78957",
        ),
        "delta_t_all": (
            (16001, 1),
            "292278037bd016544ceb7fdd37ce18d44ce33690391a75e7c79c71dc80b78957",
        ),
        "gamma_ref": (
            (16001,),
            "68becb1198a7153b40449c3be8f6f8b54b630d31b57fee68a949c911c8533e72",
        ),
    },
    "unquantized": {
        "time": (
            (16001,),
            "97aa5ec0d2e1e73f66c462a38f877185e251dd2afd9b13824f4f13e49a791aed",
        ),
        "phase_deg": (
            (16001,),
            "2c60eb6d746229331ec6831e60d073f76796e124cd989db06ef892425cf11c83",
        ),
        "correction_deg": (
            (16001,),
            "3285c87a96f55436b0e090c4264fc6166047517de0e40702e5969e6193bbb4ca",
        ),
        "jump_deg": (
            (16001,),
            "9c7065266ad09964f3baee3d740757be1e9e972743c8bff95de7c83c79ad6dcf",
        ),
        "delta_t": (
            (16001,),
            "d1e7851711d9b6cee7adb114198066cec684aa3f9d4749a7730e07a61e043ff6",
        ),
        "delta_t_all": (
            (16001, 1),
            "d1e7851711d9b6cee7adb114198066cec684aa3f9d4749a7730e07a61e043ff6",
        ),
        "gamma_ref": (
            (16001,),
            "68becb1198a7153b40449c3be8f6f8b54b630d31b57fee68a949c911c8533e72",
        ),
    },
}


def _digests(result) -> dict:
    out = {}
    for name in FIELDS:
        array = getattr(result, name)
        digest = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        out[name] = (array.shape, digest)
    return out


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_python_engine_digests(variant):
    config = bench_config(record_every=1, **VARIANTS[variant])
    assert _digests(CavityInTheLoop(config).run(DURATION)) == GOLDEN[variant]

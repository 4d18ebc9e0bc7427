"""Execution layer of the fault campaign: scenario runs and detection.

Sits between the injectors (:mod:`repro.faults.inject`, wired into the
HIL benches) and the campaign planner (:mod:`repro.faults.campaign`).
Two execution paths correspond to the two fault families:

* **loop faults** — every kind in
  :data:`repro.faults.inject.LOOP_KINDS` perturbs the closed-loop
  physics or signal chain, so its scenarios *run*:
  :func:`run_fault_lanes` packs one scenario per lane of a
  :class:`~repro.hil.simulator.CavityInTheLoop` with a tuple
  ``jump_deg`` (the specs' ``target`` indices select their lanes) and
  returns the recorded phase traces for classification;
* **substrate faults** — ``CGRA_CONTEXT_CORRUPTION`` attacks the
  configuration artefact itself, which the execution engines never
  consult (they run off the schedule; the images are the serialization
  format for the hardware).  Its scenarios are therefore *detection*
  experiments: :func:`detect_context_corruption` corrupts one context
  slot of the compiled beam model and asks the static verifier — the
  "bitstream insert" gate of PR 2 — whether it catches the damage.

Everything here is importable inside worker processes (lazy imports,
no module-level handles) and shard-safe.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import FaultSpecError
from repro.faults.inject import LOOP_KINDS, corrupt_context_images
from repro.faults.spec import FaultKind, FaultSpec

__all__ = [
    "run_fault_lanes",
    "detect_context_corruption",
    "CAMPAIGN_JUMP_DEG",
    "CAMPAIGN_RECORD_EVERY",
]

#: Phase-jump drive of every campaign lane, degrees (the Fig. 5a bench
#: stimulus — faults are judged against a loop that is actively
#: working).
CAMPAIGN_JUMP_DEG = 8.0

#: Trace decimation of campaign runs (matches the MDE bench configs).
CAMPAIGN_RECORD_EVERY = 8


def run_fault_lanes(
    specs: tuple[FaultSpec, ...],
    duration: float,
    *,
    jump_deg: float = CAMPAIGN_JUMP_DEG,
    record_every: int = CAMPAIGN_RECORD_EVERY,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run loop-fault scenarios as lockstep lanes of one bench.

    ``specs[i]`` is re-targeted onto lane ``i``; an entry may also be
    ``None`` to reserve an unfaulted lane (the campaign's baseline is
    lane 0 of its first shard).
    Returns ``(time, phase_deg[:, lanes], n_turns)``.
    """
    from repro.hil.simulator import CavityInTheLoop, HilConfig
    from repro.physics import KNOWN_IONS, SIS18

    lanes = len(specs)
    if lanes == 0:
        raise FaultSpecError("run_fault_lanes needs at least one lane")
    faults = []
    for lane, spec in enumerate(specs):
        if spec is None:
            continue
        if spec.kind not in LOOP_KINDS:
            raise FaultSpecError(
                f"{spec.kind.value} is not a loop fault; dispatch it to "
                f"detect_context_corruption instead"
            )
        faults.append(replace(spec, target=lane))
    config = HilConfig(
        ring=SIS18,
        ion=KNOWN_IONS["14N7+"],
        jump_deg=(float(jump_deg),) * lanes,
        record_every=record_every,
        faults=tuple(faults),
    )
    res = CavityInTheLoop(config).run(duration)
    return res.time, res.phase_deg, res.n_turns


def detect_context_corruption(spec: FaultSpec) -> tuple[bool, int]:
    """Corrupt one context slot of the beam model the campaign lanes
    load; ask the verifier.

    Returns ``(detected, n_errors)`` — whether
    :func:`repro.cgra.verify.verify_context_images` rejected the
    corrupted images, and how many errors it reported.  The pristine
    images must verify cleanly (asserted here: a broken toolchain must
    not masquerade as a detection).
    """
    from repro.cgra import verify_context_images
    from repro.cgra.models import compile_beam_model

    if spec.kind is not FaultKind.CGRA_CONTEXT_CORRUPTION:
        raise FaultSpecError(
            f"detect_context_corruption got a {spec.kind.value} spec"
        )
    # HilConfig's default: one bunch, pipelined, on the default fabric.
    model = compile_beam_model(n_bunches=1)
    clean = verify_context_images(model.images, model.graph, model.schedule.fabric)
    if not clean.ok:
        raise FaultSpecError(
            "pristine beam-model images failed verification; refusing to "
            "attribute pre-existing errors to the injected fault"
        )
    corrupted, _ = corrupt_context_images(model.images, int(spec.magnitude))
    report = verify_context_images(corrupted, model.graph, model.schedule.fabric)
    errors = len(report.errors())
    return errors > 0, errors

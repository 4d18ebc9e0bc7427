"""Fault programs: compiled, time-indexed injection state.

A :class:`FaultProgram` compiles a list of :class:`~repro.faults.spec.
FaultSpec`\\ s into the per-revolution state the closed-loop benches read
on their sensor hot path.  The split keeps injection free when disarmed
and cheap when armed:

* **compile time** (construction) — validate every spec against the
  execution context (batch width, ADC resolution), realise stochastic
  fault content (microphonic spectra) from per-spec seeds, and separate
  loop faults from substrate faults
  (:data:`~repro.faults.spec.FaultKind.CGRA_CONTEXT_CORRUPTION` never
  touches the loop physics — it corrupts the context-memory *images* and
  is caught by the PR-2 verifier, see :func:`corrupt_context_images`);
* **per revolution** — :meth:`FaultProgram.update` brings four channel
  values (gap gain, gap phase, gap clip level, stuck-bit masks) to the
  current time.  The set of active specs changes only at a window edge
  (an onset or an ``onset + duration``), so the active ones are folded
  into the channels only when the time crosses one; between two edges
  ``update`` is a float compare, plus a re-sum of the gap phase while a
  time-varying phase fault (microphonics, detuning transient) is on;
* **per sensor read** — the bench applies those values inside its
  analytic handlers.  When no fault is active at the current time the
  handlers take their original branch, so an armed-but-not-yet-onset run
  is bit-identical to an unfaulted one; a disarmed bench
  (``faults=()``) never constructs a program at all and pays one
  ``is None`` check per revolution (pinned by
  ``benchmarks/test_fault_overhead.py``).

Scalar and batched modes share the compile step; the batched mode keeps
``[B]`` arrays with neutral elements (gain 1, phase 0, clip ∞, mask 0)
on unfaulted lanes — multiplying by 1.0, adding 0.0 and clipping at ±∞
are bitwise no-ops, so co-resident lanes are undisturbed.

Fault transfer model (all on the ADC-volt signals of the Fig. 4 bench):

===========================  ===========================================
``CAVITY_FAILURE``           gap amplitude × (1 − m): fraction m of the
                             cavity gradient lost (C-ADS fault model).
``MICROPHONIC_DETUNING``     seeded K-line spectrum in the TESLA
                             microphonics band (10–300 Hz); magnitude is
                             the RMS detuning in Hz, injected as the
                             integrated phase modulation of the gap.
``AMPLIFIER_SATURATION``     gap voltage hard-clipped at ±m volts (ADC
                             input domain).
``DETUNING_TRANSIENT``       gap frequency offset by m Hz while active:
                             phase ramp 2π·m·(t − onset); the
                             synthesiser re-locks when the fault clears.
``ADC_STUCK_BIT``            bit m of the gap ADC's two's-complement
                             output word stuck at 1 (code domain; forces
                             quantisation even with ``quantize_adc``
                             off).
``DAC_CLIPPING``             gap drive clipped at ±m × DAC full scale.
``DDS_PHASE_GLITCH``         gap DDS phase kicked by m radians — an
                             uncommanded jump on the RF the loop must
                             absorb; the accumulator resyncs when the
                             fault clears.
``CGRA_CONTEXT_CORRUPTION``  context image entry ``m mod n_entries``
                             corrupted; detection-only (the executor
                             runs off the schedule, the verifier is the
                             detector).
===========================  ===========================================
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from repro.errors import FaultSpecError
from repro.faults.spec import FaultKind, FaultSpec

__all__ = [
    "FaultProgram",
    "MICROPHONIC_LINES",
    "MICROPHONIC_BAND_HZ",
    "check_fault_bounds",
    "corrupt_context_images",
]

#: Spectral lines per microphonic realisation.
MICROPHONIC_LINES = 8
#: Mechanical resonance band of the modelled spectrum, Hz (the TESLA
#: cavity microphonics studies place the dominant lines here).
MICROPHONIC_BAND_HZ = (10.0, 300.0)

#: FaultKinds that act on the closed-loop physics (everything except the
#: substrate corruption, which only exists in the context images).
LOOP_KINDS = frozenset(FaultKind) - {FaultKind.CGRA_CONTEXT_CORRUPTION}

#: Loop faults that add to the gap phase, and those whose share moves
#: with time inside their window.
_PHASE_KINDS = frozenset({
    FaultKind.MICROPHONIC_DETUNING,
    FaultKind.DETUNING_TRANSIENT,
    FaultKind.DDS_PHASE_GLITCH,
})
_TIME_VARYING_KINDS = _PHASE_KINDS - {FaultKind.DDS_PHASE_GLITCH}


def check_fault_bounds(
    specs: tuple[FaultSpec, ...], *, batch: int | None = None, adc_bits: int = 14
) -> None:
    """Raise :class:`FaultSpecError` for the first loop fault in ``specs``
    that targets a lane the bench lacks or sticks a bit outside its
    ``adc_bits``-bit ADC word.

    ``batch`` is the lane count of a batched bench, or None for the
    scalar bench, whose only lane is 0.  The spec window only knows the
    widest supported converter, so the bit index is checked here.
    """
    lanes = 1 if batch is None else int(batch)
    for s in specs:
        if s.kind not in LOOP_KINDS:
            continue
        if batch is None and s.target != 0:
            raise FaultSpecError(
                f"{s.kind.value} targets lane {s.target} on a scalar bench "
                "(only lane 0 exists)"
            )
        if s.target >= lanes:
            raise FaultSpecError(
                f"{s.kind.value} targets lane {s.target}, batch has "
                f"{lanes} lanes"
            )
        if s.kind is FaultKind.ADC_STUCK_BIT and s.magnitude >= adc_bits:
            raise FaultSpecError(
                f"adc_stuck_bit index {int(s.magnitude)} out of range for "
                f"the {adc_bits}-bit ADC"
            )


class _Microphonics:
    """One seeded spectrum realisation and its integrated phase."""

    def __init__(self, spec: FaultSpec) -> None:
        rng = np.random.default_rng(spec.seed if spec.seed is not None else 0)
        lo, hi = MICROPHONIC_BAND_HZ
        k = MICROPHONIC_LINES
        # Log-uniform line frequencies across the band, uniform phases;
        # equal per-line amplitudes scaled for the requested RMS detuning
        # (sum of K equal-amplitude incoherent cosines has RMS A·sqrt(K/2)).
        self.freqs = np.exp(rng.uniform(math.log(lo), math.log(hi), k))
        self.thetas = rng.uniform(0.0, 2.0 * math.pi, k)
        amp = spec.magnitude * math.sqrt(2.0 / k)
        # Δf(τ) = Σ A·cos(2π f_k τ + θ_k) integrates to the phase
        # modulation φ(τ) = Σ (A/f_k)·(sin(2π f_k τ + θ_k) − sin θ_k),
        # zero at onset so the fault switches on continuously.
        self.amp_over_f = amp / self.freqs
        self._sin0 = np.sin(self.thetas)
        # (2π)·f_k, the product 2.0 * math.pi * freqs * tau starts with.
        self._omega = 2.0 * math.pi * self.freqs
        self.onset = spec.onset_time

    def phase_rad(self, t: float) -> float:
        tau = t - self.onset
        s = np.sin(self._omega * tau + self.thetas)
        return float(np.dot(self.amp_over_f, s - self._sin0))


class FaultProgram:
    """Compiled fault state for one bench run (scalar or batched).

    Parameters
    ----------
    specs:
        The faults to arm.  Loop faults must target lane 0 in scalar
        mode (``batch=None``) or a lane below ``batch`` in batched mode.
    batch:
        Number of lockstep lanes, or None for the scalar bench.
    adc_bits:
        Resolution of the gap ADC; stuck-bit indices are validated
        against it (:func:`check_fault_bounds`).
    dac_full_scale:
        Positive rail of the gap drive DAC in ADC-input volts;
        ``DAC_CLIPPING`` magnitudes (fractions) scale it.
    """

    def __init__(
        self,
        specs: tuple[FaultSpec, ...] | list[FaultSpec],
        *,
        batch: int | None = None,
        adc_bits: int = 14,
        dac_full_scale: float = 1.0,
    ) -> None:
        specs = tuple(specs)
        for s in specs:
            if not isinstance(s, FaultSpec):
                raise FaultSpecError(
                    f"faults must be FaultSpec instances, got {type(s).__name__}"
                )
        check_fault_bounds(specs, batch=batch, adc_bits=adc_bits)
        self.specs = specs
        self.batch = batch
        self.adc_bits = int(adc_bits)
        self.dac_full_scale = float(dac_full_scale)
        self.loop_specs = tuple(s for s in specs if s.kind in LOOP_KINDS)
        self.context_specs = tuple(
            s for s in specs if s.kind is FaultKind.CGRA_CONTEXT_CORRUPTION
        )
        lanes = 1 if batch is None else int(batch)
        self._micro = {
            id(s): _Microphonics(s)
            for s in self.loop_specs
            if s.kind is FaultKind.MICROPHONIC_DETUNING
        }
        #: Sorted window edges of the loop faults.  ``active_at`` is the
        #: same for every time in [lo, hi) between two consecutive edges,
        #: so update() folds the channels only when it leaves [lo, hi);
        #: they start neutral, the fold for any time before the first edge.
        self._edges = sorted(
            {s.onset_time for s in self.loop_specs}
            | {s.onset_time + s.duration
               for s in self.loop_specs if s.duration is not None}
        )
        self._lo = -math.inf
        self._hi = self._edges[0] if self._edges else math.inf
        #: The phase faults active in [lo, hi), and whether one of them
        #: moves with time (then update() re-sums the gap phase).
        self._phase_specs: tuple[FaultSpec, ...] = ()
        self._varying = False

        #: Whether any loop fault is active at the last update() time.
        self.active = False
        if batch is None:
            self.gap_gain = 1.0
            self.gap_phase = 0.0
            self.gap_clip = math.inf
            self.stuck_mask = 0
        else:
            self.gap_gain = np.ones(lanes)
            self.gap_phase = np.zeros(lanes)
            self.gap_clip = np.full(lanes, math.inf)
            self.stuck_mask = np.zeros(lanes, dtype=np.int64)
        #: True while any stuck-bit fault is active (selects the
        #: forced-quantisation branch of the gap handler).
        self.stuck_any = False

    @property
    def label(self) -> str:
        """Campaign tag for traces/reports: joined spec labels (or kinds)."""
        return ",".join(s.label or s.kind.value for s in self.specs)

    # -- per-revolution evaluation ------------------------------------

    def update(self, t: float) -> None:
        """Bring the fault channels to run time ``t``."""
        if self._lo <= t < self._hi:
            if self._varying:
                self._sum_phase(t)
            return
        k = bisect.bisect_right(self._edges, t)
        self._lo = self._edges[k - 1] if k else -math.inf
        self._hi = self._edges[k] if k < len(self._edges) else math.inf
        self._reset_channels()
        batched = self.batch is not None
        phase_specs = []
        for s in self.loop_specs:
            if not s.active_at(t):
                continue
            self.active = True
            kind = s.kind
            if kind in _PHASE_KINDS:
                phase_specs.append(s)
            elif kind is FaultKind.CAVITY_FAILURE:
                if batched:
                    self.gap_gain[s.target] *= 1.0 - s.magnitude
                else:
                    self.gap_gain *= 1.0 - s.magnitude
            elif kind is FaultKind.AMPLIFIER_SATURATION:
                if batched:
                    self.gap_clip[s.target] = min(self.gap_clip[s.target], s.magnitude)
                else:
                    self.gap_clip = min(self.gap_clip, s.magnitude)
            elif kind is FaultKind.DAC_CLIPPING:
                level = s.magnitude * self.dac_full_scale
                if batched:
                    self.gap_clip[s.target] = min(self.gap_clip[s.target], level)
                else:
                    self.gap_clip = min(self.gap_clip, level)
            elif kind is FaultKind.ADC_STUCK_BIT:
                bit = 1 << int(s.magnitude)
                if batched:
                    self.stuck_mask[s.target] |= bit
                else:
                    self.stuck_mask |= bit
                self.stuck_any = True
        self._phase_specs = tuple(phase_specs)
        self._varying = any(s.kind in _TIME_VARYING_KINDS for s in phase_specs)
        if phase_specs:
            self._sum_phase(t)

    def _sum_phase(self, t: float) -> None:
        """Gap phase at ``t``: the active phase faults' shares summed
        from 0.0 in spec order (per lane when batched)."""
        if self.batch is None:
            phase = 0.0
            for s in self._phase_specs:
                phase += self._phase_rad(s, t)
            self.gap_phase = phase
        else:
            self.gap_phase.fill(0.0)
            for s in self._phase_specs:
                self.gap_phase[s.target] += self._phase_rad(s, t)

    def _phase_rad(self, s: FaultSpec, t: float) -> float:
        if s.kind is FaultKind.MICROPHONIC_DETUNING:
            return self._micro[id(s)].phase_rad(t)
        if s.kind is FaultKind.DETUNING_TRANSIENT:
            return 2.0 * math.pi * s.magnitude * (t - s.onset_time)
        return s.magnitude  # DDS_PHASE_GLITCH: a constant kick

    def _reset_channels(self) -> None:
        self.active = False
        self.stuck_any = False
        if self.batch is None:
            self.gap_gain = 1.0
            self.gap_phase = 0.0
            self.gap_clip = math.inf
            self.stuck_mask = 0
        else:
            self.gap_gain.fill(1.0)
            self.gap_phase.fill(0.0)
            self.gap_clip.fill(math.inf)
            self.stuck_mask.fill(0)


def corrupt_context_images(images: dict, slot: int) -> tuple[dict, tuple]:
    """Corrupt one context-memory entry, deterministically.

    ``slot`` indexes the flattened entry list (PEs in row-major order,
    entries in tick order) modulo its length, so any non-negative
    magnitude is a valid scenario.  The corruption shifts the entry's
    ``node_id`` out of the graph's id space — the executor, which runs
    off the schedule, is oblivious, which is exactly the hazard: only
    the context-image verifier (:func:`repro.cgra.verify.
    verify_context_images`) can catch a bad "bitstream insert".

    Returns the corrupted images (input is not modified) and the
    ``(pe, entry_index)`` that was hit.
    """
    from dataclasses import replace

    from repro.cgra.context import ContextImage

    flat = [
        (pe, i)
        for pe in sorted(images)
        for i in range(len(images[pe].entries))
    ]
    if not flat:
        raise FaultSpecError("cannot corrupt empty context images")
    pe, index = flat[int(slot) % len(flat)]
    corrupted = {
        p: ContextImage(pe=p, entries=list(img.entries)) for p, img in images.items()
    }
    entry = corrupted[pe].entries[index]
    corrupted[pe].entries[index] = replace(entry, node_id=entry.node_id + 10_000)
    return corrupted, (pe, index)

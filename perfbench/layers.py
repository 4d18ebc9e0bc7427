"""Per-layer attribution of a run's wall time, from outside the program.

The benchmark does not rely on any timing inside ``repro``: it wraps the
public functions at each module boundary listed in :data:`TARGETS` and
times every call into them.  Each wrapper keeps a stack of child time,
so a call's *self* time is its duration minus the wrapped calls it made.
Summed over every wrapped call, self times telescope to the time spent
inside top-level wrapped calls; the rest of the run's wall time is
``unattributed_s``.  The layer table therefore reconciles to the wall
time by construction, and a large residual means work happens outside
every listed boundary.

The wrappers are fork-safe: a process forked from the traced parent
(a pool worker) sees them switched off and calls straight through, so
worker time never lands in the parent's tally.  Install them before any
pool starts.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import speed

#: The modules the run's wall time is split across (``repro.<layer>``;
#: the Fig. 5b machine emulator in ``repro.baselines`` is beam physics
#: and is booked to ``physics``).
LAYERS = ("hil", "cgra", "signal", "control", "physics", "faults",
          "parallel", "obs", "experiments")

#: (key, "module:qualname") of every wrapped call.  The key's first
#: component names its layer; several targets may share one key.
TARGETS = (
    ("hil.run", "repro.hil.batch:BatchedCavityInTheLoop.run"),
    ("hil.run", "repro.hil.simulator:CavityInTheLoop.run"),
    ("cgra.run_driven", "repro.cgra.engine:BatchedCgraExecutor.run_driven"),
    ("cgra.compile", "repro.cgra.models:compile_beam_model"),
    ("cgra.verify", "repro.cgra.verify.schedule_verifier:verify_context_images"),
    # The bus lives in repro.cgra, but what a read does is the signal
    # chain: DDS synthesis, ADC quantisation and fault channels.
    ("signal.sensor", "repro.cgra.sensor:BatchSensorBus.read_addr"),
    ("signal.adc", "repro.signal.adc:ADC.quantize"),
    ("signal.adc", "repro.signal.adc:ADC.quantize_scalar"),
    ("signal.adc", "repro.signal.adc:ADC.convert"),
    ("signal.adc", "repro.signal.adc:ADC.convert_scalar"),
    ("signal.awg", "repro.signal.awg:PhaseJumpPattern.phase_deg_at"),
    ("signal.awg", "repro.signal.awg:PhaseJumpPattern.phase_rad_at"),
    ("control.update", "repro.control.beam_phase_loop:BeamPhaseControlLoop.update"),
    ("physics.track", "repro.physics.multiparticle:MultiParticleTracker.step"),
    ("physics.emulate", "repro.baselines.offline_tracker:MachineExperimentEmulator.run"),
    ("faults.inject", "repro.faults.inject:FaultProgram.update"),
    ("faults.classify", "repro.faults.report:classify_trace"),
    ("faults.lanes", "repro.faults.engine:run_fault_lanes"),
    ("faults.detect", "repro.faults.engine:detect_context_corruption"),
    ("parallel.map", "repro.parallel.pool:WorkerPool.map_sharded"),
    ("parallel.restore", "repro.parallel.shm:restore_arrays"),
    ("obs.record", "repro.obs.registry:Histogram.observe"),
    ("obs.record", "repro.obs.registry:Counter.inc"),
    ("obs.record", "repro.obs.registry:Gauge.set"),
    ("obs.record", "repro.obs.trace:Tracer.span"),
    ("obs.merge", "repro.obs.snapshot:merge_snapshot"),
    ("obs.export", "repro.obs.export:export_metrics_json"),
    ("obs.export", "repro.obs.export:export_metrics_csv"),
    ("obs.export", "repro.obs.export:export_trace_jsonl"),
    ("obs.export", "repro.obs.export:export_run_reports_json"),
    ("experiments.metrics", "repro.experiments.fig5:fig5_metrics"),
)

#: Key of the closed-loop callbacks ``run_driven`` makes: the batched
#: HIL driver's per-revolution work, so it is booked to ``hil``.
CALLBACK_KEY = "hil.callbacks"


class Tally:
    """Time and call counts of the wrapped calls in this process."""

    def __init__(self) -> None:
        #: key -> [inclusive seconds, self seconds, calls]
        self.acc: dict[str, list] = {}
        #: Child-time accumulators of the open wrapped calls; ``stack[0]``
        #: sums the top-level calls.
        self.stack: list[float] = [0.0]
        #: Work counts reported by the hooks (lane turns, shards, ...).
        self.counts: dict[str, float] = {}
        self.active = True

    def slot(self, key: str) -> list:
        return self.acc.setdefault(key, [0.0, 0.0, 0])

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def reset(self) -> None:
        """Zero every accumulator in place (wrappers hold references)."""
        for slot in self.acc.values():
            slot[:] = [0.0, 0.0, 0]
        self.stack[:] = [0.0]
        self.counts.clear()

    def snapshot(self, wall_s: float) -> dict:
        """One run's tally against its measured wall time."""
        return {
            "wall_s": wall_s,
            "top_level_s": self.stack[0],
            "keys": {k: tuple(v) for k, v in self.acc.items()},
            "counts": dict(self.counts),
        }


def _wrap(fn, key: str, tally: Tally, hook=None):
    slot = tally.slot(key)
    stack = tally.stack

    def clock():  # the program's time: without the speed sampler's slices
        return time.perf_counter() - speed.sliced_s

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if not tally.active:
            return fn(*args, **kwargs)
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            children = stack.pop()
            stack[-1] += dt
            slot[0] += dt
            slot[1] += dt - children
            slot[2] += 1
        if hook is not None:
            hook(tally, args, kwargs, result)
        return result

    return timed


# -- work counts --------------------------------------------------------


def lane_turns(duration: float, f_rev: float, lanes: int = 1) -> int:
    """Revolutions ``lanes`` closed loops advance in ``duration`` seconds,
    counted as the HIL benches count their turns."""
    return round(duration * f_rev) * lanes


def _count_lane_turns(tally, args, kwargs, result) -> None:
    bench = args[0]
    duration = args[1] if len(args) > 1 else kwargs["duration"]
    tally.add("hil.lane_turns", lane_turns(duration, bench.f_rev, getattr(bench, "batch", 1)))


def _count_particle_turns(tally, args, kwargs, result) -> None:
    tally.add("physics.particle_turns", args[0].delta_t.size)


def _count_shards(tally, args, kwargs, result) -> None:
    tally.add("parallel.shards", len(result))
    tally.add("parallel.shard_failures", sum(r.failure is not None for r in result))
    tally.add("parallel.worker_busy_s", sum(r.elapsed_s for r in result))
    tally.counts["parallel.jobs"] = args[0].jobs


def _compile_hit_counter(cache: dict):
    # A call is a hit when it returns a model the cache already held.
    seen = {id(model) for model in cache.values()}

    def count(tally, args, kwargs, result) -> None:
        if id(result) in seen:
            tally.add("cgra.compile_hits", 1)
        else:
            seen.add(id(result))

    return count


def _driven_with_timed_callbacks(run_driven, tally: Tally):
    """``run_driven`` whose ``pre``/``post`` callbacks are timed too, so
    the engine's self time excludes the closed-loop driver's work."""

    @functools.wraps(run_driven)
    def driven(self, n_iterations, pre=None, post=None):
        if tally.active:
            tally.add("cgra.lane_iterations", n_iterations * self.batch)
            if pre is not None:
                pre = _wrap(pre, CALLBACK_KEY, tally)
            if post is not None:
                post = _wrap(post, CALLBACK_KEY, tally)
        return run_driven(self, n_iterations, pre=pre, post=post)

    return driven


def _resolve(spec: str):
    module_name, qualname = spec.split(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def install() -> Tally:
    """Wrap every target once; returns the process's tally.

    Module-level functions are rebound everywhere they were imported by
    name, so ``from x import f`` call sites see the wrapper too.
    """
    from repro.cgra import models

    tally = Tally()
    hooks = {
        "hil.run": _count_lane_turns,
        "physics.track": _count_particle_turns,
        "parallel.map": _count_shards,
        "cgra.compile": _compile_hit_counter(models._MODEL_CACHE),
    }
    tally.slot(CALLBACK_KEY)
    for key, spec in TARGETS:
        owner, name = _resolve(spec)
        original = getattr(owner, name)
        if key == "cgra.run_driven":
            wrapper = _wrap(_driven_with_timed_callbacks(original, tally), key, tally)
        else:
            wrapper = _wrap(original, key, tally, hooks.get(key))
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            continue
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", {})
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, wrapper)
    os.register_at_fork(after_in_child=lambda: setattr(tally, "active", False))
    return tally


# -- the layer table ----------------------------------------------------


def layer_self_times(snapshot: dict) -> dict[str, float]:
    """Self seconds per layer (every layer present, zero if unused)."""
    out = {layer: 0.0 for layer in LAYERS}
    for key, (_, self_s, _) in snapshot["keys"].items():
        out[key.split(".")[0]] += self_s
    return out


def reconcile(snapshot: dict) -> tuple[float, float]:
    """``(unattributed_s, residual_s)``: the wall time outside every
    wrapped call, and how far layers + unattributed miss the wall."""
    wall = snapshot["wall_s"]
    unattributed = wall - snapshot["top_level_s"]
    residual = wall - (sum(layer_self_times(snapshot).values()) + unattributed)
    return unattributed, residual


def per_layer_metrics(snapshot: dict, scale: float = 1.0) -> dict[str, float]:
    """The named per-layer metrics of one traced run, every time in them
    multiplied by ``scale`` (the run's host-speed correction).

    ``*_s`` is the inclusive time of the named calls, except the
    ``<layer>.self_s`` rows and ``cgra.step_s`` (self time of the
    engine's driven loop: minus the callbacks and sensor reads it makes).
    """
    keys = snapshot["keys"]
    counts = snapshot["counts"]

    def incl(key):
        return keys.get(key, (0.0, 0.0, 0))[0]

    def self_of(key):
        return keys.get(key, (0.0, 0.0, 0))[1]

    def calls(key):
        return keys.get(key, (0.0, 0.0, 0))[2]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    lane_turns = counts.get("hil.lane_turns", 0.0)
    lane_iters = counts.get("cgra.lane_iterations", 0.0)
    particle_turns = counts.get("physics.particle_turns", 0.0)
    compile_calls = calls("cgra.compile")
    jobs_x_map = counts.get("parallel.jobs", 0.0) * incl("parallel.map")
    unattributed, _ = reconcile(snapshot)
    m = {
        "hil.run_s": incl("hil.run"),
        "hil.lane_turns": lane_turns,
        "hil.ns_per_lane_turn": per(incl("hil.run"), lane_turns, 1e9),
        "cgra.step_s": self_of("cgra.run_driven"),
        "cgra.ns_per_lane_iteration": per(self_of("cgra.run_driven"), lane_iters, 1e9),
        "cgra.compile_s": incl("cgra.compile"),
        "cgra.compile_calls": compile_calls,
        "cgra.compile_hit_ratio": per(counts.get("cgra.compile_hits", 0.0), compile_calls),
        "cgra.verify_s": incl("cgra.verify"),
        "signal.sensor_s": incl("signal.sensor"),
        "signal.sensor_reads": calls("signal.sensor"),
        "signal.adc_s": self_of("signal.adc"),
        "signal.awg_s": self_of("signal.awg"),
        "control.update_s": incl("control.update"),
        "control.updates": calls("control.update"),
        "physics.track_s": incl("physics.track"),
        "physics.ns_per_particle_turn": per(incl("physics.track"), particle_turns, 1e9),
        "faults.inject_s": incl("faults.inject"),
        "faults.classify_s": incl("faults.classify"),
        "parallel.map_s": incl("parallel.map"),
        "parallel.worker_busy_s": counts.get("parallel.worker_busy_s", 0.0),
        "parallel.utilization": per(counts.get("parallel.worker_busy_s", 0.0), jobs_x_map),
        "parallel.restore_s": incl("parallel.restore"),
        "parallel.shards": counts.get("parallel.shards", 0.0),
        "parallel.shard_failures": counts.get("parallel.shard_failures", 0.0),
        "obs.record_s": self_of("obs.record"),
        "obs.records": calls("obs.record"),
        "obs.merge_s": incl("obs.merge"),
        "obs.export_s": incl("obs.export"),
        "experiments.metrics_s": incl("experiments.metrics"),
        "unattributed_s": unattributed,
        "trace.wall_s": snapshot["wall_s"],
    }
    for layer, seconds in layer_self_times(snapshot).items():
        m[f"{layer}.self_s"] = seconds
    return {k: v * scale if k.endswith("_s") or ".ns_per_" in k else v for k, v in m.items()}


def format_table(title: str, snapshot: dict) -> list[str]:
    """The layer table of one traced run, as printable lines."""
    wall = snapshot["wall_s"]
    unattributed, residual = reconcile(snapshot)
    lines = [f"layer table: {title} (wall {wall:.4f} s)",
             f"  {'layer':<12}{'self_s':>10}{'share':>8}   calls into it"]
    by_layer: dict[str, list[str]] = {layer: [] for layer in LAYERS}
    for key, (_, self_s, n) in sorted(snapshot["keys"].items()):
        if n:
            by_layer[key.split(".")[0]].append(f"{key.split('.', 1)[1]}x{n}")
    for layer, seconds in layer_self_times(snapshot).items():
        lines.append(f"  {layer:<12}{seconds:>10.4f}{seconds / wall:>8.1%}   "
                     + " ".join(by_layer[layer]))
    lines.append(f"  {'unattributed':<12}{unattributed:>10.4f}{unattributed / wall:>8.1%}")
    lines.append(f"  reconciliation residual {residual:.3e} s")
    return lines

"""Benchmark of the cavity-in-the-loop reproduction: four paper workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 6 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it sets
the workload up in a few fresh interpreters (``setup_s``), sets it up
once more in this process, then runs it back to back for ``--seconds``
and checks every run's output.  Each time it reports is the median of
its samples, each corrected for the host's speed as sampled during that
sample (``speed.py``); every raw and corrected sample is kept in the
record.  ``--trace 1`` first runs untraced for a third of the time, then
wraps the library's module boundaries (``layers.py``) and runs traced
for the rest, printing one layer table per pass that reconciles to the
run's wall time; its per-layer times are corrected like ``run_s``.  The ``faults``
workload is traced twice: on its 2-worker pool (the ``parallel.*``
metrics) and inline (every other layer, since worker time is invisible
to the parent).

The last stdout line is the result object; the line before it is the
full record (machine, workload, raw samples, quartiles), also written to
``.perfbench/results/``.  Workload definitions, with why each was chosen
and which layers it should leave at zero, are in ``workloads.py``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the only parallelism measured is the pool's.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters set up per run; setup_s is their median.
SETUP_PROBES = 3
#: Runs an untraced measurement makes at least, however long they take.
MIN_RUNS = 2
#: A traced pass whose unattributed time exceeds this share is flagged.
UNATTRIBUTED_FLAG = 0.10
#: A predicted-zero time metric "holds" below this share of the wall.
ZERO_SHARE = 0.01


def _quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _machine(jobs: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jobs": jobs,
    }


def _become_subreaper() -> None:
    """Adopt the descendants their parents leave behind (Linux), so that
    :func:`_end_children` can wait for them too."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == os.getpid():
            pids.append(int(entry))
    return pids


def _end_children(grace_s: float = 20.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The program's shared-memory transport starts multiprocessing's
    resource tracker, which otherwise outlives this process; closing its
    pipe makes it exit.  Children (and adopted orphans) still running
    after ``grace_s`` are killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _setup_probe_s(workload: str, seed: int) -> tuple[float, float]:
    """``(wall_s, corrected_s)`` from spawning a fresh interpreter until
    the workload is set up in it (the child reports its monotonic clock
    when ready, and the speed correction it sampled meanwhile)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    ready, factor = map(float, proc.stdout.split()[-2:])
    return ready - t0, (ready - t0) * factor


class Runner:
    """Runs one workload repeatedly and checks every run."""

    def __init__(self, workload, reference: str | None) -> None:
        self.wl = workload
        self.reference = reference
        self.first = None  # (csv digest, stable) of the first checked run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mib = None

    def run_once(self, inline: bool = False, tally=None):
        """One run; returns ``(wall_s, corrected_s, output, snapshot)``,
        or None if the run raised or failed a check."""
        self.attempted += 1
        if tally is not None:
            tally.reset()
        sliced = speed.sliced_s
        m0 = time.monotonic()
        t0 = time.perf_counter()
        try:
            result = self.wl.run(inline=inline)
            wall = time.perf_counter() - t0
            m1 = time.monotonic()
            # Before the checks, so nothing they do lands in the tally;
            # the table reconciles the program's time, without the slices.
            snapshot = (tally.snapshot(wall - (speed.sliced_s - sliced))
                        if tally is not None else None)
            corrected = wall * self.wl.speed_factor(m0, m1, pooled=not inline)
            out = self.wl.output(result)
        except Exception as exc:  # a raising run is a failed run
            self.failed += 1
            self.problems.append(f"run {self.attempted}: {type(exc).__name__}: {exc}")
            return None
        problems = list(out.problems)
        if out.schedule_ticks != workloads.SCHEDULE_TICKS:
            problems.append(f"schedule_ticks {out.schedule_ticks}, "
                            f"expected {workloads.SCHEDULE_TICKS}")
        key = (hashlib.sha256(out.csv).hexdigest(), out.stable)
        if self.first is None:
            self.first = key
            if self.reference is not None and key[0] != self.reference:
                problems.append(f"CSV sha256 {key[0]} differs from the stored reference")
        elif key != self.first:
            problems.append(f"output {key} differs from the first run's {self.first}")
        if snapshot is not None:
            _, residual = layers.reconcile(snapshot)
            if abs(residual) > 1e-6 * wall:
                problems.append(f"layer table misses the wall time by {residual} s")
            # Where the benches ran in this process, the lane turns they
            # report must be the ones the workload counts.
            ran = snapshot["counts"].get("hil.lane_turns")
            if ran is not None and ran != out.lane_turns:
                problems.append(f"workload counts {out.lane_turns} lane turns, "
                                f"the benches ran {ran:.0f}")
        if self.peak_rss_mib is None:
            # After the first run: later runs only add allocator
            # fragmentation, which varies with how many runs fit.
            self.peak_rss_mib = self.wl.peak_rss_mib()
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems]
            return None
        return wall, corrected, out, snapshot

    def run_for(self, seconds: float, passes=(False,), tally=None, min_cycles: int = 1):
        """Cycle through ``passes`` (inline flags) for ``seconds``, at
        least ``min_cycles`` full cycles; the passing runs of each pass."""
        good: list[list] = [[] for _ in passes]
        t_end = time.perf_counter() + seconds
        cycles = 0
        while True:
            for i, inline in enumerate(passes):
                run = self.run_once(inline=inline, tally=tally)
                if run is not None:
                    good[i].append(run)
            cycles += 1
            if cycles >= min_cycles and time.perf_counter() >= t_end:
                return good


def _median_run(runs: list):
    """The run whose corrected time is the (lower) median of the pass."""
    ordered = sorted(runs, key=lambda r: r[1])
    return ordered[(len(ordered) - 1) // 2]


def _measure(runner: Runner, args, record: dict) -> dict:
    """``--trace 0``: the end-to-end metrics."""
    wl = runner.wl
    setup = [_setup_probe_s(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl.setup()
    try:
        wl.start_sampling()
        (runs,) = runner.run_for(args.seconds, min_cycles=MIN_RUNS)
    finally:
        wl.close()
    raw = {
        "run_s": [r[0] for r in runs],
        "setup_s": [s[0] for s in setup],
    }
    corrected = {
        "run_s": [r[1] for r in runs],
        "lane_turns_per_s": [r[2].lane_turns / r[1] for r in runs],
        "setup_s": [s[1] for s in setup],
    }
    record["raw_samples"] = {k: _quartiles(v) for k, v in raw.items() if v}
    record["corrected_samples"] = {k: _quartiles(v) for k, v in corrected.items() if v}
    if not runs:
        return {}
    values = {k: statistics.median(v) for k, v in corrected.items()}
    values["peak_rss_mib"] = runner.peak_rss_mib
    values["schedule_ticks"] = runs[-1][2].schedule_ticks
    return values


def _trace(runner: Runner, args, record: dict) -> dict:
    """``--trace 1``: untraced runs, then traced passes; the per-layer
    metrics of each pass's median run."""
    wl = runner.wl
    wl.setup()
    try:
        wl.start_sampling()
        (untraced,) = runner.run_for(args.seconds / 3)
    finally:
        wl.close()
    tally = layers.install()  # before the traced pass starts its pool
    passes = (False, True) if wl.jobs > 1 else (False,)
    wl.setup()
    try:
        wl.start_sampling()
        traced = runner.run_for(args.seconds * 2 / 3, passes=passes, tally=tally)
    finally:
        wl.close()
    if not untraced or not all(traced):
        return {}
    by_pass = {}
    for inline, runs in zip(passes, traced):
        _, corrected, out, snapshot = _median_run(runs)
        wall = snapshot["wall_s"]
        name = f"{wl.name}, jobs {1 if inline else wl.jobs}"
        # Times in the same host-speed-corrected seconds as run_s.
        metrics = layers.per_layer_metrics(snapshot, scale=corrected / wall)
        metrics.update({k: float(v) for k, v in out.counts.items()})
        share = metrics["unattributed_s"] / metrics["trace.wall_s"]
        by_pass[inline] = metrics
        record.setdefault("traced_passes", {})[name] = {
            "metrics": metrics, "unattributed_share": share,
            "flagged": share > UNATTRIBUTED_FLAG, "runs": len(runs)}
        for line in layers.format_table(name, snapshot):
            print(line)
        if share > UNATTRIBUTED_FLAG:
            print(f"  FLAG: unattributed {share:.1%} of wall exceeds {UNATTRIBUTED_FLAG:.0%}")
    # A pooled workload's worker-side layers come from its inline pass;
    # parallel.* must come from the pooled pass.
    metrics = dict(by_pass.get(True, by_pass[False]))
    metrics.update({k: v for k, v in by_pass[False].items() if k.startswith("parallel.")})
    # Both medians speed-corrected, so host drift between the untraced
    # and traced phases cancels.
    untraced_s = [r[1] for r in untraced]
    metrics["trace.overhead_ratio"] = (
        statistics.median(r[1] for r in traced[0]) / statistics.median(untraced_s))
    predictions = {}
    for name in wl.predicted_zero:
        value = metrics[name]
        holds = value <= ZERO_SHARE * metrics["trace.wall_s"]
        predictions[name] = {"value": value, "holds": holds}
        print(f"  predicted ~0: {name} = {value:.6f} s ({'holds' if holds else 'DOES NOT HOLD'})")
    record["untraced_run_s"] = _quartiles(untraced_s)
    record["predicted_zero"] = predictions
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    _become_subreaper()
    try:
        return _bench(args)
    finally:
        _end_children()


def _bench(args) -> int:
    if args.setup_probe:
        # From before the workload imports the program: set-up is mostly
        # importing and compiling.
        sampler = speed.SpeedSampler()
        sampler.start()
    work_dir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)

    if args.setup_probe:
        wl.setup()
        ready = time.monotonic()
        sampler.stop()
        print(ready, speed.correction(sampler.take()), flush=True)
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        return 0

    references = json.loads((HERE / "reference.json").read_text())
    reference = None
    if args.seed == workloads.DEFAULT_SEED or not wl.seeded:
        reference = references[args.workload]
    runner = Runner(wl, reference)
    record = {
        "workload": {"name": wl.name, "why": wl.why, "seed": args.seed,
                     "predicted_zero": list(wl.predicted_zero)},
        "machine": _machine(wl.jobs),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    values = (_trace if args.trace else _measure)(runner, args, record)
    shutil.rmtree(work_dir, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Every metric the contract names; a set with no passing run has no
    # values and reports zeros under "correct": false.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in bench["per_layer" if args.trace else "end_to_end"]}
    correct = runner.failed == 0 and runner.attempted > 0 and bool(values)
    record.update(attempted=runner.attempted, failed=runner.failed,
                  failed_ratio=runner.failed / max(runner.attempted, 1),
                  problems=runner.problems, metrics=metrics)
    for problem in runner.problems:
        print(f"FAILED {problem}")
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{stamp}-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

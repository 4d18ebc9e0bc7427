"""End-to-end experiment benchmark: the runner-level sweep hot path.

Reproduces the committed baseline workload
(``benchmarks/results/e2e_baseline.json``: 16 jump amplitudes spanning
2-12 degrees, 0.02 s of machine time each, ``SWEEP_CHUNK`` lanes per
batched bench) and times it end to end — config build, batched HIL run,
trace extraction, shard merge — exactly the way the sweep experiment
dispatches it.  Writes ``BENCH_e2e.json`` (results dir + repo root).

Two gates:

* **Parity, unconditional** — the merged phase traces and the emitted
  CSV must be byte-identical across ``jobs`` {1, 2}.  A wall-clock win
  that changes a byte is a correctness bug, not a speedup.
* **Speed, fingerprint-gated** — on the machine the committed baseline
  was measured on, the sweep must beat the baseline mean by >= 2x.
  Other machines report the real ratio without asserting (their
  baseline numbers are not comparable).

The sweep runs the compiled engine (``BatchedCgraExecutor``), the
only engine the batched bench has.

Run directly (manual timing, no pytest-benchmark plugin needed):

.. code-block:: bash

    PYTHONPATH=src python -m pytest -q benchmarks/test_e2e_experiment_perf.py
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import _write_csv
from repro.experiments.sweep import plan_sweep, run_sweep_shard
from repro.obs.export import write_bench_json
from repro.parallel import raise_on_failures, run_sharded

pytestmark = pytest.mark.bench

_RESULTS = Path(__file__).parent / "results"
_ROOT = Path(__file__).parent.parent
_BASELINE = _RESULTS / "e2e_baseline.json"

#: The workload is pinned to the committed baseline's; the test asserts
#: the two match so the comparison can never silently drift.
N_AMPS = 16
AMP_LO = 2.0
AMP_HI = 12.0
DURATION_S = 0.02
#: Timed repetitions of the headline (jobs=1) configuration.
TIMED_ROUNDS = 3
#: CSV parity compares a strided view of the full trace — every record
#: of every lane would be a multi-megabyte text artefact per variant
#: without proving anything the stride misses (the raw trace buffers
#: are compared in full).
CSV_STRIDE = 16


def _tasks():
    amps = np.linspace(AMP_LO, AMP_HI, N_AMPS)
    return plan_sweep(amps, DURATION_S, keep_trace=True)


def _run_once(jobs: int) -> tuple[float, np.ndarray]:
    """One full sweep on ``jobs`` workers; returns (seconds, merged trace)."""
    t0 = time.perf_counter()
    shards = raise_on_failures(
        run_sharded(run_sweep_shard, _tasks(), jobs=jobs), "e2e sweep"
    )
    elapsed = time.perf_counter() - t0
    return elapsed, np.hstack([s.phase_deg for s in shards])


def _csv_bytes(tmp_path: Path, label: str, trace: np.ndarray) -> bytes:
    """The sweep trace through the runner's own CSV writer."""
    path = tmp_path / f"{label}.csv"
    sub = trace[::CSV_STRIDE]
    header = ",".join(f"lane{i}_phase_deg" for i in range(sub.shape[1]))
    _write_csv(path, header, [sub[:, i] for i in range(sub.shape[1])])
    return path.read_bytes()


def test_e2e_sweep_speed_and_parity(tmp_path):
    baseline = json.loads(_BASELINE.read_text())
    assert baseline["workload"] == {
        "n_amps": N_AMPS,
        "amp_lo": AMP_LO,
        "amp_hi": AMP_HI,
        "duration_s": DURATION_S,
    }, "benchmark workload drifted from the committed baseline's"

    # -- parity: serial and pooled ------------------------------------
    # The first (jobs=1) run doubles as the compile warmup.
    t_warmup, ref_trace = _run_once(jobs=1)
    ref_bytes = ref_trace.tobytes()
    t_jobs2, trace = _run_once(jobs=2)
    assert trace.tobytes() == ref_bytes, "trace bytes diverged: jobs2"
    assert _csv_bytes(tmp_path, "jobs2", trace) == _csv_bytes(
        tmp_path, "jobs1", ref_trace
    ), "CSV bytes diverged: jobs2"

    # -- headline timing: serial (the baseline's shape) ----------------
    rounds = []
    for _ in range(TIMED_ROUNDS):
        elapsed, trace = _run_once(jobs=1)
        assert trace.tobytes() == ref_bytes
        rounds.append(elapsed)
    mean_s = float(np.mean(rounds))
    min_s = float(np.min(rounds))
    speedup = baseline["mean_s"] / mean_s

    machine = {
        "nodename": platform.node(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
    same_box = machine == baseline["machine"]

    rows = [
        f"workload: {N_AMPS} amps x {DURATION_S * 1e3:.0f} ms machine time",
        f"jobs1 (compile warmup): {t_warmup:.3f} s",
        f"jobs2: {t_jobs2:.3f} s",
        f"jobs1 over {TIMED_ROUNDS} rounds: mean {mean_s:.3f} s, min {min_s:.3f} s",
        f"baseline mean {baseline['mean_s']:.3f} s -> {speedup:.1f}x "
        f"({'same box, gated' if same_box else 'different box, report only'})",
    ]
    print("\n=== e2e sweep (runner workload) ===")
    for row in rows:
        print(row)

    records = [
        {
            "name": "e2e/sweep_compiled",
            "stats": {"mean": mean_s, "min": min_s, "max": float(np.max(rounds)),
                      "stddev": float(np.std(rounds, ddof=1)),
                      "rounds": TIMED_ROUNDS},
            "extra_info": {
                "engine": "compiled",
                "jobs": 1,
                "baseline_mean_s": baseline["mean_s"],
                "speedup_vs_baseline": speedup,
                "baseline_machine_match": same_box,
                "workload": baseline["workload"],
            },
        },
        {
            "name": "e2e/sweep_compiled_jobs2",
            "stats": {"mean": t_jobs2, "rounds": 1},
            "extra_info": {"engine": "compiled", "jobs": 2},
        },
        {
            "name": "e2e/parity",
            "stats": {"mean": 0.0, "rounds": 1},
            "extra_info": {
                "byte_identical": ["jobs1", "jobs2"],
                "csv_stride": CSV_STRIDE,
            },
        },
    ]
    _RESULTS.mkdir(exist_ok=True)
    write_bench_json(_RESULTS / "BENCH_e2e.json", records)
    write_bench_json(_ROOT / "BENCH_e2e.json", records)

    if same_box:
        assert speedup >= 2.0, (
            f"e2e sweep only {speedup:.2f}x the committed baseline "
            f"(mean {mean_s:.3f} s vs {baseline['mean_s']:.3f} s); >= 2x required"
        )

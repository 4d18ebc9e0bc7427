"""Command-line experiment runner.

Regenerates any paper artefact from the shell and writes its data series
as CSV (plus a human-readable summary), so the figures can be re-plotted
without touching Python:

.. code-block:: bash

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig5a --out results/ --quick
    python -m repro.experiments.runner all --out results/
    python -m repro.experiments.runner fig5a --quick --telemetry trace
    python -m repro.experiments.runner sweep --batch 32 --jobs 4
    python -m repro.experiments.runner fig5a --faults burst.json

``--quick`` shrinks durations/ensembles for smoke runs; the defaults
match EXPERIMENTS.md.  ``--telemetry metrics`` switches on the
:mod:`repro.obs` telemetry and writes its artefacts
(``<name>_metrics.json``/``.csv``, ``<name>_report.json``) next to the
CSVs — see docs/OBSERVABILITY.md.  ``--telemetry trace`` also records
spans: it writes ``<name>_trace.jsonl`` per experiment and one
Chrome/Perfetto file, ``<out>/trace.json``, covering the whole
invocation — each experiment runs under a root span
``experiment.<name>``, so a ``--jobs N`` run still exports a single
coherent span tree.  Inspect it with ``python -m repro.obs.view`` or at
https://ui.perfetto.dev.

``--jobs N`` shards experiment fan-out (frequency points, scenario
lanes, configurations) across ``N`` worker processes through one warm
:class:`repro.parallel.WorkerPool` held for the whole invocation
(``--jobs 1`` runs every shard inline and starts no process).  The
shard plan and every random seed are independent of ``N``, so the CSVs
are byte-identical between ``--jobs 1`` and ``--jobs N`` (sole
exception: ``reconfig``, whose columns are measured wall-clock
durations); worker telemetry merges back into the parent before export.

``--faults PATH`` runs ``fig5a``'s bench with the faults PATH lists (a
JSON list of :meth:`~repro.faults.spec.FaultSpec.to_dict` payloads); they
travel in its shard item, and no other experiment takes them.

Every option is checked before telemetry is switched on, a worker
starts or a file is written; a bad one exits 2 with one ``ERROR`` line.
Progress/diagnostics go to **stderr** through :mod:`logging`
(``--verbose`` raises the level to DEBUG); only the ``--list`` catalogue
prints to stdout, so it stays pipeable.  The module keeps no state
between calls: :func:`main` hands every option to the experiments as
arguments.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError, FaultSpecError

if TYPE_CHECKING:
    from repro.faults.spec import FaultSpec
    from repro.parallel import WorkerPool

__all__ = ["main", "EXPERIMENTS", "run_experiment"]

logger = logging.getLogger(__name__)


def _configure_logging(verbose: bool) -> None:
    """Route runner output to stderr; idempotent across main() calls."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.handlers[:] = [handler]
    logger.setLevel(logging.DEBUG if verbose else logging.INFO)
    logger.propagate = False


def _write_csv(path: Path, header: str, columns: list[np.ndarray]) -> None:
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    np.savetxt(path, data, delimiter=",", header=header, comments="")


def _fig1(out: Path, quick: bool, **_) -> list[str]:
    from repro.experiments.fig1 import fig1_forces_data

    data = fig1_forces_data()
    _write_csv(out / "fig1_voltage.csv", "time_s,voltage_v", [data.time, data.voltage])
    _write_csv(
        out / "fig1_particles.csv",
        "delta_t_s,voltage_v,delta_gamma_kick",
        [data.particle_delta_t, data.particle_voltage, data.particle_delta_gamma_kick],
    )
    return [f"gap voltage curve: {len(data.time)} points",
            f"kicks (early/ref/late): {data.particle_delta_gamma_kick}"]


def _fig2(out: Path, quick: bool, **_) -> list[str]:
    from repro.experiments.fig2 import fig2_signal_snapshot

    d = fig2_signal_snapshot()
    _write_csv(
        out / "fig2_signals.csv",
        "time_s,reference_v,gap_v,beam_v",
        [d.time, d.reference, d.gap, d.beam],
    )
    return [f"{len(d.time)} samples over {d.time[-1] * 1e6:.2f} us (h = 2)"]


def _fig5a_run(task: tuple):
    """Module-level fig5a work item (pickles into pool workers)."""
    from repro.experiments.fig5 import fig5_run_bench

    duration, faults = task
    return fig5_run_bench(duration=duration, faults=faults)


def _fig5b_run(task: tuple):
    """Module-level fig5b work item (pickles into pool workers)."""
    from repro.experiments.fig5 import fig5_run_machine

    duration, n_particles = task
    return fig5_run_machine(duration=duration, n_particles=n_particles)


def _fig5a(
    out: Path, quick: bool, pool: WorkerPool, faults: tuple[FaultSpec, ...], **_
) -> list[str]:
    from repro.experiments.fig5 import fig5_metrics
    from repro.parallel import dispatch

    duration = 0.12 if quick else 0.30
    (res,) = dispatch(pool, _fig5a_run, [(duration, faults)], "fig5a")
    smoothed = res.phase_deg_smoothed(5)
    _write_csv(
        out / "fig5a_phase.csv",
        "time_s,phase_deg,phase_deg_smoothed,jump_deg,correction_deg",
        [res.time, res.phase_deg, smoothed, res.jump_deg, res.correction_deg],
    )
    m = fig5_metrics(res.time, smoothed, 8.0, 0.005)
    return [
        f"f_s = {m.synchrotron_frequency:.1f} Hz (paper 1280)",
        f"first pp = {m.first_peak_to_peak:.2f} deg (paper ~16)",
        f"settled shift = {m.settled_shift:.2f} deg (paper 8)",
    ]


def _fig5b(out: Path, quick: bool, pool: WorkerPool, **_) -> list[str]:
    from repro.experiments.fig5 import fig5_metrics
    from repro.parallel import dispatch

    duration = 0.12 if quick else 0.30
    n_particles = 1200 if quick else 5000
    (res,) = dispatch(pool, _fig5b_run, [(duration, n_particles)], "fig5b")
    _write_csv(
        out / "fig5b_phase.csv",
        "time_s,phase_deg,sigma_delta_t_s,jump_deg,correction_deg",
        [res.time, res.phase_deg, res.sigma_delta_t, res.jump_deg, res.correction_deg],
    )
    m = fig5_metrics(res.time, res.phase_deg, 10.0, 0.005)
    return [
        f"f_s = {m.synchrotron_frequency:.1f} Hz (paper 1200)",
        f"first pp = {m.first_peak_to_peak:.2f} deg (paper ~20)",
        f"settled shift = {m.settled_shift:.2f} deg (paper 10)",
    ]


def _schedule(out: Path, quick: bool, **_) -> list[str]:
    from repro.experiments.schedule_table import schedule_length_table

    rows = schedule_length_table()
    _write_csv(
        out / "schedule_lengths.csv",
        "n_bunches,pipelined,ticks,max_f_rev_hz,paper_ticks",
        [
            [r.n_bunches for r in rows],
            [1.0 if r.pipelined else 0.0 for r in rows],
            [r.schedule_ticks for r in rows],
            [r.max_f_rev_hz for r in rows],
            [r.paper_ticks for r in rows],
        ],
    )
    return [
        f"{r.n_bunches} bunches {'pipelined' if r.pipelined else 'plain'}: "
        f"{r.schedule_ticks} ticks (paper {r.paper_ticks})"
        for r in rows
    ]


def _jitter(out: Path, quick: bool, pool: WorkerPool, **_) -> list[str]:
    from repro.experiments.jitter_study import jitter_comparison

    rows = jitter_comparison(n_samples=50_000 if quick else 200_000, pool=pool)
    _write_csv(
        out / "jitter.csv",
        "is_cgra,f_rev_hz,p50_s,p999_s,miss_rate,false_phase_rms_deg",
        [
            [1.0 if "CGRA" in r.implementation else 0.0 for r in rows],
            [r.f_rev_hz for r in rows],
            [r.latency.p50 for r in rows],
            [r.latency.p999 for r in rows],
            [r.deadline_miss_rate for r in rows],
            [r.false_phase_rms_deg for r in rows],
        ],
    )
    return [f"{r.implementation} @ {r.f_rev_hz / 1e3:.0f} kHz: "
            f"false phase rms {r.false_phase_rms_deg:.2f} deg" for r in rows]


def _reconfig(out: Path, quick: bool, pool: WorkerPool, **_) -> list[str]:
    from repro.experiments.reconfig import reconfiguration_table

    rows = reconfiguration_table(pool=pool)
    _write_csv(
        out / "reconfig.csv",
        "n_bunches,pipelined,cgra_seconds,fpga_seconds",
        [
            [r.n_bunches for r in rows],
            [1.0 if r.pipelined else 0.0 for r in rows],
            [r.cgra_seconds for r in rows],
            [r.fpga_seconds for r in rows],
        ],
    )
    return [f"{r.n_bunches} bunches: CGRA {r.cgra_seconds * 1e3:.1f} ms "
            f"vs FPGA {r.fpga_seconds / 3600:.2f} h" for r in rows]


def _rampup(out: Path, quick: bool, **_) -> list[str]:
    from repro.experiments.rampup import RampUpScenario, rampup_run
    from repro.physics import SIS18, KNOWN_IONS

    # One ramp in both modes: it runs in well under a second, and a
    # shorter ramp with the same frequency swing needs more energy gain
    # per turn than the 6 kV gap can deliver.
    scenario = RampUpScenario(ring=SIS18, ion=KNOWN_IONS["14N7+"], duration=0.15)
    res = rampup_run(scenario)
    _write_csv(
        out / "rampup.csv",
        "time_s,f_rev_hz,gamma_ref,gamma_programme,delta_t_s,phi_s_deg,bunch_phase_deg",
        [res.time, res.f_rev, res.gamma_ref, res.gamma_programme,
         res.delta_t, res.synchronous_phase_deg, res.bunch_phase_deg],
    )
    return [f"final gamma error {res.final_gamma_error:.2e}, "
            f"max |bunch phase| {res.max_abs_bunch_phase_deg:.1f} deg, "
            f"deadline met {res.deadline.met}"]


def _landau(out: Path, quick: bool, pool: WorkerPool, **_) -> list[str]:
    from repro.experiments.landau import landau_damping_comparison

    rows = landau_damping_comparison(n_particles=1200 if quick else 4000, pool=pool)
    _write_csv(
        out / "landau.csv",
        "control_enabled,damping_rate_per_s,time_constant_s,bunch_length_growth",
        [
            [1.0 if r.control_enabled else 0.0 for r in rows],
            [r.damping_rate for r in rows],
            [r.time_constant for r in rows],
            [r.bunch_length_growth for r in rows],
        ],
    )
    return [f"loop {'on' if r.control_enabled else 'off'}: "
            f"{r.damping_rate:.1f}/s" for r in rows]


def _dual(out: Path, quick: bool, pool: WorkerPool, **_) -> list[str]:
    from repro.experiments.dual_harmonic_study import dual_harmonic_landau_study

    rows = dual_harmonic_landau_study(
        n_particles=1000 if quick else 2500,
        n_turns=24000 if quick else 48000,
        pool=pool,
    )
    _write_csv(
        out / "dual_harmonic.csv",
        "ratio,f_s_linear_hz,f_s_small_hz,f_s_large_hz,amplitude_retention",
        [
            [r.ratio for r in rows],
            [r.f_s_linear for r in rows],
            [r.f_s_small for r in rows],
            [r.f_s_large for r in rows],
            [r.amplitude_retention for r in rows],
        ],
    )
    return [f"r={r.ratio}: spread {r.frequency_spread * 100:.1f} %, "
            f"retention {r.amplitude_retention * 100:.1f} %" for r in rows]


def _sweep(out: Path, quick: bool, pool: WorkerPool, batch: int, **_) -> list[str]:
    from repro.experiments.sweep import plan_sweep, run_sweep_shard
    from repro.parallel import dispatch

    amps = np.linspace(2.0, 12.0, batch)
    duration = 0.06 if quick else 0.20
    tasks = plan_sweep(amps, duration)
    t0 = time.perf_counter()
    shards = dispatch(pool, run_sweep_shard, tasks, "sweep")
    elapsed = time.perf_counter() - t0
    # Shards come back in offset order (the merge is order-stable), so
    # concatenation reassembles the full scan.
    f_s = np.concatenate([s.f_s for s in shards])
    first_pp = np.concatenate([s.first_pp for s in shards])
    settled = np.concatenate([s.settled for s in shards])
    _write_csv(
        out / "sweep_jump_amplitude.csv",
        "jump_deg,f_s_hz,first_peak_to_peak_deg,settled_shift_deg",
        [amps, f_s, first_pp, settled],
    )
    n_turns = shards[0].n_turns
    rate = batch * n_turns / elapsed if elapsed > 0 else float("inf")
    lines = [
        f"{batch} lanes x {n_turns} turns in {elapsed:.1f}s "
        f"({rate / 1e3:.0f}k lane-iterations/s, "
        f"{len(tasks)} shard(s) of "
        f"{'+'.join(str(len(task.amps)) for task in tasks)} lanes, "
        f"jobs={pool.jobs})",
    ]
    if np.isfinite(f_s).any():
        lines += [
            f"f_s across lanes: {np.nanmin(f_s):.1f}..{np.nanmax(f_s):.1f} Hz "
            f"(paper 1280)",
            f"settled shift tracks jump: "
            f"{settled[0]:.1f} deg @ {amps[0]:.0f} -> "
            f"{settled[-1]:.1f} deg @ {amps[-1]:.0f}",
        ]
    else:
        lines.append("duration too short for settled metrics (NaN columns)")
    return lines


def _faults(out: Path, quick: bool, pool: WorkerPool, **_) -> list[str]:
    from repro.faults.campaign import CampaignConfig, CampaignResult, run_campaign

    config = CampaignConfig.quick() if quick else CampaignConfig()
    result = run_campaign(config, pool=pool)
    _write_csv(
        out / "faults_campaign.csv",
        CampaignResult.CSV_HEADER,
        result.csv_columns(),
    )
    return result.summary_lines()


#: Experiment id → (description, runner).  :func:`run_experiment` calls
#: a runner as ``fn(out, quick=, pool=, batch=, faults=)``; each names
#: the options it reads and takes the rest as ``**_``.
EXPERIMENTS: dict[str, tuple[str, Callable[..., list[str]]]] = {
    "fig1": ("Fig. 1 — forces on a bunch", _fig1),
    "fig2": ("Fig. 2 — bench signals (h = 2)", _fig2),
    "fig5a": ("Fig. 5a — simulator phase oscillation", _fig5a),
    "fig5b": ("Fig. 5b — machine-experiment emulation", _fig5b),
    "schedule": ("Section IV-B — schedule lengths", _schedule),
    "jitter": ("E7 — software vs. CGRA jitter", _jitter),
    "reconfig": ("E8 — reconfiguration turnaround", _reconfig),
    "rampup": ("E9 — acceleration ramp", _rampup),
    "landau": ("E10 — Landau damping vs. loop", _landau),
    "dual": ("E12 — dual-harmonic study", _dual),
    "sweep": ("Batched jump-amplitude sweep (lockstep lanes)", _sweep),
    "faults": ("Fault-injection campaign (stability margins)", _faults),
}


def _check_options(names: list[str], batch: int, faults: tuple) -> None:
    """Raise for the first option an experiment run cannot take.

    :class:`ConfigurationError` for an unknown experiment id, a batch
    below one, or faults given to an experiment other than ``fig5a``;
    the :class:`FaultSpecError` or :class:`ConfigurationError` of
    ``fig5a``'s own bench config when it cannot arm ``faults``.
    """
    for name in names:
        if name not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
            )
    if batch < 1:
        raise ConfigurationError(f"--batch must be >= 1, got {batch}")
    if faults:
        others = [name for name in names if name != "fig5a"]
        if others:
            raise ConfigurationError(
                f"--faults applies to fig5a only, not {', '.join(others)}"
            )
        from repro.experiments.mde import bench_config

        bench_config(faults=faults)


def _load_faults(path: str) -> tuple[FaultSpec, ...]:
    """The specs of a ``--faults`` file: a JSON list of
    :meth:`~repro.faults.spec.FaultSpec.to_dict` payloads.

    Raises :class:`ConfigurationError` naming ``path`` when the file
    cannot be read or is not a list of valid spec dicts.
    """
    import json

    from repro.faults.spec import FaultSpec

    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, list):
            raise FaultSpecError(
                f"fault payload must be a list of FaultSpec dicts, "
                f"got {type(payload).__name__}"
            )
        for entry in payload:
            if not isinstance(entry, dict):
                raise FaultSpecError(
                    f"fault payload entries must be dicts, got {type(entry).__name__}"
                )
        return tuple(FaultSpec.from_dict(d) for d in payload)
    except (OSError, ValueError, TypeError, FaultSpecError) as exc:
        raise ConfigurationError(f"--faults {path}: {exc}") from exc


def run_experiment(
    name: str,
    out_dir: Path,
    quick: bool = False,
    *,
    pool: WorkerPool | None = None,
    batch: int = 8,
    faults: tuple[FaultSpec, ...] = (),
) -> list[str]:
    """Run one experiment by id; returns its summary lines.

    ``pool`` runs the experiment's shards (None: inline, in this
    process); ``batch`` is the lane count of ``sweep``; ``faults`` arms
    ``fig5a``'s bench and is refused for any other experiment.  Options
    are checked before ``out_dir`` is created.
    """
    _check_options([name], batch, faults)
    if pool is None:
        from repro.parallel import WorkerPool

        pool = WorkerPool(jobs=1)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, fn = EXPERIMENTS[name]
    return fn(out_dir, quick=quick, pool=pool, batch=batch, faults=faults)


def _export_telemetry(name: str, out_dir: Path, spans) -> None:
    """Write the obs artefacts for one experiment and reset for the next.

    ``spans`` is the :class:`~repro.obs.Tracer` the invocation's
    Perfetto file is exported from (None without tracing); it takes the
    experiment's spans before the reset drops them.
    """
    from repro import obs

    paths = [
        obs.export.export_metrics_json(out_dir / f"{name}_metrics.json"),
        obs.export.export_metrics_csv(out_dir / f"{name}_metrics.csv"),
    ]
    if spans is not None:
        paths.append(obs.export.export_trace_jsonl(out_dir / f"{name}_trace.jsonl"))
    reports = obs.run_reports()
    if reports:
        paths.append(
            obs.export.export_run_reports_json(out_dir / f"{name}_report.json")
        )
        for report in reports:
            logger.debug(
                "run report %s: %d iterations, %d misses, slack p50=%.1f p99=%.1f",
                report.name, report.n_iterations, report.deadline_misses,
                report.slack_p50, report.slack_p99,
            )
    logger.info("telemetry -> %s", ", ".join(p.name for p in paths))
    if spans is not None:
        live = obs.get_tracer()
        spans.records.extend(live.records)
        spans.dropped += live.dropped
    obs.reset()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner",
        description="Regenerate 'Cavity in the Loop' figures/tables as CSV.",
    )
    parser.add_argument("experiment", nargs="?",
                        help="experiment id, or 'all' (see --list)")
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--quick", action="store_true",
                        help="shrink durations/ensembles for a smoke run")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="DEBUG-level progress on stderr")
    parser.add_argument("--telemetry", choices=("metrics", "trace"), default=None,
                        help="metrics: write <name>_metrics.json/.csv and "
                             "<name>_report.json next to the CSVs; trace: "
                             "also <name>_trace.jsonl, and one Perfetto file "
                             "of the whole run, <out>/trace.json (inspect "
                             "with python -m repro.obs.view)")
    parser.add_argument("--faults", metavar="PATH", default=None,
                        help="run fig5a's bench with the faults PATH lists, "
                             "a JSON list of FaultSpec dicts (see "
                             "docs/FAULTS.md); fig5a only")
    parser.add_argument("--batch", type=int, default=8,
                        help="number of lockstep lanes for batched "
                             "experiments such as 'sweep' (default 8)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="shard experiment fan-out across N worker "
                             "processes (default 1 = in-process); output "
                             "CSVs are byte-identical across job counts")
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)

    if args.list or args.experiment is None:
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # Every option is checked here, before telemetry, a worker or a file.
    try:
        if args.jobs < 1:
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        faults = () if args.faults is None else _load_faults(args.faults)
        _check_options(names, args.batch, faults)
    except (ConfigurationError, FaultSpecError) as exc:
        logger.error("%s", exc)
        return 2
    if faults:
        logger.info(
            "fig5a runs with %d fault(s): %s",
            len(faults),
            ", ".join(s.label or s.kind.value for s in faults),
        )

    from repro import obs
    from repro.parallel import WorkerPool

    want_trace = args.telemetry == "trace"
    spans = obs.Tracer() if want_trace else None
    if args.telemetry is not None:
        obs.enable(trace=want_trace)
        obs.reset()
    # One pool for the whole invocation: workers stay warm (and their
    # compile caches primed) across every experiment.  They start at the
    # first pooled dispatch and inherit the telemetry switches set above;
    # at one job the pool runs shards inline and starts no process.
    pool = WorkerPool(jobs=args.jobs)
    out_dir = Path(args.out)
    try:
        for name in names:
            logger.debug("starting %s (quick=%s)", name, args.quick)
            t0 = time.perf_counter()
            # Root span: every span the experiment records — including
            # shards dispatched to pool workers, whose context is frozen
            # from here — parents under experiment.<name>, so the
            # exported tree has a single root per experiment.
            root = None
            if want_trace:
                root = obs.get_tracer().span(
                    f"experiment.{name}", quick=bool(args.quick), jobs=args.jobs
                )
            try:
                summary = run_experiment(
                    name, out_dir, quick=args.quick, pool=pool,
                    batch=args.batch, faults=faults,
                )
            except ConfigurationError as exc:
                logger.error("%s", exc)
                return 2
            finally:
                if root is not None:
                    root.end()
            elapsed = time.perf_counter() - t0
            logger.info("[%s] done in %.1fs -> %s/", name, elapsed, out_dir)
            for line in summary:
                logger.info("  %s", line)
            if args.telemetry is not None:
                _export_telemetry(name, out_dir, spans)
        if spans is not None:
            trace_path = obs.export.export_trace_perfetto(
                out_dir / "trace.json", tracer=spans
            )
            logger.info(
                "perfetto trace -> %s (%d spans/events; "
                "python -m repro.obs.view %s)",
                trace_path, len(spans), trace_path,
            )
    finally:
        pool.close()
        if args.telemetry is not None:
            obs.disable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line experiment runner.

Regenerate the paper's figures/tables without pytest::

    python -m repro.experiments fig3 fig6 fig8
    python -m repro.experiments all
    python -m repro.experiments --list

Observability (``repro.obs``) rides along on any run::

    python -m repro.experiments fig6 --trace fig6.json      # Perfetto/Chrome
    python -m repro.experiments fig6 --metrics metrics.json # counters etc.
    python -m repro.experiments fig6 --profile              # host hotspots
                            # (cProfile: top functions by self time)
    python -m repro.experiments cluster --telemetry --report
                            # virtual-time series, OpenMetrics, merged
                            # trace, SLO/alert report under ./telemetry/

Multi-run workloads fan out across processes (``repro.par``) with results
byte-identical to the serial run, and a content-addressed cache skips
completed cells on re-runs::

    python -m repro.experiments faults --seeds 25 --jobs 8
    python -m repro.experiments sweep --jobs 4 --cache .parcache

When something goes wrong, the flight recorder and the explain engine
turn alerts into root-cause incident reports::

    python -m repro.experiments cluster --telemetry --flight
                            # black-box dumps under ./flight/ on any
                            # fired alert or invariant violation
    python -m repro.experiments explain telemetry   # or a flight dump
                            # incidents.json / incidents.txt /
                            # incident_trace.json next to the evidence
"""

import argparse
import sys

from repro.experiments import DRIVERS, driver
from repro.obs import runtime as obs_runtime
from repro.par import effective_jobs


#: subcommands whose cells ``--jobs`` fans out over worker processes
POOLED = {"faults", "sweep", "cluster"}


def build_parser():
    """The parser; ``.parse_args([name])`` is what a bare run of ``name``
    hands its driver."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("names", nargs="*",
                        help="experiments to run, or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome/Perfetto trace-event JSON file "
                             "covering every simulator the run boots")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write a metrics snapshot (JSON) and print the "
                             "merged table")
    parser.add_argument("--profile", nargs="?", const=12, type=int,
                        metavar="N",
                        help="run under cProfile and print the N functions "
                             "with the most self time (default 12)")
    parser.add_argument("--telemetry", nargs="?", const="telemetry",
                        metavar="DIR",
                        help="arm the full telemetry stack (timeline series "
                             "+ alert engine + tracing) and write the export "
                             "bundle — OpenMetrics text, JSONL series, "
                             "merged Chrome trace, alert summary — under "
                             "DIR (default ./telemetry)")
    parser.add_argument("--report", action="store_true",
                        help="print the SLO/alert report after the run "
                             "(implies --telemetry)")
    parser.add_argument("--flight", nargs="?", const="flight",
                        metavar="DIR",
                        help="arm the flight recorder (implies --telemetry): "
                             "a bounded black box that dumps a self-contained "
                             "JSON snapshot under DIR (default ./flight) "
                             "whenever an alert fires or an invariant "
                             "violation is recorded; feed the dumps to the "
                             "'explain' subcommand")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan independent cells across up to N "
                             "processes (faults, sweep, cluster); output is "
                             "byte-identical to a serial run")
    parser.add_argument("--cache", metavar="DIR",
                        help="content-addressed result cache for parallel "
                             "cells (faults, sweep, cluster); invalidated by "
                             "any repro source change")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="faults soak mode: run N seeds drawn from "
                             "--entropy")
    parser.add_argument("--entropy", type=int, default=0,
                        help="seed-sequence entropy for --seeds")
    parser.add_argument("--only", metavar="CELLS",
                        help="sweep: comma-separated cell names")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="cluster: topology size (default 8)")
    parser.add_argument("--bench", metavar="PATH",
                        help="cluster: benchmark JSON path "
                             "(default BENCH_cluster.json)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.jobs = effective_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    for flag in ("profile", "nodes", "seeds"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error("--{} must be >= 1, got {}".format(flag, value))

    if args.list or not args.names:
        print("available experiments:", ", ".join(sorted(DRIVERS)))
        return 0
    if args.names[0] == "explain":
        if len(args.names) < 2:
            parser.error("explain needs a telemetry bundle or flight dump "
                         "path (e.g. 'explain telemetry')")
        return _explain(args.names[1:])
    if args.names == ["all"]:
        # "all" already covers every cell the sweep would run
        names = sorted(name for name in DRIVERS if name != "sweep")
    else:
        names = args.names
    for name in names:
        if name not in DRIVERS:
            parser.error("unknown experiment {!r} (try --list)".format(name))

    if (args.report or args.flight is not None) and args.telemetry is None:
        args.telemetry = "telemetry"
    if (args.jobs > 1
            and (args.trace or args.profile is not None
                 or args.telemetry is not None)
            and POOLED.intersection(names)):
        # workers arm metrics only — span/sample/timeline streams are too
        # hot to ship across the process boundary, so parallel cells are
        # invisible to --trace/--profile/--telemetry
        print("warning: --trace/--profile/--telemetry cover only the parent "
              "process; cells run with --jobs {} are not traced, profiled, "
              "or sampled (use --jobs 1, or --metrics for aggregated "
              "counters)".format(args.jobs), file=sys.stderr)
    run = None
    if args.trace or args.metrics or args.telemetry is not None:
        run = obs_runtime.ObsRun(
            tracing=args.trace is not None or args.telemetry is not None,
            telemetry=args.telemetry is not None,
            flight=args.flight is not None,
            flight_dir=args.flight,
        )
    with obs_runtime.observe(run):
        if args.profile is None:
            return _run_names(args, names, run)
        return _run_profiled(args, names, run)


def _run_profiled(args, names, run):
    """:func:`_run_names` under cProfile; prints GC time, then the top N.

    Host profiling stays outside the simulator: cProfile sees every layer
    (event handlers, DTW, export, the cluster epoch loop) and the profiled
    run is the same program as an unprofiled one.  cProfile charges each
    collector pause to whichever function happens to be running, so a
    ``gc.callbacks`` hook, installed for the profiled call only, counts
    the collections per generation, their total seconds and the objects
    they freed, printed on one line above pstats' table.  A finished
    boot frees itself (``Kernel.shutdown``), so any object freed here is
    a reference cycle something left behind.
    """
    import cProfile
    import gc
    import pstats
    from time import perf_counter

    collections = [0, 0, 0]
    started = total = 0.0
    freed = 0

    def on_gc(phase, info):
        nonlocal started, total, freed
        if phase == "start":
            started = perf_counter()
        else:
            collections[info["generation"]] += 1
            total += perf_counter() - started
            freed += info["collected"]

    profiler = cProfile.Profile()
    gc.callbacks.append(on_gc)
    try:
        status = profiler.runcall(_run_names, args, names, run)
    finally:
        gc.callbacks.remove(on_gc)
    print("gc: {} gen0, {} gen1, {} gen2 collections, {:.2f} s, "
          "{} objects freed".format(*collections, total, freed))
    pstats.Stats(profiler).sort_stats("tottime").print_stats(args.profile)
    return status


def _run_names(args, names, run):
    """Run each subcommand, then the export step; returns the exit status.

    ``run`` is the invocation's :class:`~repro.obs.runtime.ObsRun`, or None
    when no obs flag was given.  Past each driver's ``render(result(args))``
    come the CLI's own effects: the ``--bench`` file, the stderr runner
    summary, and status 1 for a result that is not ``ok`` (faults).
    """
    status = 0
    for name in names:
        if run is not None:
            run.label_prefix = name
        print("#" * 72)
        print("# {}".format(name))
        print("#" * 72)
        module = driver(name)
        result = module.result(args)
        print(module.render(result), end="")
        if name == "cluster":
            print("bench -> {}".format(module.write_bench(
                result, args.bench or module.DEFAULT_BENCH_PATH)))
        if getattr(result, "par", None) and (args.jobs > 1 or args.cache):
            # stderr: stdout must not depend on --jobs or --cache
            print(result.par.summary(), file=sys.stderr)
        if not getattr(result, "ok", True):
            status = 1
        print()
    if run is not None:
        _export_observability(args, run)
    return status


def _export_observability(args, run):
    from repro.obs import (
        export_chrome_trace,
        export_metrics,
        format_metrics_table,
    )

    sessions = run.sessions
    if args.telemetry is not None:
        # finalizing fires the at-end alerts into the tracer, so it comes
        # before every export: --trace then writes the bundle's trace.json
        run.finalize()
    if args.trace:
        count = export_chrome_trace(sessions, args.trace)
        print("trace: {} events from {} sessions -> {}".format(
            count, len(sessions), args.trace))
    if args.metrics:
        # the merged block folds the run's registries, pool cells' included
        snapshot = export_metrics(sessions, args.metrics, run.registries)
        print("metrics snapshot -> {}".format(args.metrics))
        print(format_metrics_table(snapshot))
    if args.telemetry is not None:
        _export_telemetry(args, run)


def _export_telemetry(args, run):
    """Write the telemetry bundle and (optionally) print the alert report.

    The bundle is one directory holding every export surface: OpenMetrics
    text for scrape-shaped consumers, the JSONL series dump for offline
    analysis, the merged Chrome trace (each session its own pid track,
    alert instants included), and the structured alert summary.
    """
    import json
    import os

    from repro.obs import (
        export_chrome_trace,
        export_events_jsonl,
        export_openmetrics,
        export_timeline_jsonl,
    )

    sessions = run.sessions
    engine = run.finalize()
    out = args.telemetry
    os.makedirs(out, exist_ok=True)
    families = export_openmetrics(sessions, os.path.join(out, "metrics.om"))
    series = export_timeline_jsonl(sessions, os.path.join(out,
                                                          "series.jsonl"))
    events = export_chrome_trace(sessions, os.path.join(out, "trace.json"))
    export_events_jsonl(sessions, os.path.join(out, "events.jsonl"))
    summary = engine.summary() if engine is not None else {
        "ok": True, "rules": 0, "alerts": [], "counts": {}}
    with open(os.path.join(out, "report.json"), "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("telemetry: {} metric families, {} series, {} trace events "
          "-> {}/".format(families, series, events, out))
    recorder = run.flight
    if recorder is not None:
        dumps = recorder.flush()
        print("flight: {} dump(s){} -> {}/".format(
            dumps,
            " (+{} suppressed)".format(recorder.suppressed)
            if recorder.suppressed else "",
            recorder.out_dir or "(memory)"))
    if args.report and engine is not None:
        print(engine.format_report())


def _explain(paths):
    """The explain subcommand: evidence in, incident reports out."""
    import os

    from repro.obs import explain as explain_mod

    for path in paths:
        evidence = explain_mod.load(path)
        report = explain_mod.explain(evidence)
        out_dir = path if os.path.isdir(path) else (
            os.path.dirname(path) or ".")
        json_path, _text, trace_path = explain_mod.write_reports(
            report, out_dir)
        print(explain_mod.format_incidents(report))
        print("explain: {} incident(s) -> {} (+ overlay {})".format(
            len(report["incidents"]), json_path, trace_path))
    return 0


if __name__ == "__main__":
    sys.exit(main())

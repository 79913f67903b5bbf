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

from repro.analysis.report import format_series, format_table
from repro.obs import runtime as obs_runtime
from repro.par import effective_jobs


def run_fig3():
    from repro.experiments.fig3 import (
        run_fig3a_spatial,
        run_fig3b_requests,
        run_fig3c_lingering,
    )

    a = run_fig3a_spatial()
    print(format_table(
        ["series", "mean W"],
        [["2 instances", "{:.2f}".format(a.mean_two)],
         ["1 instance doubled", "{:.2f}".format(a.mean_one_doubled)]],
        title="Fig 3a — spatial concurrency",
    ))
    print("doubling overestimates by {:+.0f}%\n".format(a.overestimate_pct))

    b = run_fig3b_requests()
    print("Fig 3b — commands 1/2 overlap for {:.1f} ms".format(
        b.overlap_ns / 1e6))
    print(format_series(b.watts, label="GPU W"))

    c = run_fig3c_lingering()
    print("\nFig 3c — after idle {:.2f} W vs after busy {:.2f} W "
          "({:+.0f}%)".format(c.mean_after_idle, c.mean_after_busy,
                              c.lingering_pct))


def run_fig6():
    from repro.experiments.fig6 import run_fig6_row

    for component in ("cpu", "dsp", "gpu", "wifi"):
        row = run_fig6_row(component)
        rows = [["alone", "{:.0f}".format(row.alone.energy_j * 1000), "--"]]
        for cell in row.psbox_cells:
            rows.append(["psbox " + cell.label,
                         "{:.0f}".format(cell.energy_j * 1000),
                         "{:+.1f}%".format(cell.delta_pct)])
        for cell in row.baseline_cells:
            rows.append(["existing " + cell.label,
                         "{:.0f}".format(cell.energy_j * 1000),
                         "{:+.1f}%".format(cell.delta_pct)])
        print(format_table(["scenario", "mJ", "delta"], rows,
                           title="Fig 6 — {} row".format(component)))
        print()


def run_fig7():
    from repro.experiments.fig7 import run_fig7_cpu, run_fig7_dsp

    cpu = run_fig7_cpu(use_psbox=True)
    print("Fig 7 CPU — {} balloons, {:.0f} ms forced idle".format(
        len(cpu.windows), cpu.forced_idle_ns / 1e6))
    dsp = run_fig7_dsp(use_psbox=True)
    print("Fig 7 DSP — {} balloons, foreign overlap in windows: "
          "{:.1f} ms".format(len(dsp.windows), dsp.foreign_overlap_ns / 1e6))


def run_fig8():
    from repro.experiments.fig8 import run_fig8 as _run

    for component in ("cpu", "dsp", "gpu", "wifi"):
        result = _run(component)
        rows = [[i.name + ("*" if i.sandboxed else ""),
                 "{:.1f}".format(i.before), "{:.1f}".format(i.after),
                 "{:+.1f}%".format(-i.loss_pct)]
                for i in result.instances]
        print(format_table(["instance", "before", "after", "change"], rows,
                           title="Fig 8 — {}".format(component)))
        print()


def run_fig9():
    from repro.experiments.fig9 import fidelity_power_span, run_fig9 as _run

    low, high = fidelity_power_span()
    result = _run()
    print("Fig 9 — fidelity span {:.0f}..{:.0f} mW = {:.1f}x".format(
        low * 1000, high * 1000, high / low))
    for budget, watts, level in zip(result.budgets_w, result.observed_w,
                                    result.fidelity):
        print("  budget {:.2f} W -> observed {:.3f} W at fidelity {}".format(
            budget, watts, level))


def run_sec62():
    from repro.experiments.sec62 import run_sec62_latency, run_sec62_throughput

    for row in run_sec62_latency():
        print("latency {:<16} {:8.2f} -> {:8.2f} ms".format(
            row.component, row.mean_without_ns / 1e6,
            row.mean_with_ns / 1e6))
    for row in run_sec62_throughput():
        print("throughput {:<6} total loss {:5.1f}%  (sandboxed "
              "{:5.1f}%)".format(row.component, row.total_loss_pct,
                                 row.sandboxed_loss_pct))


def run_sec63():
    from repro.experiments.sec63 import run_sec63_robustness

    result = run_sec63_robustness()
    print("Sec 6.3 — browser {:.1f}x slower, triangle {:+.1f}%".format(
        result.browser_slowdown, -result.triangle_loss_pct))


def run_sidechannel():
    from repro.experiments.sidechannel_exp import run_sidechannel as _run

    result = _run()
    print("Sec 2.5 — attack success {:.0%} ({:.1f}x random) without "
          "psbox, {:.0%} with".format(
              result.without_psbox.success_rate,
              result.without_psbox.advantage,
              result.with_psbox.success_rate))


def run_powercap():
    from repro.experiments.powercap_exp import run_powercap as _run

    result = _run()
    print(format_table(
        ["quantity", "value"],
        [["uncapped aggregate", "{:.2f} W".format(result.uncapped_w)],
         ["platform cap (70%)", "{:.2f} W".format(result.cap_w)],
         ["steady aggregate", "{:.2f} W".format(result.steady_w)],
         ["cap compliance", "{:+.1f}%".format(result.compliance_pct)],
         ["aggregate after B idles", "{:.2f} W".format(result.relaxed_w)],
         ["tenant A grant gain", "{:+.2f} W".format(result.tenant_a_gain_w)],
         ["throttle/relax actions", str(result.throttle_actions)]],
        title="Power capping — hierarchical budget enforcement",
    ))
    print(format_table(
        ["leaf", "grant contended", "grant after B idles"],
        [[leaf, "{:.2f} W".format(result.grants_contended[leaf]),
          "{:.2f} W".format(result.grants_relaxed[leaf])]
         for leaf in sorted(result.grants_contended)],
        title="Per-leaf grants (slack redistribution)",
    ))


def run_cluster(args=None):
    from repro.experiments.cluster_exp import (
        DEFAULT_BENCH_PATH,
        DEFAULT_NODES,
        run_cluster as _run,
        write_bench,
    )

    jobs = getattr(args, "jobs", 1) if args is not None else 1
    cache = _result_cache(args)
    nodes = getattr(args, "nodes", None) if args is not None else None
    bench = getattr(args, "bench", None) if args is not None else None
    result, runner = _run(nodes=nodes if nodes else DEFAULT_NODES,
                          jobs=jobs, cache=cache)
    print(format_table(
        ["quantity", "value"],
        [["nodes", str(result.nodes)],
         ["instances placed", "{}/{}".format(result.placement["placed"],
                                             result.instances)],
         ["peak concurrent users", "{:,}".format(result.peak_users)],
         ["uncapped cluster peak", "{:.2f} W".format(result.uncapped_peak_w)],
         ["datacenter budget (70%)", "{:.2f} W".format(result.budget_w)],
         ["spill rate", "{:.1%}".format(result.placement["spill_rate"])],
         ["placement balance CV", "{:.3f}".format(
             result.placement["balance_cv"])]],
        title="Cluster — {} nodes under one budget".format(result.nodes),
    ))
    rows = []
    for name in sorted(result.runs):
        m = result.runs[name]
        rows.append([name,
                     "{:+.2f}%".format(m["compliance_pct"]),
                     "{:.2f}%".format(m["mean_abs_error_pct"]),
                     "{:+.2f}%".format(m["max_overshoot_pct"]),
                     "{:.3f} W".format(m["redistributed_slack_w"]),
                     str(m["throttle_actions"])])
    print(format_table(
        ["allocator", "compliance", "abs err", "max over", "slack moved",
         "actions"],
        rows,
        title="Global allocators, head to head",
    ))
    path = write_bench(result, bench or DEFAULT_BENCH_PATH)
    print("bench -> {}".format(path))
    _print_par_stats(runner, jobs, cache)


def _result_cache(args):
    if args is None or not getattr(args, "cache", None):
        return None
    from repro.par import ResultCache

    return ResultCache(args.cache)


def _print_par_stats(runner, jobs, cache):
    """Runner stats go to stderr: the stdout report must stay byte-identical
    between serial and parallel runs (the differential test's contract)."""
    if jobs > 1 or cache is not None:
        print(runner.stats.summary(), file=sys.stderr)


def _print_campaign_table(campaign):
    rows = [
        [o.name, o.workload, str(o.injections), str(o.violations),
         o.outcome + ("" if o.matches else " (MISMATCH!)")]
        for o in campaign.outcomes
    ]
    print(format_table(
        ["scenario", "workload", "injections", "violations", "outcome"],
        rows,
        title="Fault campaign — seed {}".format(campaign.seed),
    ))
    for o in campaign.outcomes:
        if o.first_violation:
            print("  {}: first violation {}".format(o.name, o.first_violation))
    print("campaign {}: {}/{} scenarios matched expectations".format(
        "ok" if campaign.ok else "FAILED",
        len(campaign.outcomes) - len(campaign.mismatches),
        len(campaign.outcomes)))


def run_faults(args=None):
    """The fault campaign; returns 1 when any scenario misses its
    expectation (the nightly soak's failure signal), else 0."""
    from repro.experiments.faults_exp import (
        campaign_summary_lines,
        run_faults_parallel,
        soak_seeds,
    )

    jobs = getattr(args, "jobs", 1) if args is not None else 1
    cache = _result_cache(args)
    if args is not None and getattr(args, "seeds", None) is not None:
        seeds = soak_seeds(args.seeds, args.entropy)
    else:
        seeds = [0]
    campaigns, runner = run_faults_parallel(seeds, jobs=jobs, cache=cache)
    if len(campaigns) == 1:
        _print_campaign_table(campaigns[0])
    else:
        for campaign in campaigns:
            for line in campaign_summary_lines(campaign):
                print(line)
    _print_par_stats(runner, jobs, cache)
    return 0 if all(campaign.ok for campaign in campaigns) else 1


def run_sweep(args=None):
    from repro.experiments.sweep import run_sweep as _run

    jobs = getattr(args, "jobs", 1) if args is not None else 1
    cache = _result_cache(args)
    only = getattr(args, "only", None) if args is not None else None
    try:
        payloads, runner = _run(only.split(",") if only else None,
                                jobs=jobs, cache=cache)
    except ValueError as exc:
        # unknown --only cells: a clean CLI error, not a CellError from
        # deep inside a worker
        raise SystemExit("error: {}".format(exc))
    for payload in payloads:
        print("== {} ==".format(payload["cell"]))
        print(payload["text"], end="")
    _print_par_stats(runner, jobs, cache)


EXPERIMENTS = {
    "fig3": run_fig3,
    "faults": run_faults,
    "powercap": run_powercap,
    "cluster": run_cluster,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "sec62": run_sec62,
    "sec63": run_sec63,
    "sidechannel": run_sidechannel,
    "sweep": run_sweep,
}

#: subcommands whose driver consumes the parallel/soak CLI flags
NEEDS_ARGS = {"faults", "sweep", "cluster"}


def main(argv=None):
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
        print("available experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    if args.names[0] == "explain":
        if len(args.names) < 2:
            parser.error("explain needs a telemetry bundle or flight dump "
                         "path (e.g. 'explain telemetry')")
        return run_explain(args.names[1:])
    if args.names == ["all"]:
        # "all" already covers every cell the sweep would run
        names = sorted(name for name in EXPERIMENTS if name != "sweep")
    else:
        names = args.names
    for name in names:
        if name not in EXPERIMENTS:
            parser.error("unknown experiment {!r} (try --list)".format(name))

    if (args.report or args.flight is not None) and args.telemetry is None:
        args.telemetry = "telemetry"
    if (args.jobs > 1
            and (args.trace or args.profile is not None
                 or args.telemetry is not None)
            and any(name in NEEDS_ARGS for name in names)):
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
    when no obs flag was given.
    """
    status = 0
    for name in names:
        if run is not None:
            run.label_prefix = name
        print("#" * 72)
        print("# {}".format(name))
        print("#" * 72)
        if name in NEEDS_ARGS:
            # a subcommand returning a truthy status (faults: a scenario
            # missed its expectation) fails the invocation
            status = EXPERIMENTS[name](args) or status
        else:
            EXPERIMENTS[name]()
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


def run_explain(paths):
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

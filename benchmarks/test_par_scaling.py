"""Parallel-runner scaling: wall-clock per execution path, plus cache replay.

Emits ``BENCH_par.json`` at the repo root — the scaling data point the
parallel runner promises: the full fault-scenario campaign at two seeds
run serially, fanned across the spawn pool at 2 and 4 jobs (timed through
:func:`repro.par.executors.run_spawn` directly), run through the runner's
own choice at ``jobs=4`` (``auto``: the cost model decides whether a pool
can pay for its interpreter boots on this host), then replayed from a
warm result cache.  One untimed pass of the same cells runs first, so the
serial row is not also paying the process's import and cache warm-up.
Pool speedup depends on the machine's core count, so the spawn rows carry
honest timings without assertions; ``auto`` is the row with a contract —
it must never be meaningfully slower than serial, because on hosts where
the pool cannot win the cost model must pick ``inline``.
"""

import json
import os
from time import perf_counter

from repro.analysis.report import format_table
from repro.experiments.faults_exp import campaign_items
from repro.faults import SCENARIOS
from repro.par import ParallelRunner, ResultCache, merge_results
from repro.par.executors import run_spawn

from benchmarks.conftest import report

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_par.json")

SEEDS = (0, 1)

#: scheduling overhead (wall beyond the cells' own cost) auto may pay —
#: the old bug was exactly this number blowing up (interpreter boots on a
#: host with no spare cores added seconds of pure overhead); the bound is
#: within-run, so cross-run timer noise on shared CI hosts cannot trip it
AUTO_OVERHEAD_FRAC = 0.05
AUTO_OVERHEAD_FLOOR_S = 0.5


def _cells():
    return campaign_items(SEEDS, SCENARIOS)


def _timed_run(jobs, cache=None):
    runner = ParallelRunner(jobs=jobs, cache=cache)
    start = perf_counter()
    payloads = runner.run(_cells())
    return perf_counter() - start, payloads, runner


def _timed_spawn(jobs):
    """The spawn pool at ``jobs`` workers, whatever the runner would pick."""
    cells = _cells()
    start = perf_counter()
    events = list(run_spawn([cell.spec() for cell in cells], jobs))
    wall_s = perf_counter() - start
    assert all(event["ok"] for event in events)
    payloads = merge_results(
        [(event["cell"]["index"], event["cell"]["payload"])
         for event in events], len(cells))
    return wall_s, payloads


def test_bench_par_scaling_and_emit_json(tmp_path):
    # untimed warm-up: without it the first (serial) row also pays lazy
    # imports and cold caches, and the auto row after it looks faster than
    # the same inline path really is
    ParallelRunner(jobs=1).run(_cells())
    # the serial baseline also warms the in-process cost model, so the
    # auto run below decides from a measured per-cell estimate — exactly
    # what a second invocation on a real host would see
    serial_s, serial_payloads, serial_runner = _timed_run(jobs=1)
    jobs2_s, jobs2_payloads = _timed_spawn(jobs=2)
    jobs4_s, jobs4_payloads = _timed_spawn(jobs=4)
    auto_s, auto_payloads, auto_runner = _timed_run(jobs=4)

    # the core guarantee: fan-out never changes a result
    assert jobs2_payloads == serial_payloads
    assert jobs4_payloads == serial_payloads
    assert auto_payloads == serial_payloads

    # the bugfix contract: whatever path auto resolves to, the run pays
    # (almost) nothing beyond the cells' own cost.  On a 1-core host that
    # means auto refused the pool; on multicore the pool overlaps cells and
    # the overhead goes *negative*.  The old behaviour — spawn on a host
    # with no spare cores — pays workers x ~1 s of interpreter boot here
    # and fails by an order of magnitude.
    auto_overhead_s = auto_s - auto_runner.stats.cell_wall_s
    assert auto_overhead_s <= AUTO_OVERHEAD_FRAC * auto_s + \
        AUTO_OVERHEAD_FLOOR_S, (
        "auto path ({}) paid {:.2f}s scheduling overhead on a "
        "{:.2f}s run".format(auto_runner.stats.backend, auto_overhead_s,
                             auto_s))

    cache_dir = str(tmp_path / "parcache")
    _populate_s, _, _ = _timed_run(jobs=2, cache=ResultCache(cache_dir))
    replay_s, replay_payloads, replay_runner = _timed_run(
        jobs=2, cache=ResultCache(cache_dir))
    assert replay_payloads == serial_payloads
    assert replay_runner.stats.cached == len(serial_payloads)
    assert replay_runner.stats.executed == 0
    assert replay_s < serial_s

    trajectory = [
        {"label": "serial (jobs=1, inline)", "backend": "inline",
         "wall_s": serial_s, "speedup": 1.0},
        {"label": "spawn pool (jobs=2)", "backend": "spawn",
         "wall_s": jobs2_s, "speedup": serial_s / jobs2_s},
        {"label": "spawn pool (jobs=4)", "backend": "spawn",
         "wall_s": jobs4_s, "speedup": serial_s / jobs4_s},
        {"label": "auto (jobs=4, resolved {})".format(
            auto_runner.stats.backend),
         "backend": auto_runner.stats.backend,
         "wall_s": auto_s, "speedup": serial_s / auto_s},
        {"label": "cache replay (jobs=2)", "backend": "cache",
         "wall_s": replay_s, "speedup": serial_s / replay_s},
    ]

    payload = {
        "workload": "full faults campaign, seeds {}".format(list(SEEDS)),
        "cells": len(serial_payloads),
        "cpu_count": os.cpu_count(),
        "serial_s": serial_s,
        "serial_cell_cost_s": serial_runner.stats.cell_wall_s,
        "jobs2_s": jobs2_s,
        "jobs4_s": jobs4_s,
        "auto_s": auto_s,
        "auto_backend": auto_runner.stats.backend,
        "auto_overhead_s": auto_overhead_s,
        "speedup_jobs2": serial_s / jobs2_s,
        "speedup_jobs4": serial_s / jobs4_s,
        "speedup_auto": serial_s / auto_s,
        "cache_replay_s": replay_s,
        "cache_replay_speedup": serial_s / replay_s,
        "replay_all_cached": True,
        "trajectory": trajectory,
    }
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    rows = [
        [step["label"], "{:.2f}".format(step["wall_s"]),
         "{:.2f}x".format(step["speedup"])]
        for step in trajectory
    ]
    report("PAR-SCALING", format_table(
        ["configuration", "wall s", "speedup"], rows,
        title="Parallel runner scaling — {} cells on {} host cores "
              "(byte-identical results in every configuration)".format(
                  payload["cells"], payload["cpu_count"]),
    ))

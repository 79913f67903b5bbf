"""ParallelRunner behaviour: determinism, cache flow, errors, metrics.

Pool tests here use the tiny spawn-safe runners from
:mod:`repro.par.testing`; the full-simulation differential proof lives in
``test_par_differential.py``.
"""

import argparse
import io
import json

import pytest

import repro.par.testing as testing
from repro.experiments import __main__ as cli
from repro.obs import metrics_snapshot
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import ObsRun, observe
from repro.par import (
    CellError,
    ParallelRunner,
    ResultCache,
    effective_jobs,
    work_list,
)


def test_effective_jobs_caps_at_the_core_count():
    stream = io.StringIO()
    assert effective_jobs(8, cpu_count=4, stream=stream) == 4
    warning = stream.getvalue()
    assert "--jobs 8" in warning
    assert "4 available CPU cores" in warning
    assert warning.count("\n") == 1


def test_effective_jobs_passes_reasonable_requests_through():
    stream = io.StringIO()
    assert effective_jobs(4, cpu_count=4, stream=stream) == 4
    assert effective_jobs(1, cpu_count=4, stream=stream) == 1
    # Unknown core count (cpu_count() may return None): trust the caller.
    assert effective_jobs(16, cpu_count=0, stream=stream) == 16
    assert stream.getvalue() == ""


def test_effective_jobs_single_core_grammar():
    stream = io.StringIO()
    assert effective_jobs(2, cpu_count=1, stream=stream) == 1
    assert "1 available CPU core;" in stream.getvalue()


def test_effective_jobs_rejects_nonpositive_requests():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        effective_jobs(0, cpu_count=4)


def _square_items(n, offset=7):
    return work_list("demo", "repro.par.testing:square_cell",
                     [(seed, {"offset": offset}) for seed in range(n)])


def test_serial_runs_in_work_list_order():
    runner = ParallelRunner(jobs=1)
    payloads = runner.run(_square_items(6))
    assert [p["seed"] for p in payloads] == list(range(6))
    assert [p["value"] for p in payloads] == [s * s + 7 for s in range(6)]
    assert runner.stats.cells == 6
    assert runner.stats.executed == 6
    assert runner.stats.cached == 0


def test_parallel_equals_serial():
    serial = ParallelRunner(jobs=1).run(_square_items(9))
    parallel = ParallelRunner(jobs=3).run(_square_items(9))
    assert parallel == serial


def test_merge_ignores_completion_order(force_spawn):
    """Cells sleep in *reverse* index order, so completion order inverts the
    work-list; the merge must still return index order.  Pool workers
    genuinely complete out of order."""
    items = work_list(
        "demo", "repro.par.testing:sleep_cell",
        [(seed, {"s": 0.15 - 0.04 * seed}) for seed in range(4)],
    )
    runner = ParallelRunner(jobs=4)
    payloads = runner.run(items)
    assert [p["seed"] for p in payloads] == [0, 1, 2, 3]
    assert runner.stats.backend == "spawn"


def test_cache_skips_completed_cells(tmp_path):
    items = _square_items(5)
    first = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads_first = first.run(items)
    assert first.stats.executed == 5

    second = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads_second = second.run(items)
    assert payloads_second == payloads_first
    assert second.stats.cached == 5
    assert second.stats.executed == 0
    assert "all cells cached" in second.stats.summary()


def test_cache_partial_hit_runs_only_the_rest(tmp_path):
    cache = ResultCache(str(tmp_path))
    ParallelRunner(jobs=1, cache=cache).run(_square_items(3))
    runner = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads = runner.run(_square_items(6))
    assert runner.stats.cached == 3
    assert runner.stats.executed == 3
    assert [p["value"] for p in payloads] == [s * s + 7 for s in range(6)]


def test_config_change_misses_cache(tmp_path):
    ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path))).run(
        _square_items(3, offset=7))
    runner = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    payloads = runner.run(_square_items(3, offset=8))
    assert runner.stats.cached == 0
    assert [p["value"] for p in payloads] == [8, 9, 12]


def test_cell_error_carries_identity_serial():
    items = work_list("demo", "repro.par.testing:boom_cell", [(3, {})])
    with pytest.raises(CellError, match=r"seed=3"):
        ParallelRunner(jobs=1).run(items)


def test_cell_error_propagates_from_pool(force_spawn):
    items = work_list("demo", "repro.par.testing:boom_cell",
                      [(seed, {}) for seed in range(2)])
    with pytest.raises(CellError, match="boom"):
        ParallelRunner(jobs=2).run(items)


def test_failed_cells_no_longer_discard_completed_ones(tmp_path):
    """The PR 10 bugfix: completed cells are persisted as they finish and
    every failed cell is reported, with its identity, in one error."""
    items = work_list("demo", "repro.par.testing:mixed_cell",
                      [(seed, {"boom_seeds": [1, 3]})
                       for seed in range(5)])
    cache = ResultCache(str(tmp_path))
    runner = ParallelRunner(jobs=1, cache=cache)
    with pytest.raises(CellError) as excinfo:
        runner.run(items)
    message = str(excinfo.value)
    assert "2 of 5 executed cell(s) failed" in message
    assert "3 completed cell(s) persisted to the result cache" in message
    assert "seed=1" in message and "seed=3" in message
    assert runner.stats.failed == 2
    assert cache.writes == 3

    # the replay only pays for the failed cells
    retry = ParallelRunner(jobs=1, cache=ResultCache(str(tmp_path)))
    with pytest.raises(CellError):
        retry.run(items)
    assert retry.stats.cached == 3
    assert retry.stats.executed == 2


def test_invalid_runner_spec():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=0)
    items = work_list("demo", "no-colon-here", [(0, {})])
    with pytest.raises(ValueError, match="package.module:function"):
        ParallelRunner(jobs=1).run(items)


def test_worker_obs_metrics_aggregate(force_spawn):
    """An observing parent gets every pool cell's metrics in its run, with
    their raw samples, so quantiles stay exact; the cells' sessions live
    and die in the workers' own per-cell runs."""
    items = work_list("demo", "repro.par.testing:sim_cell",
                      [(seed, {"horizon_ns": 50_000}) for seed in range(4)])
    runner = ParallelRunner(jobs=2)
    with observe(ObsRun()) as run:
        payloads = runner.run(items)
    assert [p["fired"] for p in payloads] == [51] * 4
    assert run.sessions == []
    assert len(run.registries) == 4
    merged = metrics_snapshot(run.sessions, run.registries)["merged"]
    assert merged["counters"]["par.testing.pings"] == 4 * 51
    horizon = merged["histograms"]["par.testing.horizon_ns"]
    assert horizon["count"] == 4
    assert horizon["p50"] == horizon["p99"] == 50_000.0
    assert merged["gauges"]["par.testing.seed"] == {
        "value": 3.0, "min": 0.0, "max": 3.0}


def _sandwich_export(backend, force_backend, tmp_path, monkeypatch, capsys):
    """One parent session, 4 runner cells, another parent session, then
    the CLI's ``--metrics m.json`` export; returns the file's merged
    block, the printed text and the run."""
    force_backend(backend)
    cells = work_list("demo", "repro.par.testing:sim_cell",
                      [(seed, {"horizon_ns": 10_000 * (seed + 1)})
                       for seed in range(4)])
    with observe(ObsRun()) as run:
        testing.sim_cell(7, {"horizon_ns": 5_000})
        runner = ParallelRunner(jobs=2)
        runner.run(cells)
        testing.sim_cell(8, {"horizon_ns": 7_000})
    assert runner.stats.backend == backend
    out_dir = tmp_path / backend
    out_dir.mkdir()
    monkeypatch.chdir(out_dir)
    capsys.readouterr()
    cli._export_observability(
        argparse.Namespace(trace=None, metrics="m.json", telemetry=None), run)
    with open("m.json") as handle:
        merged = json.load(handle)["merged"]
    return (json.dumps(merged, indent=2, sort_keys=True),
            capsys.readouterr().out, run)


def test_pool_metrics_fold_in_where_inline_cells_record_them(
        force_backend, tmp_path, monkeypatch, capsys):
    """``--jobs N --metrics`` writes what ``--jobs 1`` writes: the pool
    cells' registries join the run in work-list order, between the parent
    sessions recorded before and after the runner, where the inline
    path's sessions land."""
    inline = _sandwich_export("inline", force_backend, tmp_path,
                              monkeypatch, capsys)
    spawn = _sandwich_export("spawn", force_backend, tmp_path,
                             monkeypatch, capsys)
    assert '"par.testing.pings"' in inline[0]
    assert spawn[0] == inline[0]
    assert spawn[1] == inline[1]
    # sessions list in-process sessions only
    assert len(inline[2].sessions) == 6
    assert len(spawn[2].sessions) == 2
    assert ([registry.snapshot() for registry in spawn[2].registries]
            == [registry.snapshot() for registry in inline[2].registries])


def test_serial_path_leaves_parent_obs_runtime_alone():
    """Outside an observed run, jobs=1 neither observes nor ships metrics."""
    runner = ParallelRunner(jobs=1)
    payloads = runner.run(work_list("demo", "repro.par.testing:sim_cell",
                                    [(0, {"horizon_ns": 10_000})]))
    assert payloads[0]["fired"] == 11
    assert obs_runtime.current is None


def test_serial_path_preserves_observing_parent_sessions():
    """Regression: inside an observed run (--trace/--metrics), in-process
    cells must join the run's sessions next to the ones already there —
    the CLI's export step needs them all, including ones from experiments
    that ran earlier in the same invocation."""
    with observe(ObsRun()) as run:
        # a session from an "earlier experiment" in the same invocation
        testing.sim_cell(7, {"horizon_ns": 5_000})
        assert len(run.sessions) == 1

        runner = ParallelRunner(jobs=1)
        runner.run(work_list("demo", "repro.par.testing:sim_cell",
                             [(0, {"horizon_ns": 10_000}),
                              (1, {"horizon_ns": 10_000})]))
    # in-process cells stay in the run's sessions for
    # _export_observability, and nothing else joins its registries
    assert len(run.sessions) == 3
    assert run.registries == [obs.metrics for obs in run.sessions]
